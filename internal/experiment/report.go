package experiment

import (
	"bytes"
	"fmt"
	"io"
)

// WriteReport regenerates the full evaluation under env — every
// catalogue entry, each printed exactly as `idiosim -exp <name>` prints
// it, in a fenced block under its name — followed by the reproduction
// claims, as one self-contained markdown report. This is the artifact a
// user would attach to a reproduction claim.
func WriteReport(w io.Writer, env Env) error {
	scale := "Paper-scale run: 1024-entry rings, 1 MB MLC per core, 3 MB shared LLC, " +
		"1514-byte packets unless stated otherwise."
	if env.Quick {
		scale = fmt.Sprintf("Reduced-scale run (%d-entry rings, %d KiB MLC per core, %d KiB shared LLC). "+
			"Run without -quick for the paper-scale geometry.", quickRing, quickMLC>>10, quickLLC>>10)
	}
	if _, err := fmt.Fprintf(w, "# IDIO reproduction report\n\n%s\n\n", scale); err != nil {
		return err
	}
	var b bytes.Buffer
	for _, o := range RunAll(Catalogue, env) {
		if o.Err != nil {
			return fmt.Errorf("%s: %w", o.Name, o.Err)
		}
		fmt.Fprintf(&b, "## %s\n\n```\n%s```\n\n", o.Name, o.Text.Bytes())
	}
	var claims bytes.Buffer
	failed := Verify(&claims)
	fmt.Fprintf(&b, "## Reproduction claims\n\n```\n%s```\n\n", claims.Bytes())
	if failed > 0 {
		fmt.Fprintf(&b, "**%d claims FAILED.**\n\n", failed)
	}
	_, err := w.Write(b.Bytes())
	return err
}

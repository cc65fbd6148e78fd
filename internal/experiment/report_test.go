package experiment

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriteReportQuick: the -quick report holds every catalogue entry,
// its section byte-equal to the entry's golden -quick output, then the
// claims, all passing.
func TestWriteReportQuick(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteReport(&buf, Env{Quick: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, e := range Catalogue {
		want, err := os.ReadFile(filepath.Join("../../testdata/golden", e.Name+"_quick.txt"))
		if err != nil {
			t.Fatal(err)
		}
		open := "## " + e.Name + "\n\n```\n"
		i := strings.Index(out, open)
		if i < 0 {
			t.Fatalf("report has no %s section", e.Name)
		}
		body := out[i+len(open):]
		body = body[:strings.Index(body, "```\n")]
		if body != string(want) {
			t.Errorf("report section %s differs from its golden -quick output:\n%s", e.Name, body)
		}
	}
	if !strings.Contains(out, "## Reproduction claims\n\n```\nPASS") || strings.Contains(out, "FAIL") {
		t.Fatalf("report claims missing or failing:\n%s", out[strings.Index(out, "## Reproduction claims"):])
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n += len(p)
	if f.n > 100 {
		return 0, strings.NewReader("").UnreadByte() // any non-nil error
	}
	return len(p), nil
}

func TestWriteReportPropagatesWriteErrors(t *testing.T) {
	if err := WriteReport(&failWriter{}, Env{Quick: true}); err == nil {
		t.Fatal("write errors must propagate")
	}
}

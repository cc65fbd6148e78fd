package hier

import (
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"idio/internal/cache"
	"idio/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/random_ops.txt")

// TestRandomOpsGolden pins a fixed random-op run of every invariant
// config: each op's result and the residency of every line after each
// op (folded into one digest per 50 ops), then Stats and Demand. A
// change meant to cut host work only must leave the file byte-identical;
// `go test ./internal/hier -run TestRandomOpsGolden -update` rewrites it.
func TestRandomOpsGolden(t *testing.T) {
	const (
		lines = 96
		ops   = 5000
		block = 50
	)
	var out strings.Builder
	for _, tc := range invariantConfigs {
		rng := rand.New(rand.NewSource(44))
		h := randomOpHierarchy(t, tc.mk)
		fmt.Fprintf(&out, "config %s\n", tc.name)
		results, residency := fnv.New64a(), fnv.New64a()
		for op := 0; op < ops; op++ {
			now := sim.Time(op) * sim.Time(sim.Nanosecond)
			what, r := randomOp(h, rng, now, lines)
			fmt.Fprintf(results, "%s=%d;", what, r)
			writeResidency(residency, h, 2*lines+8)
			if op%block == block-1 {
				fmt.Fprintf(&out, "ops %d-%d results %016x residency %016x\n", op-block+1, op, results.Sum64(), residency.Sum64())
				results.Reset()
				residency.Reset()
			}
		}
		fmt.Fprintf(&out, "stats %+v\n", h.Stats())
		for c := range h.mlc {
			fmt.Fprintf(&out, "demand core %d %+v\n", c, h.Demand(c))
		}
	}
	path := filepath.Join("testdata", "random_ops.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := out.String(); got != string(want) {
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("%s line %d:\n got %s\nwant %s", path, i+1, g[i], w[i])
			}
		}
		t.Fatalf("%s: %d lines, want %d", path, len(g), len(w))
	}
}

// writeResidency writes where each of the first n lines lives
// (lineResidency).
func writeResidency(w io.Writer, h *Hierarchy, n int) {
	buf := make([]byte, 0, 2*len(h.mlc)+3)
	for la := uint64(0); la < uint64(n); la++ {
		w.Write(lineResidency(buf[:0], h.l1, h.mlc, h.llc, h.dirOwner, la))
	}
}

// lineResidency appends where line la lives: per core its L1 and MLC
// state, the LLC state (each '-' absent, else clean 'C', dirty 'D', I/O
// 'I', dirty I/O 'X') and the directory owner, then ';'.
func lineResidency(buf []byte, l1, mlc []*cache.Cache, llc *cache.Cache, owner func(uint64) (int, bool), la uint64) []byte {
	st := func(c *cache.Cache) byte {
		ln := c.LookupAt(la, c.Find(la), false)
		switch {
		case ln == nil:
			return '-'
		case ln.Dirty && ln.IO:
			return 'X'
		case ln.Dirty:
			return 'D'
		case ln.IO:
			return 'I'
		}
		return 'C'
	}
	for c := range mlc {
		buf = append(buf, st(l1[c]), st(mlc[c]))
	}
	buf = append(buf, st(llc))
	if c, ok := owner(la); ok {
		buf = append(buf, byte('0'+c))
	} else {
		buf = append(buf, '-')
	}
	return append(buf, ';')
}

package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"idio/internal/experiment"
)

// TestRPCScenarioSweep runs `-exp rpc -quick -scenario <file>` through
// main's path. The scenario's topology must shape every cell (clients x
// per-client requests issued) and its operating point must be on the
// swept axis, labelled as the file gives it: the shipped file's
// closed-loop window, which the quick sweep already has; a copy's
// window it lacks; and a copy's fractional open-loop rate.
func TestRPCScenarioSweep(t *testing.T) {
	const shipped = "../../scenarios/rpc_closed_loop.json"
	raw, err := os.ReadFile(shipped)
	if err != nil {
		t.Fatal(err)
	}
	variant := func(name, old, new string) string {
		t.Helper()
		doc := strings.Replace(string(raw), old, new, 1)
		if doc == string(raw) {
			t.Fatalf("%s no longer sets %s", shipped, old)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := []struct{ path, mode, offered string }{
		{shipped, "closed", "w=16"},
		{variant("rpc_w7.json", `"outstanding": 16`, `"outstanding": 7`), "closed", "w=7"},
		{variant("rpc_open.json", `"mode": "closed"`, `"mode": "open", "gbps": 12.5`), "open", "12.5G"},
	}
	for _, c := range cases {
		sc, err := loadScenario(c.path)
		if err != nil {
			t.Fatal(err)
		}
		outs, err := runExperiments("rpc", c.path, experiment.Env{Quick: true, Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		if outs[0].Err != nil {
			t.Fatalf("%s: %v", c.path, outs[0].Err)
		}
		issued := strconv.FormatUint(uint64(sc.Topology.Clients)*sc.Topology.RPC.Requests, 10)
		hits := 0
		// Skip the title, header and rule lines.
		for _, line := range strings.Split(strings.TrimSpace(outs[0].Text.String()), "\n")[3:] {
			f := strings.Fields(line)
			if f[3] != issued {
				t.Fatalf("%s: row %q issued %s, want %s", c.path, line, f[3], issued)
			}
			if f[1] == c.mode && f[2] == c.offered {
				hits++
			}
		}
		if hits != 2 {
			t.Fatalf("%s: %s %s in %d rows, want one per policy:\n%s", c.path, c.mode, c.offered, hits, outs[0].Text.String())
		}
	}
}

// TestUnknownExperiment: an unknown -exp name fails before running
// anything, with an error naming what -exp takes.
func TestUnknownExperiment(t *testing.T) {
	_, err := runExperiments("fig99", "", experiment.Env{Quick: true})
	if err == nil || !strings.Contains(err.Error(), "fig4|") || !strings.Contains(err.Error(), "|verify|all") {
		t.Fatalf("got %v, want an unknown-experiment error listing the choices", err)
	}
}

// TestRPCScenarioNeedsRPC: -exp rpc -scenario with a document that has
// no topology rpc section fails with an error instead of sweeping.
func TestRPCScenarioNeedsRPC(t *testing.T) {
	outs, err := runExperiments("rpc", "../../scenarios/mixed_nfs.json", experiment.Env{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Err == nil || !strings.Contains(outs[0].Err.Error(), "topology rpc section") {
		t.Fatalf("got %v, want an error asking for a topology rpc section", outs[0].Err)
	}
}

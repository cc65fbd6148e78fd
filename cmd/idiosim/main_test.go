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
// per-client requests issued) and its closed-loop window must be on
// the swept axis — for the shipped file, whose window the quick sweep
// already has, and for a copy whose window it lacks.
func TestRPCScenarioSweep(t *testing.T) {
	const shipped = "../../scenarios/rpc_closed_loop.json"
	raw, err := os.ReadFile(shipped)
	if err != nil {
		t.Fatal(err)
	}
	w7 := strings.Replace(string(raw), `"outstanding": 16`, `"outstanding": 7`, 1)
	if w7 == string(raw) {
		t.Fatalf("%s no longer sets outstanding 16", shipped)
	}
	odd := filepath.Join(t.TempDir(), "rpc_w7.json")
	if err := os.WriteFile(odd, []byte(w7), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{shipped, odd} {
		sc, err := loadScenario(path)
		if err != nil {
			t.Fatal(err)
		}
		outs, err := runExperiments("rpc", path, experiment.Env{Quick: true, Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		if outs[0].Err != nil {
			t.Fatalf("%s: %v", path, outs[0].Err)
		}
		issued := strconv.FormatUint(uint64(sc.Topology.Clients)*sc.Topology.RPC.Requests, 10)
		window := "w=" + strconv.Itoa(sc.Topology.RPC.Outstanding)
		hits := 0
		// Skip the title, header and rule lines.
		for _, line := range strings.Split(strings.TrimSpace(outs[0].Text.String()), "\n")[3:] {
			f := strings.Fields(line)
			if f[3] != issued {
				t.Fatalf("%s: row %q issued %s, want %s", path, line, f[3], issued)
			}
			if f[1] == "closed" && f[2] == window {
				hits++
			}
		}
		if hits != 2 {
			t.Fatalf("%s: window %s in %d rows, want one per policy:\n%s", path, window, hits, outs[0].Text.String())
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

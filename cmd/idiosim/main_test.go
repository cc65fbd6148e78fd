package main

import (
	"os"
	"path/filepath"
	"regexp"
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
// window it lacks; a copy's fractional open-loop rate; and a copy
// whose 10 Gbps server link sheds through CoDel-style AQM, where the
// IDIO cell is the file's own run and its drops column must count the
// file's sheds.
func TestRPCScenarioSweep(t *testing.T) {
	const shipped = "../../scenarios/rpc_closed_loop.json"
	raw, err := os.ReadFile(shipped)
	if err != nil {
		t.Fatal(err)
	}
	// variant writes a copy of the shipped file with each old/new pair
	// of edits replaced.
	variant := func(name string, edits ...string) string {
		t.Helper()
		doc := string(raw)
		for i := 0; i < len(edits); i += 2 {
			next := strings.Replace(doc, edits[i], edits[i+1], 1)
			if next == doc {
				t.Fatalf("%s no longer sets %s", shipped, edits[i])
			}
			doc = next
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	aqm := variant("rpc_aqm.json",
		`"serverLink": {"gbps": 100, "delayUS": 2}`, `"serverLink": {"gbps": 10, "delayUS": 2, "aqmTargetUS": 5}`,
		`"outstanding": 16`, `"outstanding": 64`)
	cases := []struct{ path, mode, offered string }{
		{shipped, "closed", "w=16"},
		{variant("rpc_w7.json", `"outstanding": 16`, `"outstanding": 7`), "closed", "w=7"},
		{variant("rpc_open.json", `"mode": "closed"`, `"mode": "open", "gbps": 12.5`), "open", "12.5G"},
		{aqm, "closed", "w=64"},
	}
	// The AQM copy's own run sheds requests and drops nothing else.
	var single strings.Builder
	if err := runScenario(aqm, scenarioOpts{}, &single); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`fabric: .* tailDrops=0 downDrops=0\n  fabric aqm: sheds=([1-9][0-9]*)\n`).FindStringSubmatch(single.String())
	if m == nil {
		t.Fatalf("%s: want AQM sheds and no other fabric drops:\n%s", aqm, single.String())
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
				if c.path == aqm && f[0] == "IDIO" && f[6] != m[1] {
					t.Errorf("%s: row %q drops %s, want the run's %s AQM sheds", c.path, line, f[6], m[1])
				}
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

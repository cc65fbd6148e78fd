package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"idio/internal/sim"
)

// removedKeysDoc is a valid document; removedKeysJSON holds one copy
// of it per key the loader no longer knows (topology "shards", chaos
// "domain", "tracePackets"), each of which Load must reject.
func removedKeysDoc(top, topo, chaos string) string {
	return `{
  "name": "removed-keys", "policy": "IDIO", "cores": 2, "horizonMS": 1,` + top + `
  "nfs": [{"core": 0, "app": "L2Fwd", "traffic": {}}],
  "topology": {"clients": 1, "clientLink": {"gbps": 100, "delayUS": 2},
    "serverLink": {"gbps": 100, "delayUS": 2},
    "rpc": {"mode": "closed", "outstanding": 4, "requests": 64}` + topo + `},
  "chaos": [{"layer": "fabric", "kind": "down", "startMS": 0.1, "durationMS": 0.1` + chaos + `}]
}`
}

var removedKeysJSON = []struct{ key, doc string }{
	{"shards", removedKeysDoc("", `, "shards": 4`, "")},
	{"domain", removedKeysDoc("", "", `, "domain": "switch"`)},
	{"tracePackets", removedKeysDoc(` "tracePackets": 64,`, "", "")},
}

// negativeDelayJSON sets a negative link propagation delay, which
// Load must reject before a link schedules a delivery in the past.
const negativeDelayJSON = `{
  "name": "negative-delay", "policy": "IDIO", "cores": 2, "horizonMS": 1,
  "nfs": [{"core": 0, "app": "L2Fwd", "traffic": {}}],
  "topology": {"clients": 1, "clientLink": {"gbps": 100, "delayUS": -5},
    "serverLink": {"gbps": 100, "delayUS": 2},
    "rpc": {"mode": "closed", "outstanding": 4, "requests": 64}}
}`

// fuzzHorizonMS clamps every fuzzed run, and fuzzWatchdog bounds the
// events one 100 µs checkpoint slice may execute: together they turn
// any input that would hang into a finished run or a watchdog abort.
const fuzzHorizonMS = 2

var fuzzWatchdog = sim.WatchdogConfig{
	MaxEventsPerInstant: 100_000,
	MaxPendingEvents:    1_000_000,
	MaxProcessedEvents:  500_000,
}

// FuzzScenario feeds arbitrary documents through Load (which decodes
// and runs Validate), then compiles, builds and runs each accepted one
// with its horizon clamped to fuzzHorizonMS and the watchdog armed.
// Every input must end in an error or a finished run whose hierarchy
// passes CheckCoherence; a panic, a hang or a coherence error fails.
// The seeds are every shipped scenario, so tier-1 checks coherence at
// the end of each.
func FuzzScenario(f *testing.F) {
	paths, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed scenarios (%v)", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, rk := range removedKeysJSON {
		f.Add([]byte(rk.doc))
	}
	f.Add([]byte(negativeDelayJSON))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		sc.HorizonMS = min(sc.HorizonMS, fuzzHorizonMS)
		d, err := sc.Compile()
		if err != nil {
			return
		}
		wd := fuzzWatchdog
		d.Host.Watchdog = &wd
		r, err := Build(d)
		if err != nil {
			return
		}
		r.Run()
		if err := r.Sys.Hier.CheckCoherence(); err != nil {
			t.Fatalf("scenario %q: %v", sc.Name, err)
		}
		// Every accepted phase that starts before the run ends applies:
		// none names a victim the fault layer lacks. One starting at the
		// run's last instant may or may not have fired.
		end, before, atEnd := r.Sys.Sim.Now(), uint64(0), uint64(0)
		for _, p := range sc.chaosTimeline() {
			switch {
			case p.Start < end:
				before++
			case p.Start == end:
				atEnd++
			}
		}
		if got := r.Sys.Collect().Faults.TimelinePhases; got < before || got > before+atEnd {
			t.Fatalf("scenario %q: %d chaos phases applied, %d declared before the run's end (+%d at it)", sc.Name, got, before, atEnd)
		}
	})
}

// TestRemovedKeysRejected: a document that still carries a removed
// key fails to load with an error naming it, while the same document
// without it loads.
func TestRemovedKeysRejected(t *testing.T) {
	if _, err := Load(strings.NewReader(removedKeysDoc("", "", ""))); err != nil {
		t.Fatalf("base document: %v", err)
	}
	for _, rk := range removedKeysJSON {
		_, err := Load(strings.NewReader(rk.doc))
		if err == nil || !strings.Contains(err.Error(), rk.key) {
			t.Errorf("%s: got %v, want an error naming the key", rk.key, err)
		}
	}
}

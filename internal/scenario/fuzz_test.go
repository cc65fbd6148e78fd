package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"idio/internal/sim"
)

// removedKeysJSON uses the topology "shards" and chaos "domain" keys,
// which the loader no longer knows: it must reject them with an error.
const removedKeysJSON = `{
  "name": "removed-keys", "policy": "IDIO", "cores": 2, "horizonMS": 1,
  "nfs": [{"core": 0, "app": "L2Fwd", "traffic": {}}],
  "topology": {"clients": 1, "clientLink": {"gbps": 100, "delayUS": 2},
    "serverLink": {"gbps": 100, "delayUS": 2},
    "rpc": {"mode": "closed", "outstanding": 4, "requests": 64}, "shards": 4},
  "chaos": [{"layer": "fabric", "kind": "down", "startMS": 0.1, "durationMS": 0.1, "domain": "switch"}]
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
// and runs Validate) and runs each accepted one with its horizon
// clamped to fuzzHorizonMS and the watchdog armed. Every input must end
// in an error or a finished run; a panic or a hang fails.
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
	f.Add([]byte(removedKeysJSON))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		sc.HorizonMS = min(sc.HorizonMS, fuzzHorizonMS)
		cfg, err := sc.hostConfig()
		if err != nil {
			return
		}
		wd := fuzzWatchdog
		cfg.Watchdog = &wd
		_, _, _, _ = sc.run(cfg, nil)
	})
}

// TestRemovedKeysRejected: documents that still carry the removed
// "shards" or chaos "domain" keys fail to load with an error.
func TestRemovedKeysRejected(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte(removedKeysJSON))); err == nil {
		t.Fatal("Load accepted the removed shards/domain keys")
	}
}

package idio

import (
	"errors"
	"strings"
	"testing"

	idiocore "idio/internal/core"
	"idio/internal/fault"
	"idio/internal/sim"
)

func TestValidateAcceptsDefaults(t *testing.T) {
	for _, cores := range []int{1, 2, 8} {
		if err := DefaultConfig(cores).Validate(); err != nil {
			t.Errorf("DefaultConfig(%d): %v", cores, err)
		}
	}
	if err := Gem5Config().Validate(); err != nil {
		t.Errorf("Gem5Config: %v", err)
	}
	cfg := smallCfg(2, idiocore.PolicyIDIO)
	if err := cfg.Validate(); err != nil {
		t.Errorf("smallCfg: %v", err)
	}
}

// TestValidateRejects covers every invalid-configuration class the
// subsystem constructors would otherwise panic on, asserting Validate
// reports it as an error naming the offending field.
func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name  string
		mut   func(*Config)
		field string
	}{
		{"no cores", func(c *Config) { c.Hier.NumCores = 0 }, "Hier.NumCores"},
		{"zero clock", func(c *Config) { c.Hier.Clock = sim.Clock{} }, "Hier.Clock"},
		{"bad L1 assoc", func(c *Config) { c.Hier.L1Assoc = 0 }, "Hier.L1Size"},
		{"L1 not divisible", func(c *Config) { c.Hier.L1Size = 100 }, "Hier.L1Size"},
		{"MLC sets not pow2", func(c *Config) { c.Hier.MLCSize = 3 * (96 << 10) }, "Hier.MLCSize"},
		{"per-core MLC bad", func(c *Config) { c.Hier.MLCSizePerCore = []int{100} }, "Hier.MLCSizePerCore[0]"},
		{"LLC assoc over 64", func(c *Config) { c.Hier.LLCAssoc = 65 }, "Hier.LLCSize"},
		{"DDIO ways zero", func(c *Config) { c.Hier.DDIOWays = 0 }, "Hier.DDIOWays"},
		{"DDIO ways over assoc", func(c *Config) { c.Hier.DDIOWays = c.Hier.LLCAssoc + 1 }, "Hier.DDIOWays"},
		{"dir assoc", func(c *Config) { c.Hier.DirAssoc = 0 }, "Hier.DirAssoc"},
		{"dir entries", func(c *Config) { c.Hier.DirEntriesPerCore = 0 }, "Hier.DirEntriesPerCore"},
		{"dram bandwidth", func(c *Config) { c.Hier.DRAM.BytesPerSecond = 0 }, "Hier.DRAM.BytesPerSecond"},
		{"dram row bytes", func(c *Config) { c.Hier.DRAM.RowBytes = 32 }, "Hier.DRAM.RowBytes"},
		{"dram row bytes not pow2", func(c *Config) { c.Hier.DRAM.RowBytes = 3000 }, "Hier.DRAM.RowBytes"},
		{"dram banks not pow2", func(c *Config) { c.Hier.DRAM.Banks = 6 }, "Hier.DRAM.Banks"},
		{"nic queues", func(c *Config) { c.NIC.NumQueues = 0 }, "NIC.NumQueues"},
		{"nic ring size", func(c *Config) { c.NIC.RingSize = 0 }, "NIC.RingSize"},
		{"nic line rate", func(c *Config) { c.NIC.LineRateBps = 0 }, "NIC.LineRateBps"},
		{"cpu batch", func(c *Config) { c.CPU.BatchSize = 0 }, "CPU.BatchSize"},
		{"cpu poll interval", func(c *Config) { c.CPU.PollInterval = 0 }, "CPU.PollInterval"},
		{"classifier cores high", func(c *Config) { c.Classifier.NumCores = 64 }, "Classifier.NumCores"},
		{"classifier cores mismatch", func(c *Config) { c.Classifier.NumCores = 3 }, "Classifier.NumCores"},
		{"classifier window", func(c *Config) { c.Classifier.Window = 0 }, "Classifier.Window"},
		{"controller cores", func(c *Config) { c.Controller.NumCores = 0 }, "Controller.NumCores"},
		{"controller avg window", func(c *Config) { c.Controller.AvgWindow = 0 }, "Controller.AvgWindow"},
		{"controller sample", func(c *Config) { c.Controller.SampleInterval = 0 }, "Controller.SampleInterval"},
		{"prefetcher depth", func(c *Config) { c.Prefetcher.QueueDepth = 0 }, "Prefetcher.QueueDepth"},
		{"prefetcher interval", func(c *Config) { c.Prefetcher.IssueInterval = 0 }, "Prefetcher.IssueInterval"},
		{"waytuner bounds", func(c *Config) {
			c.DynamicDDIOWays = &idiocore.WayTunerConfig{MinWays: 3, MaxWays: 2, SampleInterval: sim.Microsecond}
		}, "DynamicDDIOWays"},
		{"waytuner over assoc", func(c *Config) {
			c.DynamicDDIOWays = &idiocore.WayTunerConfig{MinWays: 1, MaxWays: 99, SampleInterval: sim.Microsecond}
		}, "DynamicDDIOWays.MaxWays"},
		{"fault prob", func(c *Config) {
			c.Faults = &fault.Config{PCIe: &fault.PCIeConfig{CorruptProb: 2}}
		}, "Faults"},
	}
	for _, tc := range cases {
		cfg := DefaultConfig(2)
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.field)
		}
		var cerr *ConfigError
		if !errors.As(err, &cerr) {
			t.Errorf("%s: error is not a *ConfigError chain", tc.name)
		}
	}
}

// TestValidateJoinsAllProblems: one call reports every defect, not
// just the first.
func TestValidateJoinsAllProblems(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.NIC.NumQueues = 0
	cfg.CPU.BatchSize = 0
	err := cfg.Validate()
	if err == nil {
		t.Fatal("accepted")
	}
	for _, want := range []string{"NIC.NumQueues", "CPU.BatchSize"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %s: %q", want, err)
		}
	}
}

// TestNewSystemE returns errors instead of panicking, while NewSystem
// keeps the historical panic for compatibility.
func TestNewSystemE(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Hier.DDIOWays = 0
	sys, err := NewSystemE(cfg)
	if err == nil || sys != nil {
		t.Fatalf("NewSystemE = (%v, %v), want nil system and error", sys, err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewSystem did not panic on an invalid config")
		}
	}()
	NewSystem(cfg)
}

func TestNewSystemEValid(t *testing.T) {
	sys, err := NewSystemE(smallCfg(1, idiocore.PolicyDDIO))
	if err != nil {
		t.Fatal(err)
	}
	if sys == nil || sys.NIC == nil || sys.Hier == nil {
		t.Fatal("system not wired")
	}
}

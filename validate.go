package idio

import (
	"errors"
	"fmt"

	"idio/internal/pcie"
)

// ConfigError reports one invalid configuration field. Validate joins
// every problem it finds, so a caller sees the full list at once;
// errors.As can still pull out individual *ConfigError values.
type ConfigError struct {
	// Field is the dotted path of the offending field, e.g.
	// "Hier.DDIOWays".
	Field string
	// Msg explains the constraint that was violated.
	Msg string
}

func (e *ConfigError) Error() string { return fmt.Sprintf("idio: config %s: %s", e.Field, e.Msg) }

// Validate checks every constraint the subsystem constructors enforce
// (and a few cross-subsystem ones they cannot see), returning nil or
// an errors.Join of *ConfigError values. It is the supported way to
// reject bad configurations with an error instead of the constructor
// panics NewSystem would otherwise hit; NewSystemE runs it for you.
func (c Config) Validate() error {
	var errs []error
	bad := func(field, format string, args ...interface{}) {
		errs = append(errs, &ConfigError{Field: field, Msg: fmt.Sprintf(format, args...)})
	}

	// cacheGeom mirrors cache.New's geometry checks.
	cacheGeom := func(field string, sizeBytes, assoc int) {
		if assoc <= 0 || assoc > 64 {
			bad(field, "associativity %d outside [1,64]", assoc)
			return
		}
		lines := sizeBytes / 64
		if lines <= 0 || lines%assoc != 0 {
			bad(field, "size %d B does not divide into %d ways of 64 B lines", sizeBytes, assoc)
			return
		}
		if sets := lines / assoc; sets&(sets-1) != 0 {
			bad(field, "set count %d not a power of two", sets)
		}
	}

	h := c.Hier
	if h.NumCores <= 0 {
		bad("Hier.NumCores", "need at least one core, got %d", h.NumCores)
	}
	if h.Clock.FreqHz() <= 0 {
		bad("Hier.Clock", "unset clock (use sim.NewClock)")
	}
	cacheGeom("Hier.L1Size", h.L1Size, h.L1Assoc)
	cacheGeom("Hier.MLCSize", h.MLCSize, h.MLCAssoc)
	for i, sz := range h.MLCSizePerCore {
		if sz > 0 {
			cacheGeom(fmt.Sprintf("Hier.MLCSizePerCore[%d]", i), sz, h.MLCAssoc)
		}
	}
	cacheGeom("Hier.LLCSize", h.LLCSize, h.LLCAssoc)
	if h.DDIOWays <= 0 || h.DDIOWays > h.LLCAssoc {
		bad("Hier.DDIOWays", "%d out of range for a %d-way LLC", h.DDIOWays, h.LLCAssoc)
	}
	if h.DirAssoc <= 0 {
		bad("Hier.DirAssoc", "directory associativity must be positive, got %d", h.DirAssoc)
	}
	if h.DirEntriesPerCore <= 0 {
		bad("Hier.DirEntriesPerCore", "must be positive, got %d", h.DirEntriesPerCore)
	}
	if h.DRAM.BytesPerSecond <= 0 {
		bad("Hier.DRAM.BytesPerSecond", "bandwidth must be positive, got %d", h.DRAM.BytesPerSecond)
	}
	if h.DRAM.Banks > 0 {
		if h.DRAM.Banks&(h.DRAM.Banks-1) != 0 {
			bad("Hier.DRAM.Banks", "banked model needs a power-of-two bank count, got %d", h.DRAM.Banks)
		}
		if h.DRAM.RowBytes < 64 {
			bad("Hier.DRAM.RowBytes", "banked model needs RowBytes >= 64, got %d", h.DRAM.RowBytes)
		} else if h.DRAM.RowBytes&(h.DRAM.RowBytes-1) != 0 {
			bad("Hier.DRAM.RowBytes", "banked model needs power-of-two RowBytes, got %d", h.DRAM.RowBytes)
		}
	}
	if h.TimelineBucket < 0 {
		bad("Hier.TimelineBucket", "must be >= 0, got %v", h.TimelineBucket)
	}

	if c.NIC.NumQueues <= 0 {
		bad("NIC.NumQueues", "need at least one queue, got %d", c.NIC.NumQueues)
	}
	if c.NIC.RingSize <= 0 {
		bad("NIC.RingSize", "ring size must be positive, got %d", c.NIC.RingSize)
	}
	if c.NIC.LineRateBps <= 0 {
		bad("NIC.LineRateBps", "line rate must be positive, got %d", c.NIC.LineRateBps)
	}
	if c.NIC.AdmissionWatermark < 0 {
		bad("NIC.AdmissionWatermark", "must be >= 0, got %d", c.NIC.AdmissionWatermark)
	} else if c.NIC.AdmissionWatermark > c.NIC.RingSize && c.NIC.RingSize > 0 {
		bad("NIC.AdmissionWatermark", "%d exceeds RingSize %d (watermark would never fire)",
			c.NIC.AdmissionWatermark, c.NIC.RingSize)
	}

	if c.CPU.BatchSize <= 0 {
		bad("CPU.BatchSize", "batch size must be positive, got %d", c.CPU.BatchSize)
	}
	if c.CPU.PollInterval <= 0 {
		bad("CPU.PollInterval", "poll interval must be positive, got %v", c.CPU.PollInterval)
	}

	if c.Classifier.NumCores <= 0 || c.Classifier.NumCores > pcie.MaxCores {
		bad("Classifier.NumCores", "%d outside [1,%d] (TLP metadata encoding limit)",
			c.Classifier.NumCores, pcie.MaxCores)
	} else if c.Classifier.NumCores != h.NumCores && h.NumCores > 0 {
		bad("Classifier.NumCores", "%d does not match Hier.NumCores %d", c.Classifier.NumCores, h.NumCores)
	}
	if c.Classifier.Window <= 0 {
		bad("Classifier.Window", "burst window must be positive, got %v", c.Classifier.Window)
	}

	if c.Controller.NumCores <= 0 {
		bad("Controller.NumCores", "need at least one core, got %d", c.Controller.NumCores)
	} else if c.Controller.NumCores != h.NumCores && h.NumCores > 0 {
		bad("Controller.NumCores", "%d does not match Hier.NumCores %d", c.Controller.NumCores, h.NumCores)
	}
	if c.Controller.AvgWindow == 0 {
		bad("Controller.AvgWindow", "averaging window must be positive")
	}
	if c.Controller.SampleInterval <= 0 {
		bad("Controller.SampleInterval", "control-plane period must be positive, got %v", c.Controller.SampleInterval)
	}

	if c.Prefetcher.QueueDepth <= 0 {
		bad("Prefetcher.QueueDepth", "queue depth must be positive, got %d", c.Prefetcher.QueueDepth)
	}
	if c.Prefetcher.IssueInterval <= 0 {
		bad("Prefetcher.IssueInterval", "issue interval must be positive, got %v", c.Prefetcher.IssueInterval)
	}

	if t := c.DynamicDDIOWays; t != nil {
		if t.MinWays <= 0 || t.MaxWays < t.MinWays {
			bad("DynamicDDIOWays", "bad way bounds [%d,%d]", t.MinWays, t.MaxWays)
		} else if t.MaxWays > h.LLCAssoc {
			bad("DynamicDDIOWays.MaxWays", "%d exceeds %d-way LLC", t.MaxWays, h.LLCAssoc)
		}
		if t.SampleInterval <= 0 {
			bad("DynamicDDIOWays.SampleInterval", "must be positive, got %v", t.SampleInterval)
		}
	}

	if w := c.Watchdog; w != nil {
		if w.MaxPendingEvents < 0 {
			bad("Watchdog.MaxPendingEvents", "must be >= 0, got %d", w.MaxPendingEvents)
		}
	}
	if c.Obs.TraceSampleN < 0 {
		bad("Obs.TraceSampleN", "must be >= 0, got %d", c.Obs.TraceSampleN)
	}
	if c.Obs.MetricsInterval < 0 {
		bad("Obs.MetricsInterval", "must be >= 0, got %v", c.Obs.MetricsInterval)
	}
	if err := c.Faults.Validate(); err != nil {
		errs = append(errs, &ConfigError{Field: "Faults", Msg: err.Error()})
	}
	if q := c.QoS; q != nil {
		if err := q.Validate(); err != nil {
			errs = append(errs, &ConfigError{Field: "QoS", Msg: err.Error()})
		} else {
			for ci := range q.Classes {
				if w := q.Classes[ci].LLCWays; w > h.LLCAssoc {
					bad(fmt.Sprintf("QoS.Classes[%d].LLCWays", ci), "%d exceeds %d-way LLC", w, h.LLCAssoc)
				}
			}
		}
	}

	return errors.Join(errs...)
}

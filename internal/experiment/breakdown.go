package experiment

import (
	"fmt"

	idiocore "idio/internal/core"
	"idio/internal/obs"
	"idio/internal/sim"
	"idio/internal/stats"
)

// Breakdown splits per-packet latency into its three stages —
// notification (descriptor coalescing), queueing (waiting behind the
// ring backlog) and service (driver + NF processing) — for DDIO and
// IDIO on the Fig. 9 scenario. It makes visible *where* IDIO's tail
// win comes from: service time shrinks (MLC hits instead of LLC/DRAM)
// and the queue collapses behind the faster core.

// BreakdownRow is one policy's stage percentiles in microseconds.
type BreakdownRow struct {
	Policy      string
	NotifyP50US float64
	QueueP50US  float64
	ServP50US   float64
	QueueP99US  float64
	ServP99US   float64
	TotalP99US  float64
}

// Row renders for the table writer.
func (r BreakdownRow) Row() []string {
	f := func(v float64) string { return fmt.Sprintf("%.2f", v) }
	return []string{
		r.Policy, f(r.NotifyP50US), f(r.QueueP50US), f(r.ServP50US),
		f(r.QueueP99US), f(r.ServP99US), f(r.TotalP99US),
	}
}

// BreakdownHeader describes the table columns.
func BreakdownHeader() []string {
	return []string{"policy", "notify p50", "queue p50", "svc p50", "queue p99", "svc p99", "total p99"}
}

// BreakdownOpts parameterises the run.
type BreakdownOpts struct {
	Geometry
	RateGbps float64
	Horizon  sim.Duration
	// Parallelism bounds the worker pool running the two policies
	// (0 = GOMAXPROCS, 1 = serial).
	Parallelism int
}

// DefaultBreakdownOpts uses the 25 Gbps burst where the paper's tail
// effect is largest.
func DefaultBreakdownOpts() BreakdownOpts {
	return BreakdownOpts{Geometry: Geometry{RingSize: 1024}, RateGbps: 25, Horizon: 9 * sim.Millisecond}
}

// stageSink records each traced packet's stages from its EvDone event.
type stageSink struct{ notify, queue, serv, total *stats.LatencyDist }

func (s *stageSink) Emit(e obs.Event) {
	if e.Kind != obs.EvDone {
		return
	}
	s.notify.Record(e.Ready.Sub(e.Arrival))
	s.queue.Record(e.Start.Sub(e.Ready))
	s.serv.Record(e.At.Sub(e.Start))
	s.total.Record(e.At.Sub(e.Arrival))
}

func (s *stageSink) Close() error { return nil }

// Breakdown runs both policies with every packet traced.
func Breakdown(opts BreakdownOpts) []BreakdownRow {
	pols := []idiocore.Policy{idiocore.PolicyDDIO, idiocore.PolicyIDIO}
	return RunCells(opts.Parallelism, pols, func(pol idiocore.Policy) BreakdownRow {
		d := gem5NFs(pol, opts.Geometry, false)
		d.Host.Obs.TraceSampleN = 1
		burst(&d, opts.RateGbps, 1)
		d.Horizon, d.UntilIdle = opts.Horizon, true
		r := build(d)
		s := &stageSink{stats.NewLatencyDist(), stats.NewLatencyDist(), stats.NewLatencyDist(), stats.NewLatencyDist()}
		r.Sys.Observe().SetSink(s)
		r.Run()
		return BreakdownRow{
			Policy:      pol.Name(),
			NotifyP50US: s.notify.P50().Microseconds(),
			QueueP50US:  s.queue.P50().Microseconds(),
			ServP50US:   s.serv.P50().Microseconds(),
			QueueP99US:  s.queue.P99().Microseconds(),
			ServP99US:   s.serv.P99().Microseconds(),
			TotalP99US:  s.total.P99().Microseconds(),
		}
	})
}

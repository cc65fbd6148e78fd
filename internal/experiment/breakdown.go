package experiment

import (
	"fmt"

	idiocore "idio/internal/core"
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

// Breakdown runs both policies with tracing enabled.
func Breakdown(opts BreakdownOpts) []BreakdownRow {
	pols := []idiocore.Policy{idiocore.PolicyDDIO, idiocore.PolicyIDIO}
	return RunCells(opts.Parallelism, pols, func(pol idiocore.Policy) BreakdownRow {
		d := gem5NFs(pol, opts.Geometry, false)
		d.Host.CPU.TraceCapacity = d.Host.NIC.RingSize * len(d.NFs)
		b, _ := runBurst(d, opts.RateGbps, opts.Horizon)

		notify, queue, serv, total := stats.NewLatencyDist(), stats.NewLatencyDist(), stats.NewLatencyDist(), stats.NewLatencyDist()
		for _, c := range b.Sys.Cores {
			if c == nil {
				continue
			}
			for _, rec := range c.Trace {
				notify.Record(rec.NotifyDelay())
				queue.Record(rec.QueueDelay())
				serv.Record(rec.ServiceTime())
				total.Record(rec.Total())
			}
		}
		return BreakdownRow{
			Policy:      pol.Name(),
			NotifyP50US: notify.P50().Microseconds(),
			QueueP50US:  queue.P50().Microseconds(),
			ServP50US:   serv.P50().Microseconds(),
			QueueP99US:  queue.P99().Microseconds(),
			ServP99US:   serv.P99().Microseconds(),
			TotalP99US:  total.P99().Microseconds(),
		}
	})
}

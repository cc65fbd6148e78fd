package experiment

import (
	"fmt"
	"sort"
	"strings"

	"idio"
	"idio/internal/fault"
	fnet "idio/internal/net"
	"idio/internal/scenario"
	"idio/internal/sim"
	"idio/internal/stats"
	"idio/internal/traffic"
)

// The chaos entry scripts four transient faults against a two-core
// DUT under steady closed-loop load, with AQM, admission control and
// client backoff all engaged, and reports, per policy, the RPC
// workload's behaviour in every timeline segment plus the
// time-to-recover: how long after the last fault cleared the windowed
// p99 first returned within chaosEpsilon of the pre-fault baseline.

// chaosTimeline leaves an unfaulted warmup before its first phase:
// that span is the recovery baseline.
var chaosTimeline = []fault.Phase{
	{Layer: "fabric", Kind: "degrade", Start: sim.Time(1 * sim.Millisecond), Duration: 1 * sim.Millisecond, Magnitude: 0.02, Target: 0},
	{Layer: "nic", Kind: "dma-stall", Start: sim.Time(3 * sim.Millisecond), Duration: 300 * sim.Microsecond, Target: 0},
	{Layer: "dram", Kind: "spike", Start: sim.Time(4 * sim.Millisecond), Duration: 500 * sim.Microsecond, Magnitude: 2000},
	{Layer: "core", Kind: "stall", Start: sim.Time(5 * sim.Millisecond), Duration: 300 * sim.Microsecond, Target: 0},
}

// Recovery is declared at the first post-fault window of
// chaosRecoverWindow whose p99 is within chaosEpsilon (relative) of the
// pre-fault p99, checking at most chaosMaxWindows windows.
const (
	chaosRecoverWindow = 250 * sim.Microsecond
	chaosMaxWindows    = 40
	chaosEpsilon       = 0.5
)

// chaosCells run the timeline under DDIO and IDIO: two closed-loop
// clients (window 32, per-client budget requests, 200 µs attempt
// timeout, jittered exponential backoff seeded 42+i) on 100 GbE links
// with CoDel-style AQM, and a DUT shedding at 48 ring entries.
func chaosCells(g geometry, requests uint64, horizon sim.Duration) []*cell {
	link := fnet.LinkConfig{
		RateBps:     100e9,
		Delay:       2 * sim.Microsecond,
		AQMTarget:   20 * sim.Microsecond,
		AQMInterval: 100 * sim.Microsecond,
	}
	var cells []*cell
	for _, pol := range both {
		d := echoCluster(pol, 2, g, 2, link)
		d.Host.NIC.AdmissionWatermark = 48
		d.Host.Faults = &fault.Config{Timeline: chaosTimeline}
		armWatchdog(&d.Host)
		// Every client records into the probe's one histogram, which
		// each cut resets.
		hist := stats.NewHistogram(5)
		for i := 0; i < 2; i++ {
			retry := fnet.RetryConfig{
				MaxRetries: 3,
				Backoff:    50 * sim.Microsecond,
				MaxBackoff: 400 * sim.Microsecond,
				JitterFrac: 0.25,
				Seed:       42 + int64(i),
			}
			d.RPC = append(d.RPC, scenario.RPCClient{Core: i, ClientConfig: fnet.ClientConfig{
				Mode:        fnet.ModeClosed,
				Outstanding: 32,
				Requests:    requests,
				Timeout:     200 * sim.Microsecond,
				Hist:        hist,
				Retry:       &retry,
				Flow:        traffic.Flow{FrameLen: 1514},
			}})
		}
		d.Horizon, d.UntilIdle = horizon, true
		cells = append(cells, &cell{labels: []string{pol.Name()}, desc: d, arm: func(r *scenario.Rig) any {
			return armChaos(r.Cluster, hist)
		}})
	}
	return cells
}

// chaosTable prints one row per timeline segment and the recover row.
var chaosTable = table{
	title: "Chaos: scripted fault timeline, per-phase behaviour and time-to-recover (DDIO vs IDIO)",
	head:  []string{"policy"},
	parts: func(r *run) []any { return r.probe.(*chaosProbe).phases() },
	cols: []col{
		{"phase", func(r *run) string { return r.part.(chaosPhase).label }},
		phaseCol("startms", "%.2f", func(p chaosPhase) float64 { return float64(p.prev.at) / float64(sim.Millisecond) }),
		phaseCol("durms", "%.2f", func(p chaosPhase) float64 { return float64(p.cur.at.Sub(p.prev.at)) / float64(sim.Millisecond) }),
		phaseCol("resp", "%.0f", func(p chaosPhase) float64 { return float64(p.cur.resp - p.prev.resp) }),
		phaseCol("goodputGbps", "%.2f", func(p chaosPhase) float64 {
			if span := p.cur.at.Sub(p.prev.at); span > 0 {
				return float64(p.cur.rxBytes-p.prev.rxBytes) * 8 * float64(sim.Second) / float64(span) / 1e9
			}
			return 0
		}),
		phaseCol("p99us", "%.2f", func(p chaosPhase) float64 { return p.cur.p99.Microseconds() }),
		phaseCol("p999us", "%.2f", func(p chaosPhase) float64 { return p.cur.p999.Microseconds() }),
		phaseCol("retries", "%.0f", func(p chaosPhase) float64 { return float64(p.cur.retries - p.prev.retries) }),
		phaseCol("sheds", "%.0f", func(p chaosPhase) float64 { return float64(p.cur.sheds - p.prev.sheds) }),
		{"ttrus", func(r *run) string {
			switch p := r.part.(chaosPhase); {
			case p.label != "recover":
				return "-"
			case p.ttrUS >= 0:
				return fmt.Sprintf("%.1f", p.ttrUS)
			default:
				return "inf"
			}
		}},
	},
}

func phaseCol(head, format string, m func(chaosPhase) float64) col {
	return num(head, format, func(r *run) float64 { return m(r.part.(chaosPhase)) })
}

// chaosSegment is one statically-known timeline span.
type chaosSegment struct {
	label      string
	start, end sim.Time
}

// chaosSegments cuts [0, end-of-last-fault] at every phase boundary
// and labels each span by the fault(s) active in it.
func chaosSegments(tl []fault.Phase) []chaosSegment {
	bset := map[sim.Time]bool{0: true}
	for _, p := range tl {
		bset[p.Start] = true
		bset[p.Start.Add(p.Duration)] = true
	}
	times := make([]sim.Time, 0, len(bset))
	for t := range bset {
		times = append(times, t)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	segs := make([]chaosSegment, 0, len(times)-1)
	for i := 0; i+1 < len(times); i++ {
		seg := chaosSegment{start: times[i], end: times[i+1]}
		var active []string
		for _, p := range tl {
			if p.Start <= seg.start && seg.start < p.Start.Add(p.Duration) {
				active = append(active, p.Layer+"/"+p.Kind)
			}
		}
		switch {
		case len(active) > 0:
			seg.label = strings.Join(active, "+")
		case i == 0:
			seg.label = "pre"
		default:
			seg.label = "calm"
		}
		segs = append(segs, seg)
	}
	return segs
}

// chaosSnap is one cumulative-counter + window-histogram snapshot.
type chaosSnap struct {
	at      sim.Time
	resp    uint64
	rxBytes uint64
	retries uint64
	sheds   uint64
	count   uint64
	p99     sim.Duration
	p999    sim.Duration
}

// chaosProbe samples the live cluster at phase boundaries and recovery
// windows, resetting the shared window histogram at every cut so each
// span's percentiles cover that span alone.
type chaosProbe struct {
	cl   *idio.Cluster
	hist *stats.Histogram
	segs []chaosSegment
	// cuts end the timeline segments; windows are the recovery
	// windows after the last fault, the last of them the recovered one
	// when recoveredAt >= 0.
	cuts, windows []chaosSnap
	faultEnd      sim.Time
	recoveredAt   sim.Time
}

// chaosPhase is one row: the span from prev to cur. ttrUS is the
// recover row's time-to-recover, -1 elsewhere or when recovery was
// never observed.
type chaosPhase struct {
	label     string
	prev, cur chaosSnap
	ttrUS     float64
}

// armChaos schedules the probe's cuts on cl: one at the end of every
// timeline segment, then, from the last fault clearing, one every
// chaosRecoverWindow until the windowed p99 returns within
// chaosEpsilon of the pre-fault baseline (cuts[0], the "pre" segment).
func armChaos(cl *idio.Cluster, hist *stats.Histogram) *chaosProbe {
	pr := &chaosProbe{cl: cl, hist: hist, segs: chaosSegments(chaosTimeline), recoveredAt: -1}
	for _, seg := range pr.segs {
		cl.Sim.AtNamed(seg.end, "chaos-cut", func(sm *sim.Simulator) {
			pr.cuts = append(pr.cuts, pr.snap(sm.Now()))
			pr.hist.Reset()
		})
	}
	pr.faultEnd = pr.segs[len(pr.segs)-1].end
	var recoverEv func(sm *sim.Simulator)
	recoverEv = func(sm *sim.Simulator) {
		w := pr.snap(sm.Now())
		pr.windows = append(pr.windows, w)
		pr.hist.Reset()
		base := pr.cuts[0].p99
		limit := base + sim.Duration(float64(base)*chaosEpsilon)
		if w.count > 0 && base > 0 && w.p99 <= limit {
			pr.recoveredAt = sm.Now()
			return
		}
		if len(pr.windows) >= chaosMaxWindows {
			return
		}
		for _, c := range cl.Clients {
			if c.Done() {
				return
			}
		}
		sm.After(chaosRecoverWindow, recoverEv)
	}
	cl.Sim.AtNamed(pr.faultEnd.Add(chaosRecoverWindow), "chaos-recover", recoverEv)
	return pr
}

func (pr *chaosProbe) snap(at sim.Time) chaosSnap {
	s := chaosSnap{at: at, count: pr.hist.Count()}
	if s.count > 0 {
		s.p99 = pr.hist.Quantile(0.99)
		s.p999 = pr.hist.Quantile(0.999)
	}
	for _, c := range pr.cl.Clients {
		st := c.Stats()
		s.resp += st.Responses
		s.retries += st.Retries
		s.rxBytes += c.RxBytes()
	}
	s.sheds += pr.cl.DUT.NIC.Stats().AdmissionDrops
	links := []*fnet.Link{pr.cl.ServerDown, pr.cl.ServerUp}
	links = append(links, pr.cl.ClientUp...)
	for _, l := range pr.cl.ClientDown {
		if l != nil {
			links = append(links, l)
		}
	}
	for _, l := range links {
		s.sheds += l.Stats().AQMDrops
	}
	return s
}

// phases are the finished run's rows: one per cut segment, then the
// recover row, spanning from the last fault clearing to the last
// recovery window (the recovered one, or the last observed).
func (pr *chaosProbe) phases() []any {
	var rows []any
	prev := chaosSnap{}
	for i, seg := range pr.segs {
		if i >= len(pr.cuts) {
			break
		}
		rows = append(rows, chaosPhase{seg.label, prev, pr.cuts[i], -1})
		prev = pr.cuts[i]
	}
	if len(pr.windows) > 0 {
		row := chaosPhase{"recover", prev, pr.windows[len(pr.windows)-1], -1}
		if pr.recoveredAt >= 0 {
			row.ttrUS = sim.Duration(pr.recoveredAt.Sub(pr.faultEnd)).Microseconds()
		}
		rows = append(rows, row)
	}
	return rows
}

package experiment

import (
	"fmt"
	"sort"
	"strings"

	"idio"
	"idio/internal/apps"
	idiocore "idio/internal/core"
	"idio/internal/fault"
	fnet "idio/internal/net"
	"idio/internal/sim"
	"idio/internal/stats"
)

// ChaosRow is one phase of the chaos-and-recovery run for one policy:
// the RPC workload's behaviour while a scheduled fault was (or was
// not) active, measured at the clients. The final "recover" row
// carries the time-to-recover: how long after the last fault cleared
// the windowed p99 first returned within epsilon of the pre-fault
// baseline.
type ChaosRow struct {
	Policy idiocore.Policy
	// Phase labels the timeline segment: "pre", the active fault's
	// layer/kind, "calm" between faults, or "recover".
	Phase   string
	StartMS float64
	DurMS   float64

	Responses   uint64
	GoodputGbps float64
	P99US       float64
	P999US      float64
	// Retries counts backoff retransmissions issued during the phase;
	// Sheds counts load intentionally dropped by the AQM and the DUT
	// admission watermark.
	Retries uint64
	Sheds   uint64
	// TTRUS is set on the "recover" row only: microseconds from the
	// last fault clearing to the end of the first recovered window
	// (-1 elsewhere, and when recovery was never observed).
	TTRUS float64
}

// ChaosOpts parameterises the chaos experiment.
type ChaosOpts struct {
	// Cores is the DUT core count (one echoing L2Fwd NF per core);
	// Clients closed-loop RPC clients round-robin over them.
	Cores   int
	Clients int
	// Link is the per-hop fabric link template; AQMTarget/AQMInterval
	// within it enable CoDel-style shedding on every hop.
	Link     fnet.LinkConfig
	FrameLen int
	// Requests is the per-client budget; Window the per-client
	// closed-loop outstanding count.
	Requests uint64
	Window   int
	// Timeout bounds the per-attempt response wait.
	Timeout sim.Duration
	// Retry is the clients' backoff discipline; client i is seeded
	// Retry.Seed+i so retries do not phase-lock.
	Retry fnet.RetryConfig
	// AdmissionWatermark enables DUT load-shedding at this RX-ring
	// occupancy (0 disables).
	AdmissionWatermark int
	// Timeline is the scripted fault schedule. It should leave an
	// unfaulted warmup before the first phase: that span is the
	// recovery baseline.
	Timeline []fault.Phase
	// RecoverWindow is the width of the post-fault measurement windows;
	// recovery is declared at the first window whose p99 is within
	// Epsilon (relative) of the pre-fault baseline p99, checking at
	// most MaxRecoverWindows windows.
	RecoverWindow     sim.Duration
	MaxRecoverWindows int
	Epsilon           float64
	Horizon           sim.Duration
	// RingSize/MLCSize/LLCSize scale the DUT (0 = defaults).
	RingSize int
	MLCSize  int
	LLCSize  int
	// Parallelism bounds the worker pool (0 = GOMAXPROCS, 1 = serial).
	Parallelism int
}

// DefaultChaosOpts scripts three transient faults against a two-core
// DUT under steady closed-loop load: a 4x bandwidth degradation of the
// server downlink, a NIC DMA stall, and a DRAM latency spike, with
// AQM, admission control, and client backoff all engaged.
func DefaultChaosOpts() ChaosOpts {
	return ChaosOpts{
		Cores:   2,
		Clients: 2,
		Link: fnet.LinkConfig{
			RateBps:     100e9,
			Delay:       2 * sim.Microsecond,
			AQMTarget:   20 * sim.Microsecond,
			AQMInterval: 100 * sim.Microsecond,
		},
		FrameLen: 1514,
		Requests: 20000,
		Window:   32,
		Timeout:  200 * sim.Microsecond,
		Retry: fnet.RetryConfig{
			MaxRetries: 3,
			Backoff:    50 * sim.Microsecond,
			MaxBackoff: 400 * sim.Microsecond,
			JitterFrac: 0.25,
			Seed:       42,
		},
		AdmissionWatermark: 48,
		Timeline: []fault.Phase{
			{Layer: "fabric", Kind: "degrade", Start: sim.Time(1 * sim.Millisecond), Duration: 1 * sim.Millisecond, Magnitude: 0.02, Target: 0},
			{Layer: "nic", Kind: "dma-stall", Start: sim.Time(3 * sim.Millisecond), Duration: 300 * sim.Microsecond, Target: 0},
			{Layer: "dram", Kind: "spike", Start: sim.Time(4 * sim.Millisecond), Duration: 500 * sim.Microsecond, Magnitude: 2000},
			{Layer: "core", Kind: "stall", Start: sim.Time(5 * sim.Millisecond), Duration: 300 * sim.Microsecond, Target: 0},
		},
		RecoverWindow:     250 * sim.Microsecond,
		MaxRecoverWindows: 40,
		Epsilon:           0.5,
		Horizon:           40 * sim.Millisecond,
		RingSize:          1024,
	}
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
	for _, port := range pr.cl.DUT.Ports() {
		s.sheds += port.Stats().AdmissionDrops
	}
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

// cut snapshots the current span and starts the next one.
func (pr *chaosProbe) cut(at sim.Time, out *[]chaosSnap) {
	*out = append(*out, pr.snap(at))
	pr.hist.Reset()
}

// row derives the phase row spanning prev → cur.
func chaosRowFrom(pol idiocore.Policy, label string, prev, cur chaosSnap) ChaosRow {
	row := ChaosRow{
		Policy:    pol,
		Phase:     label,
		StartMS:   float64(prev.at) / float64(sim.Millisecond),
		DurMS:     float64(cur.at.Sub(sim.Time(prev.at))) / float64(sim.Millisecond),
		Responses: cur.resp - prev.resp,
		Retries:   cur.retries - prev.retries,
		Sheds:     cur.sheds - prev.sheds,
		P99US:     cur.p99.Microseconds(),
		P999US:    cur.p999.Microseconds(),
		TTRUS:     -1,
	}
	if span := cur.at.Sub(prev.at); span > 0 {
		row.GoodputGbps = float64(cur.rxBytes-prev.rxBytes) * 8 * float64(sim.Second) / float64(span) / 1e9
	}
	return row
}

// runChaosCell runs the scripted timeline against one policy and
// reports one row per timeline segment plus the recovery row.
func runChaosCell(opts ChaosOpts, pol idiocore.Policy) []ChaosRow {
	ccfg := idio.DefaultClusterConfig(opts.Cores, opts.Clients)
	ccfg.ClientLink = opts.Link
	ccfg.ServerLink = opts.Link
	ccfg.Host.Policy = pol
	ccfg.Host.Hier.LLCSize = 3 << 20
	if opts.RingSize > 0 {
		ccfg.Host.NIC.RingSize = opts.RingSize
	}
	if opts.MLCSize > 0 {
		ccfg.Host.Hier.MLCSize = opts.MLCSize
	}
	if opts.LLCSize > 0 {
		ccfg.Host.Hier.LLCSize = opts.LLCSize
	}
	ccfg.Host.NIC.AdmissionWatermark = opts.AdmissionWatermark
	ccfg.Host.Faults = &fault.Config{Timeline: opts.Timeline}
	wd := sim.DefaultWatchdogConfig()
	ccfg.Host.Watchdog = &wd
	cl, err := idio.NewCluster(ccfg)
	if err != nil {
		panic(err)
	}
	for core := 0; core < opts.Cores; core++ {
		cl.DUT.AddNF(core, apps.L2Fwd{}, cl.DUT.DefaultFlow(core))
	}

	probe := &chaosProbe{cl: cl, hist: stats.NewHistogram(5)}
	for i := 0; i < opts.Clients; i++ {
		core := i % opts.Cores
		retry := opts.Retry
		retry.Seed += int64(i)
		ccfg := fnet.ClientConfig{
			Mode:        fnet.ModeClosed,
			Outstanding: opts.Window,
			Requests:    opts.Requests,
			Timeout:     opts.Timeout,
			Hist:        probe.hist,
			Retry:       &retry,
		}
		ccfg.Flow = cl.ClientFlow(i, core)
		if opts.FrameLen > 0 {
			ccfg.Flow.FrameLen = opts.FrameLen
		}
		cl.AddRPCClient(i, core, ccfg)
	}

	// Phase-boundary cuts end each timeline segment; the series of
	// snapshots turns into per-phase rows after the run.
	segs := chaosSegments(opts.Timeline)
	var cuts []chaosSnap
	for _, seg := range segs {
		end := seg.end
		cl.Sim.AtNamed(end, "chaos-cut", func(sm *sim.Simulator) {
			probe.cut(sm.Now(), &cuts)
		})
	}

	// Recovery windows: after the last fault clears, keep cutting every
	// RecoverWindow until the windowed p99 returns within epsilon of
	// the pre-fault baseline (cuts[0], the "pre" segment).
	faultEnd := segs[len(segs)-1].end
	var windows []chaosSnap
	recoveredAt := sim.Time(-1)
	var recoverEv func(sm *sim.Simulator)
	recoverEv = func(sm *sim.Simulator) {
		w := probe.snap(sm.Now())
		windows = append(windows, w)
		probe.hist.Reset()
		base := cuts[0].p99
		limit := base + sim.Duration(float64(base)*opts.Epsilon)
		if w.count > 0 && base > 0 && w.p99 <= limit {
			recoveredAt = sm.Now()
			return
		}
		if len(windows) >= opts.MaxRecoverWindows {
			return
		}
		for _, c := range cl.Clients {
			if c.Done() {
				return
			}
		}
		sm.After(opts.RecoverWindow, recoverEv)
	}
	cl.Sim.AtNamed(faultEnd.Add(opts.RecoverWindow), "chaos-recover", recoverEv)

	// Mirror the recovery verdict into the obs registry so metric CSV /
	// JSON outputs of chaos runs carry it alongside the shed and retry
	// counters the components register themselves.
	reg := cl.DUT.Observe().Registry()
	reg.GaugeFunc("chaos.ttr_us", func() float64 {
		if recoveredAt < 0 {
			return -1
		}
		return sim.Duration(recoveredAt.Sub(faultEnd)).Microseconds()
	})
	reg.GaugeFunc("chaos.timeline_segments", func() float64 { return float64(len(segs)) })

	cl.Run(idio.RunOpts{Horizon: opts.Horizon, UntilIdle: true})

	rows := make([]ChaosRow, 0, len(segs)+1)
	prev := chaosSnap{}
	for i, seg := range segs {
		if i >= len(cuts) {
			break
		}
		rows = append(rows, chaosRowFrom(pol, seg.label, prev, cuts[i]))
		prev = cuts[i]
	}
	// The recover row spans from the last fault clearing to the first
	// recovered window (percentiles are that window's); TTR is its
	// duration. Unrecovered runs report the full observed span, TTR -1.
	if len(windows) > 0 {
		last := windows[len(windows)-1]
		row := chaosRowFrom(pol, "recover", prev, last)
		row.P99US = last.p99.Microseconds()
		row.P999US = last.p999.Microseconds()
		if recoveredAt >= 0 {
			row.TTRUS = sim.Duration(recoveredAt.Sub(faultEnd)).Microseconds()
		}
		rows = append(rows, row)
	}
	return rows
}

// Chaos runs the scripted fault timeline for DDIO and IDIO, each an
// independent cluster, fanned out over the worker pool. Row order is
// fixed (policy-major, timeline order) regardless of parallelism.
func Chaos(opts ChaosOpts) []ChaosRow {
	policies := []idiocore.Policy{idiocore.PolicyDDIO, idiocore.PolicyIDIO}
	per := RunCells(opts.Parallelism, policies, func(pol idiocore.Policy) []ChaosRow {
		return runChaosCell(opts, pol)
	})
	var rows []ChaosRow
	for _, rs := range per {
		rows = append(rows, rs...)
	}
	return rows
}

// ChaosHeader describes the table columns.
func ChaosHeader() []string {
	return []string{"policy", "phase", "startms", "durms", "resp", "goodputGbps", "p99us", "p999us", "retries", "sheds", "ttrus"}
}

// Row renders one phase row.
func (r ChaosRow) Row() []string {
	ttr := "-"
	if r.Phase == "recover" {
		if r.TTRUS >= 0 {
			ttr = fmt.Sprintf("%.1f", r.TTRUS)
		} else {
			ttr = "inf"
		}
	}
	return []string{
		r.Policy.Name(),
		r.Phase,
		fmt.Sprintf("%.2f", r.StartMS),
		fmt.Sprintf("%.2f", r.DurMS),
		fmt.Sprintf("%d", r.Responses),
		fmt.Sprintf("%.2f", r.GoodputGbps),
		fmt.Sprintf("%.2f", r.P99US),
		fmt.Sprintf("%.2f", r.P999US),
		fmt.Sprintf("%d", r.Retries),
		fmt.Sprintf("%d", r.Sheds),
		ttr,
	}
}

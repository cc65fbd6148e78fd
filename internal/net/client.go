package net

import (
	"errors"
	"fmt"
	"math/rand"

	"idio/internal/flow"
	"idio/internal/obs"
	"idio/internal/pkt"
	"idio/internal/sim"
	"idio/internal/stats"
	"idio/internal/traffic"
)

// Mode selects how a Client offers load.
type Mode int

const (
	// ModeOpen issues requests at a fixed rate regardless of responses
	// (like traffic.Steady, but through the fabric and response-aware).
	ModeOpen Mode = iota
	// ModeClosed keeps a fixed number of requests outstanding: each
	// response (or timeout) triggers the next request, so offered load
	// reacts to service latency — the classic closed-loop client.
	ModeClosed
)

func (m Mode) String() string {
	switch m {
	case ModeOpen:
		return "open"
	case ModeClosed:
		return "closed"
	default:
		return "unknown"
	}
}

// DefaultTimeout bounds how long a client waits for a response to an
// attempt before retrying or abandoning the request.
const DefaultTimeout = sim.Duration(1) * sim.Millisecond

// RetryConfig is a client's retry discipline: a timed-out request is
// retransmitted with exponential backoff and deterministic jitter, up
// to a per-request retry budget. The zero value makes one attempt per
// request: a timeout abandons the request (Failed) and, in closed
// mode, frees its window slot for a new one. Every attempt — original
// or retry — carries a unique wire sequence number, so a response is
// always matched to the exact attempt that elicited it (Karn's rule:
// no retransmission ambiguity in the latency samples) and late
// responses to superseded attempts fall through to Late.
type RetryConfig struct {
	// MaxRetries bounds retransmissions per request beyond the first
	// attempt; a request whose budget is spent is abandoned (Failed).
	MaxRetries int
	// Backoff is the delay before the first retry; it doubles per
	// subsequent retry. 0 means the client's Timeout.
	Backoff sim.Duration
	// MaxBackoff caps the doubled delay. 0 means 8x Backoff.
	MaxBackoff sim.Duration
	// JitterFrac scales each backoff by a deterministic factor drawn
	// uniformly from [1-JitterFrac, 1+JitterFrac); 0 disables jitter.
	// Must be in [0,1).
	JitterFrac float64
	// Seed drives the jitter PRNG. Equal seeds give bit-identical
	// backoff schedules; give concurrent clients distinct seeds so
	// their retries do not phase-lock.
	Seed int64
}

// Validate checks the retry parameters.
func (r *RetryConfig) Validate() error {
	if r == nil {
		return nil
	}
	var errs []error
	if r.MaxRetries < 0 {
		errs = append(errs, fmt.Errorf("net: retry MaxRetries %d must be >= 0", r.MaxRetries))
	}
	if r.Backoff < 0 {
		errs = append(errs, fmt.Errorf("net: retry Backoff %v must be >= 0", r.Backoff))
	}
	if r.MaxBackoff < 0 {
		errs = append(errs, fmt.Errorf("net: retry MaxBackoff %v must be >= 0", r.MaxBackoff))
	}
	if r.JitterFrac < 0 || r.JitterFrac >= 1 {
		errs = append(errs, fmt.Errorf("net: retry JitterFrac %v outside [0,1)", r.JitterFrac))
	}
	return errors.Join(errs...)
}

// ClientConfig describes one RPC client.
type ClientConfig struct {
	// Flow is the request template: Src must be the client's address
	// (the switch routes responses back by it), Dst the server's.
	Flow traffic.Flow
	Mode Mode
	// RateBps is the offered rate for ModeOpen.
	RateBps int64
	// Outstanding is the closed-loop window (ModeClosed).
	Outstanding int
	// Requests bounds the run: total requests this client issues.
	Requests uint64
	// Start delays the first request.
	Start sim.Time
	// Timeout bounds the wait per attempt; 0 means DefaultTimeout. A
	// request whose attempts all time out is retried or abandoned, so
	// lost packets cannot deadlock the window.
	Timeout sim.Duration
	// Hist, when non-nil, additionally records every response latency
	// into this caller-owned histogram (a probe's per-phase window,
	// say). Each client always keeps its own histogram; cluster
	// aggregates are merged from those.
	Hist *stats.Histogram
	// Retry is the retry policy (see RetryConfig); nil means the zero
	// policy: one attempt per request.
	Retry *RetryConfig
}

// ClientStats summarises one client's run.
type ClientStats struct {
	Issued    uint64
	Responses uint64
	// Timeouts counts attempts that hit the response deadline; Late
	// counts responses that arrived after their attempt timed out
	// (recorded in neither latency nor goodput).
	Timeouts uint64
	Late     uint64
	// Retries counts backoff retransmissions, and Failed requests
	// abandoned after the retry budget was spent. Once drained, Issued
	// == Responses + Failed.
	Retries uint64
	Failed  uint64
	// GoodputBps is response payload bits per second of wall time from
	// first request sent to last response received.
	GoodputBps float64
	P50        sim.Duration
	P99        sim.Duration
	P999       sim.Duration
}

// Client is one simulated client host: a lightweight request issuer
// (no cache hierarchy) driving requests up its attached link and
// matching responses by sequence number.
type Client struct {
	cfg  ClientConfig
	up   *Link
	hist *stats.Histogram

	// tmpl is the request flow's prebuilt frame; pool recycles request
	// packets (the uplink's pool when one is installed, else private).
	tmpl *pkt.Template
	pool *pkt.Pool
	// sendPacedFn is the open-loop pacing event, bound once so
	// rescheduling allocates nothing.
	sendPacedFn sim.Event

	// inflight maps wire sequence numbers to their attempt. Every
	// attempt (original or retry) gets a fresh wire seq from
	// nextSeq, so responses match the exact attempt that elicited
	// them. Both tables are compact open-addressing flow tables, not Go
	// maps: inline slots, deterministic layout, zero steady-state
	// allocations — the representation that scales to the million-flow
	// engine.
	inflight *flow.Table[attempt]
	// reqs tracks open (unanswered, unabandoned) requests.
	reqs    *flow.Table[reqState]
	rng     *rand.Rand // backoff jitter
	nextSeq uint64

	issued   uint64
	resp     uint64
	timeouts uint64
	late     uint64
	retries  uint64
	failed   uint64
	rxBytes  uint64

	firstSend sim.Time
	lastResp  sim.Time
	sentAny   bool
	started   bool
}

// attempt is one wire transmission awaiting a response or timeout.
type attempt struct {
	req  uint64 // owning request id
	sent sim.Time
}

// reqState tracks one open request. A request has at most one attempt
// in flight: a retry goes out only after the previous attempt timed
// out, so an attempt in flight always belongs to an open request.
type reqState struct {
	retries int32 // backoff retransmissions issued so far
}

// NewClient builds a client sending requests into up. The flow
// template is validated eagerly so a malformed config fails at build
// time, not mid-run.
func NewClient(cfg ClientConfig, up *Link) *Client {
	if up == nil {
		panic("net: client needs an uplink")
	}
	if cfg.Requests == 0 {
		panic("net: client needs a request budget")
	}
	if cfg.Flow.FrameLen == 0 {
		cfg.Flow.FrameLen = pkt.MTUFrameLen
	}
	tmpl, err := cfg.Flow.Template()
	if err != nil {
		panic(fmt.Sprintf("net: client flow: %v", err))
	}
	switch cfg.Mode {
	case ModeOpen:
		if cfg.RateBps <= 0 {
			panic("net: open-loop client needs RateBps")
		}
	case ModeClosed:
		if cfg.Outstanding <= 0 {
			panic("net: closed-loop client needs Outstanding")
		}
	default:
		panic(fmt.Sprintf("net: unknown client mode %d", cfg.Mode))
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	// Resolve defaults on a copy so the caller's struct (possibly
	// shared across clients) is untouched.
	var r RetryConfig
	if cfg.Retry != nil {
		if err := cfg.Retry.Validate(); err != nil {
			panic(fmt.Sprintf("net: client retry: %v", err))
		}
		r = *cfg.Retry
	}
	if r.Backoff <= 0 {
		r.Backoff = cfg.Timeout
	}
	if r.MaxBackoff <= 0 {
		r.MaxBackoff = 8 * r.Backoff
	}
	cfg.Retry = &r
	return &Client{
		cfg:      cfg,
		up:       up,
		tmpl:     tmpl,
		hist:     stats.NewHistogram(5),
		inflight: flow.New[attempt](cfg.Outstanding),
		reqs:     flow.New[reqState](cfg.Outstanding),
		rng:      rand.New(rand.NewSource(r.Seed)),
	}
}

// Flow returns the client's request flow template.
func (c *Client) Flow() traffic.Flow { return c.cfg.Flow }

// Start schedules the client's first request(s). Call once.
func (c *Client) Start(s *sim.Simulator) {
	if c.started {
		panic("net: client already started")
	}
	c.started = true
	c.sendPacedFn = c.sendPaced
	// Draw request packets from the uplink's pool when the fabric
	// installed one (central recycling/accounting), else a private one.
	if c.pool = c.up.PacketPool(); c.pool == nil {
		c.pool = pkt.NewPool(c.tmpl.FrameLen())
	}
	s.AtNamed(c.cfg.Start, "client-start", func(sm *sim.Simulator) {
		switch c.cfg.Mode {
		case ModeClosed:
			// Fill the window back-to-back; the uplink serializes.
			w := uint64(c.cfg.Outstanding)
			if w > c.cfg.Requests {
				w = c.cfg.Requests
			}
			for i := uint64(0); i < w; i++ {
				c.send(sm)
			}
		default:
			c.sendPaced(sm)
		}
	})
}

// sendPaced issues one open-loop request and schedules the next.
func (c *Client) sendPaced(s *sim.Simulator) {
	c.send(s)
	if c.issued < c.cfg.Requests {
		s.After(traffic.InterArrival(c.cfg.RateBps, c.cfg.Flow.FrameLen), c.sendPacedFn)
	}
}

// send issues one new request (consuming request budget) and its first
// attempt. The request frame is a recycled pool packet stamped from
// the flow template, so steady-state issue allocates nothing.
func (c *Client) send(s *sim.Simulator) {
	req := c.issued
	c.issued++
	c.reqs.Put(req, reqState{})
	c.sendAttempt(s, req)
}

// sendAttempt puts one attempt for req on the wire and arms its
// timeout. Every attempt draws a fresh wire sequence number so
// responses are matched to the exact transmission that elicited them.
func (c *Client) sendAttempt(s *sim.Simulator, req uint64) {
	w := c.nextSeq
	c.nextSeq++
	p := c.pool.Get(c.tmpl.FrameLen())
	c.tmpl.Stamp(p, w)
	now := s.Now()
	if !c.sentAny {
		c.sentAny = true
		c.firstSend = now
	}
	s.AfterArg(c.cfg.Timeout, clientTimeoutEv, sim.Arg{Obj: c, U0: w})
	c.inflight.Put(w, attempt{req: req, sent: now})
	c.up.Receive(s, p)
}

// backoff returns the jittered delay before retry n (n >= 1):
// exponential from Retry.Backoff, capped at Retry.MaxBackoff, scaled
// by a deterministic factor from [1-JitterFrac, 1+JitterFrac).
func (c *Client) backoff(n int) sim.Duration {
	r := c.cfg.Retry
	d := r.Backoff
	for i := 1; i < n && d < r.MaxBackoff; i++ {
		d *= 2
	}
	if d > r.MaxBackoff {
		d = r.MaxBackoff
	}
	if r.JitterFrac > 0 {
		d = sim.Duration(float64(d) * (1 - r.JitterFrac + 2*r.JitterFrac*c.rng.Float64()))
	}
	if d < 1 {
		d = 1
	}
	return d
}

// clientTimeoutEv fires at an attempt's response deadline. Either a
// backoff retransmission is scheduled or — budget spent — the request
// is abandoned as Failed and, in closed mode, its window slot issues a
// new request so fabric losses cannot stall the loop. Arg.Obj is the *Client, U0 the wire
// sequence number.
func clientTimeoutEv(sm *sim.Simulator, a sim.Arg) {
	c := a.Obj.(*Client)
	w := a.U0
	att, ok := c.inflight.Get(w)
	if !ok {
		return // answered in time
	}
	c.inflight.Delete(w)
	c.timeouts++
	st, _ := c.reqs.Get(att.req)
	if int(st.retries) < c.cfg.Retry.MaxRetries {
		st.retries++
		c.reqs.Put(att.req, st)
		c.retries++
		sm.AfterArg(c.backoff(int(st.retries)), clientRetryEv, sim.Arg{Obj: c, U0: att.req})
		return
	}
	c.reqs.Delete(att.req)
	c.failed++
	if c.cfg.Mode == ModeClosed && c.issued < c.cfg.Requests {
		c.send(sm)
	}
}

// clientRetryEv fires when a request's backoff expires and puts the
// retransmission on the wire. Arg.Obj is the *Client, U0 the request
// id.
func clientRetryEv(sm *sim.Simulator, a sim.Arg) {
	a.Obj.(*Client).sendAttempt(sm, a.U0)
}

// Receive consumes one response from the fabric (implements
// Endpoint). Responses are matched to requests by sequence number.
func (c *Client) Receive(s *sim.Simulator, p *pkt.Packet) {
	att, ok := c.inflight.Get(p.Seq)
	if !ok {
		c.late++ // timed out (or duplicate): not counted as goodput
		p.Release()
		return
	}
	c.inflight.Delete(p.Seq)
	c.reqs.Delete(att.req)
	now := s.Now()
	lat := now.Sub(att.sent)
	c.hist.Record(lat)
	if c.cfg.Hist != nil {
		c.cfg.Hist.Record(lat)
	}
	c.resp++
	c.rxBytes += uint64(p.Len())
	c.lastResp = now
	p.Release() // the response dies here; recycle it
	if c.cfg.Mode == ModeClosed && c.issued < c.cfg.Requests {
		c.send(s)
	}
}

// Done reports whether the client has issued its full budget and has
// no request awaiting a response, retry, or timeout — the fabric idle
// check.
func (c *Client) Done() bool {
	return c.issued >= c.cfg.Requests && c.inflight.Len() == 0 && c.reqs.Len() == 0
}

// Issued returns requests sent so far.
func (c *Client) Issued() uint64 { return c.issued }

// Responses returns responses matched so far.
func (c *Client) Responses() uint64 { return c.resp }

// RxBytes returns response bytes received (matched responses only).
func (c *Client) RxBytes() uint64 { return c.rxBytes }

// FirstSend and LastResp bracket the client's active span.
func (c *Client) FirstSend() sim.Time { return c.firstSend }

// LastResp returns when the last matched response arrived.
func (c *Client) LastResp() sim.Time { return c.lastResp }

// Hist exposes the client's private latency histogram.
func (c *Client) Hist() *stats.Histogram { return c.hist }

// Stats summarises the run so far.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Issued:     c.issued,
		Responses:  c.resp,
		Timeouts:   c.timeouts,
		Late:       c.late,
		Retries:    c.retries,
		Failed:     c.failed,
		GoodputBps: goodputBps(c.rxBytes, c.firstSend, c.lastResp),
		P50:        c.hist.Quantile(0.50),
		P99:        c.hist.Quantile(0.99),
		P999:       c.hist.Quantile(0.999),
	}
}

// GoodputBps converts bytes received over a [first,last] span to bits
// per second (0 when the span is empty) — the goodput definition every
// client and aggregate summary shares.
func GoodputBps(bytes uint64, first, last sim.Time) float64 {
	return goodputBps(bytes, first, last)
}

// goodputBps converts bytes over a [first,last] span to bits/second.
func goodputBps(bytes uint64, first, last sim.Time) float64 {
	span := last.Sub(first)
	if span <= 0 {
		return 0
	}
	return float64(bytes) * 8 * float64(sim.Second) / float64(span)
}

// RegisterMetrics registers the client's counters under prefix (e.g.
// "rpc.c0.") into the observability registry.
func (c *Client) RegisterMetrics(reg *obs.Registry, prefix string) {
	reg.CounterFunc(prefix+"issued", func() uint64 { return c.issued })
	reg.CounterFunc(prefix+"responses", func() uint64 { return c.resp })
	reg.CounterFunc(prefix+"timeouts", func() uint64 { return c.timeouts })
	reg.CounterFunc(prefix+"late", func() uint64 { return c.late })
	reg.CounterFunc(prefix+"retries", func() uint64 { return c.retries })
	reg.CounterFunc(prefix+"failed", func() uint64 { return c.failed })
	reg.GaugeFunc(prefix+"goodput_gbps", func() float64 {
		return goodputBps(c.rxBytes, c.firstSend, c.lastResp) / 1e9
	})
	reg.GaugeFunc(prefix+"p50_us", func() float64 { return c.hist.Quantile(0.50).Microseconds() })
	reg.GaugeFunc(prefix+"p99_us", func() float64 { return c.hist.Quantile(0.99).Microseconds() })
	reg.GaugeFunc(prefix+"p999_us", func() float64 { return c.hist.Quantile(0.999).Microseconds() })
}

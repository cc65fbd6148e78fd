package net

import (
	"testing"
	"unsafe"

	"idio/internal/flow"
	"idio/internal/pkt"
	"idio/internal/sim"
)

// churnHarness wires a churn client to a loopback echo through a pair
// of fast links and runs it until the horizon.
func churnHarness(t *testing.T, cfg ChurnConfig, echo func(reply *Link) Endpoint) *ChurnClient {
	t.Helper()
	s := sim.New()
	var srv endpointHolder
	up := NewLink(LinkConfig{Name: "up", RateBps: 100e9, Delay: sim.Microsecond}, &srv)
	cfg.Flow = testFlow(1514)
	c := NewChurnClient(s, cfg, up)
	down := NewLink(LinkConfig{Name: "down", RateBps: 100e9, Delay: sim.Microsecond}, c)
	srv.ep = echo(down)
	c.Start(s)
	s.RunUntil(sim.Time(200 * sim.Millisecond))
	return c
}

// endpointHolder lets the echo be built after the uplink (which needs
// an endpoint at construction).
type endpointHolder struct{ ep Endpoint }

func (h *endpointHolder) Receive(s *sim.Simulator, p *pkt.Packet) { h.ep.Receive(s, p) }

// TestChurnLoopback drains a lossless churn run and checks the
// conservation laws: the full budget issues and is answered, every
// arrived flow eventually departs, the wheel accounts for every
// deadline it armed, and the whole run replays bit-identically.
func TestChurnLoopback(t *testing.T) {
	run := func() (ChurnStats, sim.Time) {
		c := churnHarness(t, ChurnConfig{
			Flows: 64, Requests: 512, Think: 50 * sim.Microsecond, Seed: 5,
		}, func(reply *Link) Endpoint {
			return &echoEndpoint{reply: reply}
		})
		if !c.Done() {
			t.Fatalf("churn not drained: issued=%d resp=%d active=%d",
				c.Issued(), c.Responses(), c.Table().Len())
		}
		return c.Stats(), c.LastResp()
	}
	st, last := run()
	if st.Issued != 512 || st.Responses != 512 || st.Timeouts != 0 || st.Late != 0 {
		t.Fatalf("issued=%d resp=%d timeouts=%d late=%d; want 512/512/0/0",
			st.Issued, st.Responses, st.Timeouts, st.Late)
	}
	if st.Arrivals != st.Departures {
		t.Fatalf("drained run must balance arrivals (%d) and departures (%d)",
			st.Arrivals, st.Departures)
	}
	if st.Arrivals < 64 {
		t.Fatalf("arrivals %d never replaced the initial population", st.Arrivals)
	}
	if st.ActiveFlows != 0 {
		t.Fatalf("drained run left %d resident flows", st.ActiveFlows)
	}
	if st.Wheel.Fired+st.Wheel.Canceled != st.Wheel.Armed {
		t.Fatalf("wheel leaked deadlines: %+v", st.Wheel)
	}
	st2, last2 := run()
	if st != st2 || last != last2 {
		t.Fatalf("same seed diverged:\n%+v @ %v\n%+v @ %v", st, last, st2, last2)
	}
}

// dropNthEcho answers requests through reply but silently drops every
// nth one — the lossy server that forces the timeout/resend path.
type dropNthEcho struct {
	reply *Link
	n     uint64
	seen  uint64
}

func (e *dropNthEcho) Receive(s *sim.Simulator, p *pkt.Packet) {
	e.seen++
	if e.seen%e.n == 0 {
		p.Release()
		return
	}
	e.reply.Receive(s, pkt.EchoResponse(p))
}

// TestChurnTimeoutResend drops every 8th request and checks that each
// loss times out on the wheel, is resent under a fresh attempt number,
// and the run still drains with the budget fully issued.
func TestChurnTimeoutResend(t *testing.T) {
	c := churnHarness(t, ChurnConfig{
		Flows: 32, Requests: 512,
		Think: 50 * sim.Microsecond, Timeout: 200 * sim.Microsecond, Seed: 9,
	}, func(reply *Link) Endpoint {
		return &dropNthEcho{reply: reply, n: 8}
	})
	if !c.Done() {
		t.Fatalf("lossy churn not drained: issued=%d resp=%d active=%d",
			c.Issued(), c.Responses(), c.Table().Len())
	}
	st := c.Stats()
	if st.Issued != 512 {
		t.Fatalf("issued %d of 512 budget", st.Issued)
	}
	wantDropped := st.Issued / 8
	if st.Timeouts != wantDropped {
		t.Fatalf("timeouts %d, want one per dropped request (%d)", st.Timeouts, wantDropped)
	}
	if st.Responses != st.Issued-st.Timeouts {
		t.Fatalf("resp %d + timeouts %d != issued %d", st.Responses, st.Timeouts, st.Issued)
	}
	if st.Late != 0 {
		t.Fatalf("drops cannot produce late responses, got %d", st.Late)
	}
}

// lateEcho answers every request after the client's timeout has
// already fired — every response is superseded by a resend in flight.
type lateEcho struct {
	reply *Link
	delay sim.Duration
}

func (e *lateEcho) Receive(s *sim.Simulator, p *pkt.Packet) {
	r := pkt.EchoResponse(p)
	s.After(e.delay, func(sm *sim.Simulator) {
		e.reply.Receive(sm, r)
	})
}

// TestChurnLateResponse delays every echo past the timeout: each
// response arrives bearing a superseded attempt number and must count
// as late, never be mistaken for the resend that replaced it.
func TestChurnLateResponse(t *testing.T) {
	c := churnHarness(t, ChurnConfig{
		Flows: 8, Requests: 64,
		Think: 50 * sim.Microsecond, Timeout: 100 * sim.Microsecond, Seed: 3,
	}, func(reply *Link) Endpoint {
		return &lateEcho{reply: reply, delay: 500 * sim.Microsecond}
	})
	st := c.Stats()
	if st.Issued != 64 {
		t.Fatalf("issued %d of 64 budget", st.Issued)
	}
	if st.Late == 0 {
		t.Fatal("uniformly late echoes produced no late responses")
	}
	if st.Timeouts == 0 {
		t.Fatal("uniformly late echoes produced no timeouts")
	}
}

// TestChurnFlowLayout pins the million-flow footprint: a resident
// flow is 24 bytes of pointer-free state and its table slot 40 bytes.
func TestChurnFlowLayout(t *testing.T) {
	if sz := unsafe.Sizeof(churnFlow{}); sz != 24 {
		t.Fatalf("churnFlow is %d bytes, want 24", sz)
	}
	if sz := flow.SlotSize[churnFlow](); sz != 40 {
		t.Fatalf("churn flow-table slot is %d bytes, want 40", sz)
	}
}

// tupleEcho checks every request's UDP ports and DSCP against the
// values its flow id determines, then echoes it.
type tupleEcho struct {
	t     *testing.T
	reply *Link
	cfg   ChurnConfig
	seen  int
}

func (e *tupleEcho) Receive(s *sim.Simulator, p *pkt.Packet) {
	fid := p.Seq >> 16
	ip := p.Frame[pkt.EthHeaderLen:]
	udp := ip[pkt.IPv4HeaderLen:]
	src := uint16(udp[0])<<8 | uint16(udp[1])
	dst := uint16(udp[2])<<8 | uint16(udp[3])
	wantSrc := e.cfg.Flow.SrcPort + uint16(fid%uint64(e.cfg.SrcPorts))
	wantDst := e.cfg.Flow.DstPort + uint16(fid/uint64(e.cfg.SrcPorts)%uint64(e.cfg.DstPorts))
	wantDSCP := e.cfg.DSCPs[fid%uint64(len(e.cfg.DSCPs))]
	if src != wantSrc || dst != wantDst || ip[1]>>2 != wantDSCP {
		e.t.Errorf("flow %d sent %d->%d dscp %d, want %d->%d dscp %d",
			fid, src, dst, ip[1]>>2, wantSrc, wantDst, wantDSCP)
	}
	e.seen++
	e.reply.Receive(s, pkt.EchoResponse(p))
}

// TestChurnPerFlowTuple checks that the ports and class derived from
// the flow id at send time are the ones the flow's arrival implies:
// flow i sends from SrcPort+i%SrcPorts to DstPort+(i/SrcPorts)%DstPorts
// with class DSCPs[i%len(DSCPs)], on first sends and resends alike.
func TestChurnPerFlowTuple(t *testing.T) {
	cfg := ChurnConfig{
		Flows: 32, Requests: 400, Think: 20 * sim.Microsecond, Seed: 3,
		SrcPorts: 5, DstPorts: 3, DSCPs: []uint8{0, 34, 46},
	}
	var e *tupleEcho
	c := churnHarness(t, cfg, func(reply *Link) Endpoint {
		full := cfg
		full.Flow = testFlow(1514)
		e = &tupleEcho{t: t, reply: reply, cfg: full}
		return e
	})
	if e.seen != 400 || c.Stats().Arrivals <= 32 {
		t.Fatalf("echo saw %d requests over %d arrivals; want 400 over churned flows", e.seen, c.Stats().Arrivals)
	}
}

// TestChurnWheelSlots pins the derived wheel span: the next power of
// two covering four of the longest mean deadline, within
// [4096, maxChurnWheelSlots].
func TestChurnWheelSlots(t *testing.T) {
	gran := 64 * sim.Microsecond
	for _, tc := range []struct {
		longest sim.Duration
		want    int
	}{
		{sim.Millisecond, 4096},
		{10 * sim.Millisecond, 4096}, // the shipped churn scenario
		{65 * sim.Millisecond, 4096}, // 4062.5 slots
		{66 * sim.Millisecond, 8192},
		{sim.Second, 65536}, // the million-flow benchmark: 62500 slots
		{2 * sim.Second, 131072},
		{100 * sim.Second, maxChurnWheelSlots},
		{sim.Duration(1 << 62), maxChurnWheelSlots},
	} {
		if got := churnWheelSlots(gran, tc.longest); got != tc.want {
			t.Errorf("churnWheelSlots(%v, %v) = %d, want %d", gran, tc.longest, got, tc.want)
		}
	}
}

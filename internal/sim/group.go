package sim

import "fmt"

// A Group steps a set of cursors as one event in the scheduler. A
// cursor is a paced stream whose every step would otherwise be its own
// event — a NIC's DMA line walk, a prefetcher's issue train — and its
// key (at, seq) is the key that event would have: the group runs the
// cursor's step exactly where the kernel would have dispatched it.
//
// A frame of the group (Group.run) repeatedly takes the cursor with the
// smallest key and reaches that key (Simulator.reach): events ordering
// before it run in place, then the step runs. Two cursors of one group
// never nest through the kernel; only foreign events do. The frame
// files an event (a wake) only when the kernel refuses the key — the
// run's bound, an enclosing drain's bound, the nesting limit, or Stop —
// and then at the smallest key, so the executed (at, seq) order is the
// one the streams would produce as separately filed events.
//
// Coverage. Whenever no step is running, the cursor with the smallest
// key is covered: a wake is filed at exactly its key (waked), or a
// frame is suspended in an in-place drain bounded by its key (held).
// Every other cursor orders after it, so whoever steps the smallest
// one steps the rest in order. A cursor started from outside a step
// (Start: a packet arriving, a test hinting a prefetcher) files a wake
// only when its key becomes the uncovered minimum — for instance a
// Receive drained in place while a frame is suspended on a later key.
// A cursor started inside a step files nothing, and neither does the
// next key a step returns: the frame picks both up when the step
// returns. A frame that reaches a waked key consumes the wake
// (Simulator.absorb) instead of leaving it to fire, so every filed wake
// is dispatched or absorbed exactly at its cursor's key.
type Group struct {
	s *Simulator
	// order holds the live cursors in key order, so the smallest key is
	// order[0] and a stepped cursor moves a place or two; its capacity
	// is the number of cursors, so keeping it allocates nothing.
	order  []*Cursor
	n      int
	wakeFn Event
	// stepping is set while a cursor's step runs.
	stepping bool
}

// A Step runs the work due at its cursor's key and returns the
// cursor's next key, or more == false to leave the cursor idle. The
// next key's seq is the seq an event continuing the stream would carry:
// the same seq for a continuation of the running event (a DMA burst's
// next line), a fresh one (Simulator.NextSeq) for work scheduled now (a
// prefetcher's next issue), or one drawn earlier for work queued
// earlier (the next queued burst).
type Step func(s *Simulator) (at Time, seq uint64, more bool)

// A Cursor is one stream of a Group: idle, or live with a key.
type Cursor struct {
	g    *Group
	step Step
	at   Time
	seq  uint64
	live bool
	pos  int // index in Group.order while live
	// waked: a wake is filed at exactly the key. held: a frame is
	// suspended in an in-place drain bounded by the key.
	waked, held bool
}

// NewGroup returns an empty group on s.
func NewGroup(s *Simulator) *Group {
	g := &Group{s: s}
	g.wakeFn = g.wake
	return g
}

// Add registers an idle cursor whose steps run step.
func (g *Group) Add(step Step) *Cursor {
	if step == nil {
		panic("sim: nil cursor step")
	}
	g.n++
	if cap(g.order) < g.n {
		order := make([]*Cursor, len(g.order), 2*g.n)
		copy(order, g.order)
		g.order = order
	}
	return &Cursor{g: g, step: step}
}

// Live reports whether the cursor has a key.
func (c *Cursor) Live() bool { return c.live }

// Start gives an idle cursor the key (at, seq): its first step runs
// where an event filed at that key would be dispatched, so seq is the
// seq that event would carry (see Step). The key must order after the
// event being dispatched, as any event scheduled now does.
func (c *Cursor) Start(at Time, seq uint64) {
	g := c.g
	if c.live {
		panic("sim: Start on a live cursor")
	}
	g.s.checkKey(at, seq)
	c.live, c.at, c.seq = true, at, seq
	i := len(g.order)
	g.order = append(g.order, c)
	for ; i > 0 && keyLess(at, seq, g.order[i-1].at, g.order[i-1].seq); i-- {
		g.order[i] = g.order[i-1]
		g.order[i].pos = i
	}
	g.order[i] = c
	c.pos = i
	if !g.stepping {
		g.cover()
	}
}

// advance gives c, the cursor just stepped, its next key or drops it
// when its stream has no more work. A key only grows, so c moves
// towards the end of order. Keys are unique (each carries its own
// seq), so the order is total.
func (g *Group) advance(c *Cursor, at Time, seq uint64, more bool) {
	if more {
		g.s.checkKey(at, seq)
	}
	o := g.order
	i := c.pos
	if more {
		c.at, c.seq = at, seq
		for ; i+1 < len(o) && keyLess(o[i+1].at, o[i+1].seq, at, seq); i++ {
			o[i] = o[i+1]
			o[i].pos = i
		}
		o[i] = c
		c.pos = i
		return
	}
	c.live = false
	for ; i+1 < len(o); i++ {
		o[i] = o[i+1]
		o[i].pos = i
	}
	o[i] = nil
	g.order = o[:i]
}

// min returns the live cursor with the smallest key, or nil.
func (g *Group) min() *Cursor {
	if len(g.order) == 0 {
		return nil
	}
	return g.order[0]
}

// cover files a wake at the smallest key unless it is covered already.
func (g *Group) cover() {
	c := g.min()
	if c == nil || c.waked || c.held {
		return
	}
	c.waked = true
	g.s.enqueue(schedEvent{at: c.at, seq: c.seq, fn: g.wakeFn})
}

// wake is the handler of a filed wake: the smallest key's, since every
// smaller key was stepped before the wake could be dispatched.
func (g *Group) wake(s *Simulator) {
	c := g.min()
	if c == nil || !c.waked || c.at != s.now || c.seq != s.curSeq {
		panic("sim: a group wake fired away from its cursor's key")
	}
	c.waked = false
	g.run(s)
}

// run is one frame: it steps cursors in key order until the kernel
// refuses the next key, then covers it. A frame nested in the drain of
// a frame suspended on the smallest key leaves that key to it.
func (g *Group) run(s *Simulator) {
	for len(g.order) > 0 {
		c := g.order[0]
		if c.held {
			return
		}
		if !s.next(c.at, c.seq) {
			c.held = true
			ok := s.reach(c.at, c.seq)
			c.held = false
			if !ok {
				g.cover()
				return
			}
			if c.waked {
				s.absorb(c.at, c.seq)
				c.waked = false
			}
		}
		// A cursor started during the step orders after c's old key, so
		// c stays first; it keeps its place when its next key still
		// orders before the runner-up's.
		g.stepping = true
		at, seq, more := c.step(s)
		g.stepping = false
		if !more || !keyLess(s.now, s.curSeq, at, seq) ||
			len(g.order) > 1 && !keyLess(at, seq, g.order[1].at, g.order[1].seq) {
			g.advance(c, at, seq, more)
			continue
		}
		c.at, c.seq = at, seq
	}
}

// checkKey panics unless the key (at, seq) orders after the event being
// dispatched: a cursor key there would reorder causality, as an event
// scheduled into the past would.
func (s *Simulator) checkKey(at Time, seq uint64) {
	if !keyLess(s.now, s.curSeq, at, seq) {
		panic(fmt.Sprintf("sim: cursor key (%v, %d) does not order after the current event (%v, %d)", at, seq, s.now, s.curSeq))
	}
}

package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// firing records one observed timer callback.
type firing struct {
	at Time
	id uint64
}

// TestTimerWheelVsHeapProperty drives an identical randomized
// arm/cancel schedule through the hashed wheel and through a
// per-event reference on the plain scheduler heap, and asserts both
// fire the same timers at the same instants in the same order — the
// wheel analogue of TestTwoLevelVsHeapProperty. The reference encodes
// the wheel's contract directly: a timer with expiry E fires at
// ceil(E/gran)*gran, ties in arm order, cancelled timers never fire.
// The op mix stresses every wheel path: same-tick ties, timers beyond
// one rotation (cascades), cancels of armed, fired and stale handles,
// and arm-from-callback re-arming.
//
// The same op stream then runs on a 65536-slot wheel, whose span
// covers every deadline: the fire sequence must not change with the
// slot count, which is what lets the churn client size its wheel from
// its deadlines without moving any output.
func TestTimerWheelVsHeapProperty(t *testing.T) {
	total := 200_000
	if testing.Short() {
		total = 20_000
	}
	const gran = 64 * Microsecond
	const span = 256 // arm horizon in slots: 2 rotations of the small wheel

	quantize := func(e Time) Time {
		return Time((uint64(e) + uint64(gran) - 1) / uint64(gran) * uint64(gran))
	}

	run := func(s *Simulator, rng *rand.Rand, arm func(d Duration, id uint64) TimerHandle, cancel func(h TimerHandle, id uint64)) {
		type armed struct {
			h  TimerHandle
			id uint64
		}
		var handles []armed
		var nextID uint64
		var step Event
		ops := 0
		step = func(sm *Simulator) {
			if ops >= total {
				return
			}
			burst := rng.Intn(16) + 1
			for i := 0; i < burst && ops < total; i++ {
				ops++
				switch r := rng.Intn(100); {
				case r < 55:
					// Arm within ~2 rotations; small deltas hit same-tick
					// ties, large ones cascade.
					d := Duration(rng.Int63n(int64(gran)*span*2) + 1)
					id := nextID
					nextID++
					handles = append(handles, armed{h: arm(d, id), id: id})
				case r < 75 && len(handles) > 0:
					// Cancel a random handle — possibly already fired
					// (stale): both sides must treat that as a no-op.
					k := rng.Intn(len(handles))
					cancel(handles[k].h, handles[k].id)
					handles[k] = handles[len(handles)-1]
					handles = handles[:len(handles)-1]
				default:
					// Arm a short timer: fires within a tick or two.
					d := Duration(rng.Int63n(int64(gran)*3) + 1)
					id := nextID
					nextID++
					handles = append(handles, armed{h: arm(d, id), id: id})
				}
			}
			sm.After(Duration(rng.Int63n(int64(gran)*4)+1), step)
		}
		s.At(0, step)
		s.Run()
	}

	// wheelRun plays the op stream on a wheel with the given slot count.
	wheelRun := func(slots int) ([]firing, *TimerWheel) {
		ws := New()
		w := NewTimerWheel(ws, gran, slots)
		var got []firing
		k := w.Bind(func(_ *Simulator, a Arg) {
			got = append(got, firing{at: ws.Now(), id: a.U0})
		}, nil)
		run(ws, rand.New(rand.NewSource(99)),
			func(d Duration, id uint64) TimerHandle { return w.Arm(d, k, id) },
			func(h TimerHandle, _ uint64) { w.Cancel(h) })
		return got, w
	}

	// Reference run: one scheduler event per timer at the quantized
	// instant; cancels are a live-set removal, so a cancelled timer's
	// event fires as a no-op — semantically identical, structurally the
	// legacy per-event pattern.
	rs := New()
	live := map[uint64]bool{}
	var ref []firing
	rfire := func(_ *Simulator, a Arg) {
		if live[a.U0] {
			delete(live, a.U0)
			ref = append(ref, firing{at: rs.Now(), id: a.U0})
		}
	}
	run(rs, rand.New(rand.NewSource(99)), // same stream: identical schedule
		func(d Duration, id uint64) TimerHandle {
			live[id] = true
			rs.AtArgNamed(quantize(rs.Now().Add(d)), "ref-timer", rfire, Arg{U0: id})
			return TimerHandle(id)
		},
		func(_ TimerHandle, id uint64) { delete(live, id) })

	sameFirings := func(what string, got, want []firing) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s fired %d timers, want %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s firing %d diverges: got {at=%v id=%d}, want {at=%v id=%d}",
					what, i, got[i].at, got[i].id, want[i].at, want[i].id)
			}
		}
	}
	checkDrained := func(w *TimerWheel) {
		t.Helper()
		if w.Len() != 0 {
			t.Fatalf("wheel still holds %d timers after drain", w.Len())
		}
		if st := w.Stats(); st.Fired+st.Canceled != st.Armed {
			t.Fatalf("timer accounting leak: armed=%d fired=%d canceled=%d", st.Armed, st.Fired, st.Canceled)
		}
	}

	small, ws := wheelRun(span) // small: forces rotation cascades constantly
	sameFirings("256-slot wheel vs reference", small, ref)
	checkDrained(ws)
	if ws.Stats().Cascades == 0 {
		t.Fatal("op mix never cascaded: rotation path untested")
	}
	large, wl := wheelRun(1 << 16)
	sameFirings("65536-slot wheel vs 256-slot wheel", large, small)
	checkDrained(wl)
	if c := wl.Stats().Cascades; c != 0 {
		t.Fatalf("65536-slot wheel cascaded %d times on deadlines within its span", c)
	}
}

// TestWheelTimerPointerFree pins the slab entry's layout: at most 40
// bytes and no pointer anywhere in it, so the slab chunks are
// allocated as no-scan memory the GC never marks through.
func TestWheelTimerPointerFree(t *testing.T) {
	if sz := unsafe.Sizeof(wheelTimer{}); sz > 40 {
		t.Fatalf("wheelTimer is %d bytes, want <= 40", sz)
	}
	var walk func(reflect.Type, string)
	walk = func(ty reflect.Type, path string) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		case reflect.Array:
			walk(ty.Elem(), path+"[]")
		case reflect.Pointer, reflect.UnsafePointer, reflect.Interface, reflect.Func,
			reflect.Map, reflect.Chan, reflect.Slice, reflect.String:
			t.Fatalf("%s is a %v: wheelTimer must hold no pointers", path, ty.Kind())
		}
	}
	walk(reflect.TypeOf(wheelTimer{}), "wheelTimer")
}

// TestTimerWheelChunkedSlab arms past several slab chunks and checks
// every timer still fires once with its own payload and the slab holds
// no more chunks than the population needs.
func TestTimerWheelChunkedSlab(t *testing.T) {
	s := New()
	w := NewTimerWheel(s, Microsecond, 1024)
	const n = 2*timerChunkLen + 100
	seen := make([]int, n)
	k := w.Bind(func(_ *Simulator, a Arg) { seen[a.U0]++ }, nil)
	for i := 0; i < n; i++ {
		w.Arm(Duration(i%5000+1)*Microsecond, k, uint64(i))
	}
	if len(w.chunks) != 3 {
		t.Fatalf("%d timers carved %d chunks, want 3", n, len(w.chunks))
	}
	s.Run()
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("timer %d fired %d times", i, c)
		}
	}
}

// TestTimerWheelCancel covers the handle lifecycle: live cancel,
// double cancel, stale cancel after fire, zero handle, and slot reuse
// (a recycled slab slot must not honour the old generation's handle).
func TestTimerWheelCancel(t *testing.T) {
	s := New()
	w := NewTimerWheel(s, Microsecond, 64)
	fired := 0
	fn := w.Bind(func(*Simulator, Arg) { fired++ }, nil)

	h1 := w.Arm(10*Microsecond, fn, 0)
	if !w.Cancel(h1) {
		t.Fatal("live cancel failed")
	}
	if w.Cancel(h1) {
		t.Fatal("double cancel succeeded")
	}
	if w.Cancel(0) {
		t.Fatal("zero handle cancelled")
	}
	h2 := w.Arm(5*Microsecond, fn, 0)
	s.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if w.Cancel(h2) {
		t.Fatal("cancel after fire succeeded")
	}
	// h3 reuses h2's slab slot (free-list LIFO); the stale h2 handle
	// must stay dead.
	h3 := w.Arm(5*Microsecond, fn, 0)
	if w.Cancel(h2) {
		t.Fatal("stale handle cancelled a recycled slot")
	}
	if !w.Cancel(h3) {
		t.Fatal("live cancel of recycled slot failed")
	}
	if w.Len() != 0 {
		t.Fatalf("Len = %d", w.Len())
	}
}

// TestTimerWheelRearmFromCallback checks the collect-then-fire tick:
// a callback arming a fresh timer (the churn client's timeout-resend
// pattern) must not be swept into the current tick, and a callback
// cancelling a later due timer of the same tick must suppress it.
func TestTimerWheelRearmFromCallback(t *testing.T) {
	s := New()
	w := NewTimerWheel(s, Microsecond, 64)
	var order []uint64
	var hB TimerHandle
	var rearm TimerKind
	rearm = w.Bind(func(sm *Simulator, a Arg) {
		order = append(order, a.U0)
		if a.U0 == 1 {
			// Fires first (arm order); cancels sibling B (id 2) due in
			// this same tick, and re-arms itself as id 3 one tick out.
			w.Cancel(hB)
			w.Arm(Microsecond, rearm, 3)
		}
	}, nil)
	w.Arm(Microsecond, rearm, 1)
	hB = w.Arm(Microsecond, rearm, 2)
	s.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 3 {
		t.Fatalf("fire order = %v, want [1 3]", order)
	}
	st := w.Stats()
	if st.Armed != 3 || st.Fired != 2 || st.Canceled != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestTimerWheelSuspend verifies an emptied wheel stops scheduling
// tick events (idle wheels must not keep the simulator busy) and
// resumes cleanly on the next Arm.
func TestTimerWheelSuspend(t *testing.T) {
	s := New()
	w := NewTimerWheel(s, Microsecond, 64)
	fired := 0
	fn := w.Bind(func(*Simulator, Arg) { fired++ }, nil)
	w.Arm(3*Microsecond, fn, 0)
	s.Run() // drains: wheel fires, suspends, queue empties
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}
	if s.Pending() != 0 {
		t.Fatalf("idle wheel left %d events queued", s.Pending())
	}
	w.Arm(2*Microsecond, fn, 0)
	s.Run()
	if fired != 2 {
		t.Fatalf("fired = %d after resume", fired)
	}
	ticks := w.Stats().Ticks
	if ticks == 0 {
		t.Fatal("no ticks recorded")
	}
}

// TestTimerWheelSteadyStateAllocs proves a warm wheel's arm/cancel
// cycle never touches the heap — the property that lets a million
// outstanding timeouts ride one slab.
func TestTimerWheelSteadyStateAllocs(t *testing.T) {
	s := New()
	w := NewTimerWheel(s, Microsecond, 1024)
	fn := w.Bind(func(*Simulator, Arg) {}, nil)
	hs := make([]TimerHandle, 4096)
	for i := range hs {
		hs[i] = w.Arm(Duration(i+1)*Microsecond, fn, 0)
	}
	k := 0
	avg := testing.AllocsPerRun(10000, func() {
		w.Cancel(hs[k])
		hs[k] = w.Arm(Duration(k%4096+1)*Microsecond, fn, 0)
		k = (k + 1) % 4096
	})
	if avg != 0 {
		t.Fatalf("steady-state arm/cancel allocates %.2f per op", avg)
	}
}

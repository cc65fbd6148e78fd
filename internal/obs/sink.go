package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// Sink consumes trace events. Sinks run only when tracing is enabled,
// so they may allocate and buffer freely; Close must flush.
type Sink interface {
	Emit(Event)
	Close() error
}

// NullSink counts events and discards them. It is the tracer's
// default sink and doubles as a cheap event counter in tests.
type NullSink struct{ Events uint64 }

// Emit discards e.
func (n *NullSink) Emit(Event) { n.Events++ }

// Close is a no-op.
func (n *NullSink) Close() error { return nil }

// Synthetic process IDs used to group trace tracks in Perfetto: core
// activity, NIC/PCIe activity, and cache/memory activity each get a
// process row, with one thread per core inside it.
const (
	pidCores  = 0
	pidNIC    = 1
	pidMem    = 2
	pidFabric = 3
)

var pidNames = map[int]string{
	pidCores:  "cores",
	pidNIC:    "nic/pcie",
	pidMem:    "cache/mem",
	pidFabric: "fabric",
}

// ChromeSink writes the Chrome trace-event JSON format (the
// "traceEvents" array form), loadable in Perfetto and chrome://tracing.
// Timestamps are microseconds with picosecond precision; packet
// service appears as notify/queue/service spans on the owning core's
// track, NIC DMA as spans on the NIC track, and cacheline placement,
// invalidation, prefetch and writeback as instants on the memory
// track.
type ChromeSink struct {
	w      *bufio.Writer
	closer io.Closer
	first  bool
	tracks map[[2]int]struct{} // (pid, tid) pairs seen
	err    error
}

// NewChromeSink writes trace JSON to w. If w is an io.Closer it is
// closed by Close.
func NewChromeSink(w io.Writer) *ChromeSink {
	s := &ChromeSink{w: bufio.NewWriter(w), first: true, tracks: make(map[[2]int]struct{})}
	if c, ok := w.(io.Closer); ok {
		s.closer = c
	}
	s.w.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	return s
}

func (s *ChromeSink) sep() {
	if s.first {
		s.first = false
		s.w.WriteByte('\n')
		return
	}
	s.w.WriteString(",\n")
}

// write emits one trace event object. ph is "i" (instant) or "X"
// (complete); args is pre-rendered JSON object members ("" for none).
func (s *ChromeSink) write(name string, ph byte, pid, tid int, tsUS, durUS float64, args string) {
	s.sep()
	s.tracks[[2]int{pid, tid}] = struct{}{}
	fmt.Fprintf(s.w, `{"name":%q,"ph":"%c","pid":%d,"tid":%d,"ts":%.6f`, name, ph, pid, tid, tsUS)
	if ph == 'X' {
		if durUS < 0 {
			durUS = 0
		}
		fmt.Fprintf(s.w, `,"dur":%.6f`, durUS)
	}
	if ph == 'i' {
		s.w.WriteString(`,"s":"t"`)
	}
	if args != "" {
		fmt.Fprintf(s.w, `,"args":{%s}`, args)
	}
	s.w.WriteByte('}')
}

func tid(core int) int {
	if core < 0 {
		return 0
	}
	return core
}

// Emit renders e as one or more trace events.
func (s *ChromeSink) Emit(e Event) {
	ts := e.At.Microseconds()
	switch e.Kind {
	case EvDone:
		// The queueing breakdown becomes three back-to-back spans on
		// the core's track so Perfetto shows where the latency went.
		seq := fmt.Sprintf(`"seq":%d`, e.Seq)
		s.write("notify", 'X', pidCores, tid(e.Core), e.Arrival.Microseconds(), e.Ready.Sub(e.Arrival).Microseconds(), seq)
		s.write("queue", 'X', pidCores, tid(e.Core), e.Ready.Microseconds(), e.Start.Sub(e.Ready).Microseconds(), seq)
		s.write("service", 'X', pidCores, tid(e.Core), e.Start.Microseconds(), e.At.Sub(e.Start).Microseconds(), seq)
	case EvDMA:
		s.write("dma", 'X', pidNIC, tid(e.Core), ts, e.Dur.Microseconds(),
			fmt.Sprintf(`"seq":%d,"bytes":%d`, e.Seq, e.Bytes))
	case EvRx:
		s.write("rx", 'i', pidNIC, tid(e.Core), ts, 0,
			fmt.Sprintf(`"seq":%d,"bytes":%d`, e.Seq, e.Bytes))
	case EvDrop:
		s.write("drop", 'i', pidNIC, tid(e.Core), ts, 0,
			fmt.Sprintf(`"seq":%d,"reason":%q`, e.Seq, e.Arg))
	case EvPlace:
		s.write("place", 'i', pidMem, tid(e.Core), ts, 0,
			fmt.Sprintf(`"seq":%d,"line":%d,"target":%q`, e.Seq, e.Line, e.Arg))
	case EvPrefetch:
		s.write("prefetch", 'i', pidMem, tid(e.Core), ts, 0,
			fmt.Sprintf(`"seq":%d,"line":%d,"outcome":%q`, e.Seq, e.Line, e.Arg))
	case EvInval:
		s.write("inval", 'i', pidMem, tid(e.Core), ts, 0,
			fmt.Sprintf(`"seq":%d,"line":%d,"kind":%q`, e.Seq, e.Line, e.Arg))
	case EvWriteback:
		s.write("writeback", 'i', pidMem, tid(e.Core), ts, 0,
			fmt.Sprintf(`"seq":%d,"line":%d`, e.Seq, e.Line))
	case EvFree:
		s.write("free", 'i', pidCores, tid(e.Core), ts, 0,
			fmt.Sprintf(`"seq":%d`, e.Seq))
	case EvLink:
		// The span ends at delivery time; shift back by Dur so it
		// covers egress queueing + serialization + propagation.
		s.write("link", 'X', pidFabric, 0, ts-e.Dur.Microseconds(), e.Dur.Microseconds(),
			fmt.Sprintf(`"seq":%d,"bytes":%d,"link":%q`, e.Seq, e.Bytes, e.Arg))
	case EvSwitch:
		s.write("switch", 'i', pidFabric, 0, ts, 0,
			fmt.Sprintf(`"seq":%d,"port":%d,"switch":%q`, e.Seq, tid(e.Core), e.Arg))
	}
}

// Close appends process/thread naming metadata, terminates the JSON
// document and flushes. Metadata order is sorted so output bytes are
// deterministic for a given event stream.
func (s *ChromeSink) Close() error {
	pids := make(map[int]struct{})
	tracks := make([][2]int, 0, len(s.tracks))
	for t := range s.tracks {
		tracks = append(tracks, t)
		pids[t[0]] = struct{}{}
	}
	sort.Slice(tracks, func(i, j int) bool {
		if tracks[i][0] != tracks[j][0] {
			return tracks[i][0] < tracks[j][0]
		}
		return tracks[i][1] < tracks[j][1]
	})
	pidList := make([]int, 0, len(pids))
	for p := range pids {
		pidList = append(pidList, p)
	}
	sort.Ints(pidList)
	for _, p := range pidList {
		s.sep()
		fmt.Fprintf(s.w, `{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%q}}`, p, pidNames[p])
	}
	for _, t := range tracks {
		s.sep()
		name := fmt.Sprintf("core %d", t[1])
		if t[0] == pidFabric {
			name = "wire"
		}
		fmt.Fprintf(s.w, `{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%q}}`, t[0], t[1], name)
	}
	s.w.WriteString("\n]}\n")
	if err := s.w.Flush(); err != nil {
		return err
	}
	if s.closer != nil {
		return s.closer.Close()
	}
	return nil
}

// CSVSink writes one row per completed packet (the layout of
// CSVHeader); all other event kinds are ignored. Rows appear in
// completion order. idiosim writes it for a -trace path ending in
// .csv.
type CSVSink struct {
	w      *bufio.Writer
	closer io.Closer
}

// CSVHeader is the per-packet column layout: ids, stage timestamps,
// then the notification, queueing, service and total latencies.
const CSVHeader = "core,seq,arrival_us,ready_us,start_us,done_us,notify_us,queue_us,service_us,total_us"

// NewCSVSink writes per-packet CSV to w. If w is an io.Closer it is
// closed by Close.
func NewCSVSink(w io.Writer) *CSVSink {
	s := &CSVSink{w: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		s.closer = c
	}
	s.w.WriteString(CSVHeader + "\n")
	return s
}

// Emit writes EvDone events as CSV rows and ignores everything else.
func (s *CSVSink) Emit(e Event) {
	if e.Kind != EvDone {
		return
	}
	fmt.Fprintf(s.w, "%d,%d,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f\n",
		e.Core, e.Seq,
		e.Arrival.Microseconds(), e.Ready.Microseconds(),
		e.Start.Microseconds(), e.At.Microseconds(),
		e.Ready.Sub(e.Arrival).Microseconds(),
		e.Start.Sub(e.Ready).Microseconds(),
		e.At.Sub(e.Start).Microseconds(),
		e.At.Sub(e.Arrival).Microseconds())
}

// Close flushes the writer.
func (s *CSVSink) Close() error {
	if err := s.w.Flush(); err != nil {
		return err
	}
	if s.closer != nil {
		return s.closer.Close()
	}
	return nil
}

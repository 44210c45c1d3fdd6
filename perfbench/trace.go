package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataflow"
	"repro/internal/spi"
	"repro/internal/transport"
)

// Span kinds. Each is a call into one layer's public functions, timed
// from outside by the wrappers in this file.
const (
	kindRun      = "run"         // one run call: spi.ExecuteDistributed, orch Coordinator.Run, one particle episode
	kindPlan     = "plan"        // fission/plan calls made before a run
	kindKernel   = "kernel"      // one kernel firing (args.iter)
	kindStep     = "step"        // one particle.Distributed.Step call (args.iter)
	kindWrite    = "write"       // transport Conn.Write
	kindRead     = "read"        // transport Conn.Read
	kindDial     = "dial"        // transport Dial that connected
	kindDialFail = "dial-failed" // transport Dial that did not
	kindAccept   = "accept"      // transport Listener.Accept that connected
	kindIdle     = "accept-idle" // Accept ended by closing the listener
	kindEpoch    = "epoch"       // orch epoch, dispatch to next dispatch
)

// span is one timed call. node is the Chrome trace pid (the in-process
// node or worker the call ran on), lane its tid. Times are nanoseconds
// since the tracer started.
type span struct {
	kind, name string
	node, lane int
	iter       int
	bytes      int
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps every span of a traced run in memory; write dumps them
// as Chrome trace JSON when the benchmark ends. A nil *tracer records
// nothing, so untraced runs pay only a nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	lanes atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// lane hands out a fresh tid for a connection.
func (t *tracer) lane() int { return 1000 + int(t.lanes.Add(1)) }

// all returns a copy of every span recorded so far.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores every span as a Chrome trace ("traceEvents" of complete
// "X" events, microsecond timestamps) and checks the file parses back.
func (t *tracer) write(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	spans := t.all()
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	fmt.Fprint(w, `{"otherData":`)
	if err := json.NewEncoder(w).Encode(meta); err != nil {
		return err
	}
	fmt.Fprint(w, `,"traceEvents":[`)
	enc := json.NewEncoder(w)
	for i, s := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		ev := event{Name: s.name, Cat: s.kind, Ph: "X", Ts: float64(s.start) / 1e3,
			Dur: float64(s.dur()) / 1e3, Pid: s.node, Tid: s.lane}
		if s.iter >= 0 || s.bytes > 0 {
			ev.Args = map[string]any{}
			if s.iter >= 0 {
				ev.Args["iter"] = s.iter
			}
			if s.bytes > 0 {
				ev.Args["bytes"] = s.bytes
			}
		}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return checkChromeTrace(path, len(spans))
}

// checkChromeTrace parses a written trace back and confirms it holds the
// expected number of events.
func checkChromeTrace(path string, want int) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return fmt.Errorf("trace %s does not parse: %w", path, err)
	}
	if len(doc.TraceEvents) != want {
		return fmt.Errorf("trace %s holds %d events, want %d", path, len(doc.TraceEvents), want)
	}
	return nil
}

// covered returns how much of [lo, hi) the union of spans covers.
func covered(spans []span, lo, hi int64) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.start, lo), min(s.end, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		if open && x[0] <= curB {
			curB = max(curB, x[1])
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = x[0], x[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfTime sums, over every run span, its duration minus the part its
// children on the same node cover. child selects the child kinds.
func selfTime(spans []span, child func(span) bool) int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if child(s) {
			kids[s.node] = append(kids[s.node], s)
		}
	}
	var self int64
	for _, s := range spans {
		if s.kind == kindRun {
			self += s.dur() - covered(kids[s.node], s.start, s.end)
		}
	}
	return self
}

// tracedTransport wraps a transport so every connection it makes or
// accepts is timed; node tags the spans with the owning node.
type tracedTransport struct {
	transport.Transport
	tr   *tracer
	node int
}

func (t *tracedTransport) Listen(addr string) (transport.Listener, error) {
	ln, err := t.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &tracedListener{Listener: ln, tr: t.tr, node: t.node}, nil
}

func (t *tracedTransport) Dial(addr string) (transport.Conn, error) {
	start := t.tr.now()
	c, err := t.Transport.Dial(addr)
	kind := kindDial
	if err != nil {
		kind = kindDialFail
	}
	t.tr.add(span{kind: kind, name: "Dial " + addr, node: t.node, iter: -1, start: start, end: t.tr.now()})
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, tr: t.tr, node: t.node, lane: t.tr.lane()}, nil
}

type tracedListener struct {
	transport.Listener
	tr   *tracer
	node int
}

func (l *tracedListener) Accept() (transport.Conn, error) {
	start := l.tr.now()
	c, err := l.Listener.Accept()
	kind := kindAccept
	if err != nil {
		kind = kindIdle
	}
	l.tr.add(span{kind: kind, name: "Accept", node: l.node, iter: -1, start: start, end: l.tr.now()})
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, tr: l.tr, node: l.node, lane: l.tr.lane()}, nil
}

type tracedConn struct {
	transport.Conn
	tr         *tracer
	node, lane int
}

func (c *tracedConn) Write(p []byte) (int, error) {
	start := c.tr.now()
	n, err := c.Conn.Write(p)
	c.tr.add(span{kind: kindWrite, name: "Conn.Write", node: c.node, lane: c.lane, iter: -1, bytes: n, start: start, end: c.tr.now()})
	return n, err
}

func (c *tracedConn) Read(p []byte) (int, error) {
	start := c.tr.now()
	n, err := c.Conn.Read(p)
	c.tr.add(span{kind: kindRead, name: "Conn.Read", node: c.node, lane: c.lane, iter: -1, bytes: n, start: start, end: c.tr.now()})
	return n, err
}

// traceKernel times every firing of one actor's kernel, tagged with its
// iteration.
func traceKernel(tr *tracer, k spi.Kernel, name string, node, lane int) spi.Kernel {
	if tr == nil {
		return k
	}
	return func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
		start := tr.now()
		out, err := k(iter, in)
		tr.add(span{kind: kindKernel, name: name, node: node, lane: lane, iter: iter, start: start, end: tr.now()})
		return out, err
	}
}

// layerTotals folds one traced segment's spans into per-kind counts,
// bytes and busy time.
type layerTotals struct {
	count map[string]int
	bytes map[string]int64
	ns    map[string]int64
}

func totals(spans []span) layerTotals {
	t := layerTotals{count: map[string]int{}, bytes: map[string]int64{}, ns: map[string]int64{}}
	for _, s := range spans {
		t.count[s.kind]++
		t.bytes[s.kind] += int64(s.bytes)
		t.ns[s.kind] += s.dur()
	}
	return t
}

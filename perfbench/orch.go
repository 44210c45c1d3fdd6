package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/dataflow"
	"repro/internal/demo"
	"repro/internal/orch"
	"repro/internal/sched"
	"repro/internal/spi"
	"repro/internal/transport"
)

// The orch workload runs examples/graphs/pipeline.sdf (assign 0,1,2, demo
// kernels) on a 2-worker orch pool over localhost TCP: 64-iteration
// epochs and one planned rotation of the placement at epoch 1, so every
// run call pays fencing, dispatch and a migration. No worker is killed:
// recovery time is set by the epoch timeout, not by code speed.
const (
	orchGraph      = "examples/graphs/pipeline.sdf"
	orchWorkers    = 2
	orchEpochIters = 64
	orchRotateAt   = 1
	orchSegIters   = 1024 * orchEpochIters
	// orchPorts data ports per worker, cycled by epoch. See dataPorts.
	orchPorts = 256
)

type orchWorkload struct {
	text       []byte // the graph file, parsed again by every run call
	g          *dataflow.Graph
	m          *sched.Mapping
	seed       uint64
	src, sink  string
	portBase   int                       // first port of the workers' data port blocks
	refs       map[int]map[string]uint64 // static reference digests by run length
	staticRate float64                   // spi.Execute iterations/s of the timed segments' reference
	traced     []*orch.Report
}

func newOrch(seed uint64) (instance, func(), error) {
	text, err := os.ReadFile(orchGraph)
	if err != nil {
		return nil, nil, err
	}
	w := &orchWorkload{text: text, seed: mix(seed, 0), refs: map[int]map[string]uint64{}}
	g, m, err := w.plan()
	if err != nil {
		return nil, nil, err
	}
	w.g, w.m = g, m
	if w.portBase, err = dataPorts(seed); err != nil {
		return nil, nil, err
	}
	for _, a := range g.Actors() {
		switch {
		case len(g.In(a)) == 0:
			w.src = g.Actor(a).Name
		case len(g.Out(a)) == 0:
			w.sink = g.Actor(a).Name
		}
	}
	if w.src == "" || w.sink == "" {
		return nil, nil, fmt.Errorf("%s: no source or sink actor", orchGraph)
	}
	return w, func() {}, nil
}

// plan parses the graph and maps it onto processors 0, 1, 2.
func (w *orchWorkload) plan() (*dataflow.Graph, *sched.Mapping, error) {
	g, err := dataflow.ParseString(string(w.text))
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", orchGraph, err)
	}
	m, err := demo.Mapping(g, []int{0, 1, 2})
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", orchGraph, err)
	}
	return g, m, nil
}

// Timed segments have a fixed length, so memory that grows with run
// length reads the same in every run, and one static reference checks
// them all.
func (w *orchWorkload) sizing() sizing {
	return sizing{segments: 5, warm: 4096, probe: 2 * orchEpochIters, fixed: orchSegIters, traceCap: 32000}
}

// static runs the unpartitioned single-process execution of the same
// graph, seed and length: the digests the pool must reproduce.
func (w *orchWorkload) static(n int) (map[string]uint64, error) {
	if ref, ok := w.refs[n]; ok {
		return ref, nil
	}
	digests := demo.Sinks(w.g)
	var mu sync.Mutex
	kernels, err := demo.Kernels(w.g, w.seed, digests, &mu)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if _, err := spi.Execute(w.g, w.m, kernels, n); err != nil {
		return nil, err
	}
	if n == orchSegIters {
		w.staticRate = float64(n) / time.Since(start).Seconds()
	}
	out := map[string]uint64{}
	for name, d := range digests {
		out[name] = *d
	}
	w.refs[n] = out
	return out, nil
}

// baselines reports the rate of the timed segments' static reference,
// which the deferred output checks have run by the time it is called.
func (w *orchWorkload) baselines() map[string]float64 {
	if _, err := w.static(orchSegIters); err != nil {
		return map[string]float64{}
	}
	return map[string]float64{"orch.static_iters_per_s": w.staticRate}
}

func (w *orchWorkload) run(idx, n int, tr *tracer) seg {
	n = (n + orchEpochIters - 1) / orchEpochIters * orchEpochIters
	s := seg{iters: n, runs: 1}

	clk := newIterClock(n)
	runStart := tr.now()
	g, m, err := w.plan()
	if err != nil {
		s.fail(err, n)
		return s
	}
	tr.add(span{kind: kindPlan, name: "dataflow.Parse+demo.Mapping", iter: -1, start: runStart, end: tr.now()})
	carrier := func(node int) transport.Transport {
		if tr == nil {
			return &transport.TCP{}
		}
		return &tracedTransport{Transport: &transport.TCP{}, tr: tr, node: node}
	}
	coordTr := carrier(0)
	ln, err := coordTr.Listen("127.0.0.1:0")
	if err != nil {
		s.fail(fmt.Errorf("orch listen: %w", err), n)
		return s
	}
	defer ln.Close()

	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	var wg sync.WaitGroup
	werrs := make([]error, orchWorkers)
	for i := 0; i < orchWorkers; i++ {
		node := i + 1
		wk, err := orch.NewWorker(orch.WorkerConfig{
			Transport: carrier(node), Coord: ln.Addr(), Name: fmt.Sprintf("w%d", i),
			Kernels:  w.kernels(clk, tr, node),
			DataAddr: w.dataAddr(i),
			Retry:    transport.RetryConfig{Attempts: 50, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond},
		})
		if err != nil {
			cancel()
			wg.Wait()
			s.fail(fmt.Errorf("orch worker: %w", err), n)
			return s
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			werrs[i] = wk.Run(ctx)
		}(i)
	}

	var (
		dispatch []int64 // tracer time of each epoch dispatch
		dmu      sync.Mutex
	)
	cfg := orch.CoordConfig{
		Transport: coordTr, Addr: ln.Addr(), Listener: ln, Graph: g, Mapping: m,
		Iterations: n, EpochIters: orchEpochIters, MinWorkers: orchWorkers,
		EpochTimeout: 10 * time.Second,
		OnPlace:      rotateOnce,
	}
	if tr != nil {
		cfg.OnDispatch = func(int) {
			dmu.Lock()
			dispatch = append(dispatch, tr.now())
			dmu.Unlock()
		}
	}
	coord, err := orch.NewCoordinator(cfg)
	var rep *orch.Report
	if err == nil {
		rep, err = coord.Run(ctx)
	}
	clk.finish(&s)
	tr.add(span{kind: kindRun, name: "orch.Coordinator.Run", iter: -1, start: runStart, end: tr.now()})
	if err != nil {
		cancel()
	}
	wg.Wait()

	if err != nil {
		s.fail(fmt.Errorf("orch run: %w", err), n)
		return s
	}
	for i, werr := range werrs {
		if werr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: orch worker w%d: %v\n", i, werr)
		}
	}
	s.verify = func() int {
		want, err := w.static(n)
		if err == nil {
			err = sameDigests(rep, want, n)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return n
		}
		return 0
	}
	if tr != nil {
		end := tr.now()
		dmu.Lock()
		for k, at := range dispatch {
			next := end
			if k+1 < len(dispatch) {
				next = dispatch[k+1]
			}
			tr.add(span{kind: kindEpoch, name: fmt.Sprintf("epoch %d", k), iter: -1, lane: 1, start: at, end: next})
		}
		dmu.Unlock()
		w.traced = append(w.traced, rep)
	}
	return s
}

// kernels builds one worker's KernelProvider: the demo partition kernels,
// with the source and sink timed for latency and, in traced runs, every
// firing recorded as a span on the worker's node.
func (w *orchWorkload) kernels(clk *iterClock, tr *tracer, node int) orch.KernelProvider {
	lanes := map[string]int{}
	for _, a := range w.g.Actors() {
		lanes[w.g.Actor(a).Name] = int(a)
	}
	return func(spec *spi.PartitionSpec) (*orch.KernelSet, error) {
		kernels, sinks := demo.PartKernels(spec, w.seed)
		for name, k := range kernels {
			switch name {
			case w.src:
				k = clk.source(k)
			case w.sink:
				k = clk.sink(k)
			}
			kernels[name] = traceKernel(tr, k, name, node, lanes[name])
		}
		return &orch.KernelSet{Kernels: kernels, Collect: sinks.Take}, nil
	}
}

// dataPorts picks a free block of orchWorkers×orchPorts ports below the
// kernel's ephemeral range. Each epoch binds a fresh data listener; bound
// to port 0, every epoch would take a new ephemeral port and hold it in
// TIME_WAIT for a minute after its connection closes. At hundreds of
// epochs per second that fills the ephemeral range within one run, after
// which each connect and bind scans it and costs over a millisecond, so a
// run's rate would depend on the runs before it. A fixed port block per
// worker, as a firewalled deployment would configure, reuses its ports
// (listeners set SO_REUSEADDR) and keeps runs independent.
func dataPorts(seed uint64) (int, error) {
	const lo, hi = 20000, 32000
	span := orchWorkers * orchPorts
	for try := uint64(0); try < 20; try++ {
		base := lo + int(mix(seed, 100+try)%uint64(hi-lo-span))
		var held []net.Listener
		free := true
		for p := base; p < base+span && free; p++ {
			ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p))
			if err != nil {
				free = false
				break
			}
			held = append(held, ln)
		}
		for _, ln := range held {
			ln.Close()
		}
		if free {
			return base, nil
		}
	}
	return 0, fmt.Errorf("orch: no free block of %d data ports in [%d, %d)", span, lo, hi)
}

// dataAddr cycles worker i's data listener through its port block.
func (w *orchWorkload) dataAddr(i int) func(epoch uint32) string {
	return func(epoch uint32) string {
		return fmt.Sprintf("127.0.0.1:%d", w.portBase+i*orchPorts+int(epoch%orchPorts))
	}
}

// rotateOnce moves every processor to the next worker at epoch
// orchRotateAt, a planned migration; other epochs keep the coordinator's
// own placement.
func rotateOnce(epoch int, placement []int, ids []uint32) []int {
	if epoch != orchRotateAt || len(ids) < 2 {
		return placement
	}
	rotated := make([]int, len(placement))
	for p, slot := range placement {
		rotated[p] = (slot + 1) % len(ids)
	}
	return rotated
}

func sameDigests(rep *orch.Report, want map[string]uint64, n int) error {
	if rep.Iterations != n {
		return fmt.Errorf("orch: committed %d iterations, want %d", rep.Iterations, n)
	}
	if len(rep.Digests) != len(want) {
		return fmt.Errorf("orch: %d sink digests, static run has %d", len(rep.Digests), len(want))
	}
	for name, d := range want {
		if rep.Digests[name] != d {
			return fmt.Errorf("orch: sink %s digest %016x != static %016x", name, rep.Digests[name], d)
		}
	}
	return nil
}

func (w *orchWorkload) layers(segs []seg, spans []span) map[string]float64 {
	var epochs, commits, migrations int
	for _, rep := range w.traced {
		epochs += rep.Epochs
		commits += rep.Commits
		migrations += rep.Migrations
	}
	var lens []time.Duration
	for _, s := range spans {
		if s.kind == kindEpoch {
			lens = append(lens, time.Duration(s.dur()))
		}
	}
	out := map[string]float64{}
	if epochs == 0 {
		return out
	}
	sortDur(lens)
	out["orch.epoch_us_p50"] = us(pct(lens, 0.50))
	out["orch.epoch_us_p99"] = us(pct(lens, 0.99))
	out["orch.commit_ratio"] = float64(commits) / float64(epochs)
	out["orch.migrations_per_epoch"] = float64(migrations) / float64(epochs)
	out["transport.conns_per_epoch"] = float64(totals(spans).count[kindDial]) / float64(epochs)
	return out
}

package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataflow"
	"repro/internal/dsp"
	"repro/internal/lpc"
	"repro/internal/signal"
	"repro/internal/spi"
	"repro/internal/transport"
)

// The LPC workloads run the paper's application 1 actor D as the fission
// pass derives it (k = 2 replicas behind scatter/gather) on two
// in-process nodes: the I/O interface on node 0, scatter, replicas and
// gather on node 1, one connection between them.
const (
	lpcReplicas = 2
	lpcOrder    = 10
	lpcFrames   = 4 // seeded speech frames, cycled by segment
)

type lpcFrame struct {
	frame []float64
	model *dsp.LPCModel
	want  []float64 // model.Residual(frame): the bit-identity reference
}

type lpcWorkload struct {
	n       int
	carrier string // "tcp" or "shm"
	shmDir  string
	frames  []lpcFrame
	traced  []*spi.ExecStats // per node per traced run
}

func newLPC(n int, carrier string, seed uint64) (instance, func(), error) {
	w := &lpcWorkload{n: n, carrier: carrier}
	for i := 0; i < lpcFrames; i++ {
		frame := signal.Speech(n, mix(seed, uint64(i)))
		model, err := dsp.LPCAnalyze(frame, lpcOrder)
		if err != nil {
			return nil, nil, fmt.Errorf("lpc frame %d: %w", i, err)
		}
		w.frames = append(w.frames, lpcFrame{frame: frame, model: model, want: model.Residual(frame)})
	}
	cleanup := func() {}
	if carrier == "shm" {
		dir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("shm-%d", os.Getpid())))
		if err != nil {
			return nil, nil, err
		}
		w.shmDir = dir
		cleanup = func() { os.RemoveAll(dir) }
	}
	return w, cleanup, nil
}

func (w *lpcWorkload) sizing() sizing {
	return sizing{segments: 10, warm: 256, probe: 32, traceCap: 5000}
}

func (w *lpcWorkload) carrierFor() transport.Transport {
	if w.carrier == "shm" {
		return transport.NewShm(w.shmDir)
	}
	return &transport.TCP{}
}

// baselines times the single-threaded residual on the same frame.
func (w *lpcWorkload) baselines() map[string]float64 {
	in := w.frames[0]
	return map[string]float64{"lpc.serial_iter_us": perCallUS(func() { in.model.Residual(in.frame) })}
}

func (w *lpcWorkload) run(idx, n int, tr *tracer) seg {
	in := w.frames[idx%len(w.frames)]
	s := seg{iters: n, runs: 1}
	clk := newIterClock(n)

	var verified atomic.Int64
	collect := func(e []float64) {
		if bitIdentical(e, in.want) {
			verified.Add(1)
		}
	}
	planStart := tr.now()
	p := lpc.DefaultDeploy(w.n, 1)
	p.SampleBytes = 8
	fs, err := lpc.FissionErrorGenSystem(p, lpcReplicas, 0)
	var kernels map[dataflow.ActorID]spi.Kernel
	if err == nil {
		kernels, err = lpc.FissionResidualKernels(fs, in.model, in.frame, collect)
	}
	if err != nil {
		s.fail(fmt.Errorf("lpc plan: %w", err), n)
		return s
	}
	tr.add(span{kind: kindPlan, name: "FissionErrorGenSystem+FissionResidualKernels", iter: -1, start: planStart, end: tr.now()})
	g := fs.Plan.Graph
	nodeOf := lpc.SplitIOWorkers(fs.Mapping.NumProcs, 2)

	var carriers [2]transport.Transport
	for node := range carriers {
		carriers[node] = w.carrierFor()
		if tr != nil {
			carriers[node] = &tracedTransport{Transport: carriers[node], tr: tr, node: node}
		}
	}
	addr := "127.0.0.1:0"
	if w.carrier == "shm" {
		addr = fmt.Sprintf("lpc-%d", idx)
	}
	ln, err := carriers[0].Listen(addr)
	if err != nil {
		s.fail(fmt.Errorf("lpc listen: %w", err), n)
		return s
	}
	defer ln.Close()
	addrs := []string{ln.Addr(), "unused"}

	ioSend, _ := g.ActorByName("io_send")
	ioRecv, _ := g.ActorByName("io_recv")
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	var (
		wg    sync.WaitGroup
		stats [2]*spi.ExecStats
		errs  [2]error
	)
	for node := 0; node < 2; node++ {
		local := map[dataflow.ActorID]spi.Kernel{}
		for a, k := range kernels {
			if nodeOf[fs.Mapping.Proc[a]] != node {
				continue
			}
			switch a {
			case ioSend:
				k = clk.source(k)
			case ioRecv:
				k = clk.sink(k)
			}
			local[a] = traceKernel(tr, k, g.Actor(a).Name, node, int(a))
		}
		opts := spi.DistOptions{
			Transport: carriers[node], Node: node, Addrs: addrs, NodeOf: nodeOf, Context: ctx,
			Retry: transport.RetryConfig{Attempts: 50, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
		}
		if node == 0 {
			opts.Listener = ln
		}
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			start := tr.now()
			stats[node], errs[node] = spi.ExecuteDistributed(g, fs.Mapping, local, n, opts)
			tr.add(span{kind: kindRun, name: "spi.ExecuteDistributed", node: node, iter: -1, start: start, end: tr.now()})
		}(node)
	}
	wg.Wait()
	clk.finish(&s)

	for node, err := range errs {
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: lpc node %d: %v\n", node, err)
		}
	}
	if ok := int(verified.Load()); ok < n {
		s.fail(fmt.Errorf("lpc: %d of %d residuals not bit-identical to model.Residual", n-ok, n), n-ok)
	}
	if tr != nil && errs[0] == nil && errs[1] == nil {
		w.traced = append(w.traced, stats[0], stats[1])
	}
	return s
}

func (w *lpcWorkload) layers(segs []seg, spans []span) map[string]float64 {
	iters := 0
	for _, s := range segs {
		iters += s.iters
	}
	out := spiLayers(w.traced, iters)
	out["spi.self_us_per_iter"] = float64(selfTime(spans, func(s span) bool {
		return s.kind == kindKernel || s.kind == kindWrite
	})) / 1e3 / float64(iters)

	busy := map[string]int64{}
	var kernelNS int64
	for _, s := range spans {
		if s.kind != kindKernel {
			continue
		}
		kernelNS += s.dur()
		if strings.Contains(s.name, "#") {
			busy[s.name] += s.dur()
		}
	}
	out["lpc.kernel_us_per_iter"] = float64(kernelNS) / 1e3 / float64(iters)
	lo, hi := int64(math.MaxInt64), int64(0)
	for _, b := range busy {
		lo, hi = min(lo, b), max(hi, b)
	}
	if len(busy) > 0 && lo > 0 {
		out["lpc.replica_busy_skew"] = float64(hi) / float64(lo)
	}
	return out
}

func bitIdentical(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

package spi

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/sched"
	"repro/internal/transport"
)

// Bit-identity tests for partition-scoped execution: any placement of the
// mapped processors over any number of workers, with any epoching and any
// mid-run re-placement (simulated migration via Tails/State handoff), must
// produce exactly the sink digests of the monolithic Execute run.

// partGraph builds a 4-actor, 3-processor graph exercising every edge
// class the partition executor distinguishes: a cross-processor static
// edge with delay (zero-block preloads), a cross-processor dynamic edge
// with delay (empty preloads), a cross-processor static edge without
// delay, and a same-processor delayed edge (local queue).
func partGraph() (*dataflow.Graph, *sched.Mapping) {
	g := dataflow.New("part")
	a := g.AddActor("A", 1)
	b := g.AddActor("B", 1)
	c := g.AddActor("C", 1)
	d := g.AddActor("D", 1)
	g.AddEdge("ab", a, b, 1, 1, dataflow.EdgeSpec{TokenBytes: 4, Delay: 2})
	g.AddEdge("bc", b, c, 1, 1, dataflow.EdgeSpec{TokenBytes: 6, Delay: 1,
		ProduceDynamic: true, ConsumeDynamic: true})
	g.AddEdge("cd", c, d, 1, 1, dataflow.EdgeSpec{TokenBytes: 3})
	g.AddEdge("ad", a, d, 1, 1, dataflow.EdgeSpec{TokenBytes: 5, Delay: 1})
	m := &sched.Mapping{
		NumProcs: 3,
		Proc:     []sched.Processor{0, 1, 2, 0},
		Order:    [][]dataflow.ActorID{{a, d}, {b}, {c}},
	}
	return g, m
}

// partTestSinks accumulates sink digests across workers and epochs; every
// epoch in these tests commits, so the XOR fold composes to the digest of
// the unpartitioned run.
type partTestSinks struct {
	mu sync.Mutex
	d  map[string]uint64
}

func (s *partTestSinks) snapshot() map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string]uint64{}
	for k, v := range s.d {
		out[k] = v
	}
	return out
}

// partTestKernels builds deterministic demo-style kernels for partGraph,
// keyed both by actor ID (for Execute) and name (for ExecutePartition).
// Actor B is stateful: it folds a running sum of its firing hashes into
// its outputs, so epoch handoff silently corrupting checkpointed state
// breaks bit-identity. The returned hooks checkpoint/restore B's state.
func partTestKernels(g *dataflow.Graph, seed uint64, sinks *partTestSinks) (
	map[dataflow.ActorID]Kernel, map[string]Kernel, map[string]StateHooks) {
	byID := map[dataflow.ActorID]Kernel{}
	byName := map[string]Kernel{}
	hooks := map[string]StateHooks{}
	for _, aid := range g.Actors() {
		aid := aid
		name := g.Actor(aid).Name
		ins := append([]dataflow.EdgeID(nil), g.In(aid)...)
		for i := 1; i < len(ins); i++ { // ascending edge-ID fold order
			for j := i; j > 0 && ins[j] < ins[j-1]; j-- {
				ins[j], ins[j-1] = ins[j-1], ins[j]
			}
		}
		outs := g.Out(aid)
		var acc uint64 // actor B's running state
		k := func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			h := fnv.New64a()
			fmt.Fprintf(h, "%s|%s|%d|%d", g.Name(), name, iter, seed)
			for _, id := range ins {
				fmt.Fprintf(h, "|%s:", g.Edge(id).Name)
				h.Write(in[id])
			}
			state := h.Sum64()
			if name == "B" {
				acc += state
				state ^= acc
			}
			if len(outs) == 0 {
				sinks.mu.Lock()
				sinks.d[name] ^= state * uint64(iter*2654435761+1)
				sinks.mu.Unlock()
				return nil, nil
			}
			out := map[dataflow.EdgeID][]byte{}
			for _, id := range outs {
				e := g.Edge(id)
				n := e.TokenBytes * e.Produce.Rate
				if e.Dynamic() && n > 1 {
					n = 1 + int(state%uint64(n))
				}
				buf := make([]byte, n)
				s := state ^ uint64(id)
				for i := range buf {
					s ^= s << 13
					s ^= s >> 7
					s ^= s << 17
					buf[i] = byte(s)
				}
				out[id] = buf
			}
			return out, nil
		}
		byID[aid] = k
		byName[name] = k
		if name == "B" {
			hooks[name] = StateHooks{
				Checkpoint: func() []byte {
					return binary.LittleEndian.AppendUint64(nil, acc)
				},
				Restore: func(state []byte) error {
					if state == nil {
						acc = 0
						return nil
					}
					if len(state) != 8 {
						return fmt.Errorf("state blob is %d bytes", len(state))
					}
					acc = binary.LittleEndian.Uint64(state)
					return nil
				},
			}
		}
	}
	return byID, byName, hooks
}

// pipelineGraph loads examples/graphs/pipeline.sdf with every actor on
// its own processor: a delayed static edge (token-granular under any
// B > 1) and an undelayed dynamic edge (slab-carried under any B).
func pipelineGraph(t *testing.T) (*dataflow.Graph, *sched.Mapping) {
	t.Helper()
	src, err := os.ReadFile("../../examples/graphs/pipeline.sdf")
	if err != nil {
		t.Fatal(err)
	}
	g, err := dataflow.ParseString(string(src))
	if err != nil {
		t.Fatal(err)
	}
	actors := g.Actors()
	m := &sched.Mapping{NumProcs: len(actors), Proc: make([]sched.Processor, len(actors))}
	for p, a := range actors {
		m.Proc[a] = sched.Processor(p)
		m.Order = append(m.Order, []dataflow.ActorID{a})
	}
	return g, m
}

// partReference runs the monolithic scalar executor over partGraph and
// returns the sink digests and per-actor firings the partitioned runs must
// reproduce exactly.
func partReference(t *testing.T, iterations int) (map[string]uint64, map[string]int) {
	t.Helper()
	g, m := partGraph()
	digests, firings, _ := graphReference(t, g, m, iterations)
	return digests, firings
}

// graphReference also returns the stateful actors' final checkpoints: the
// last iteration's inputs reach no sink, so only the state sees them.
func graphReference(t *testing.T, g *dataflow.Graph, m *sched.Mapping, iterations int) (map[string]uint64, map[string]int, map[string][]byte) {
	t.Helper()
	sinks := &partTestSinks{d: map[string]uint64{}}
	byID, _, hooks := partTestKernels(g, 7, sinks)
	st, err := Execute(g, m, byID, iterations)
	if err != nil {
		t.Fatal(err)
	}
	state := map[string][]byte{}
	for name, h := range hooks {
		state[name] = h.Checkpoint()
	}
	return sinks.snapshot(), st.ActorFirings, state
}

// runPartitionedEpochs drives the full coordinator loop in miniature:
// partition per the epoch's placement, thread Tails and State blobs across
// epoch boundaries (exactly what a live migration ships), run every worker
// over a fresh per-epoch loopback, and accumulate sink digests. placement
// maps an epoch index to (workerOf, workers); block is the blocking factor.
func runPartitionedEpochs(t *testing.T, g *dataflow.Graph, m *sched.Mapping, block, iterations, epochLen int,
	placement func(epoch int) ([]int, int)) (map[string]uint64, map[string]int, map[string][]byte) {
	t.Helper()
	sinks := &partTestSinks{d: map[string]uint64{}}
	tails, err := InitialPreloads(g, m)
	if err != nil {
		t.Fatal(err)
	}
	state := map[string][]byte{}
	firings := map[string]int{}
	for base, epoch := 0, 0; base < iterations; epoch++ {
		n := epochLen
		if left := iterations - base; n > left {
			n = left
		}
		workerOf, workers := placement(epoch)
		specs, err := BuildPartitions(g, m, workerOf, workers, block)
		if err != nil {
			t.Fatal(err)
		}
		if block > 1 && !carriesSlabs(specs) {
			t.Fatalf("block %d: no edge carries slabs", block)
		}
		// Fresh per-epoch transport and listeners: the epoch fence.
		tr := transport.NewLoopback()
		addrs := make([]string, workers)
		lns := make([]transport.Listener, workers)
		for w := 0; w < workers; w++ {
			ln, err := tr.Listen(fmt.Sprintf("epoch%d-w%d", epoch, w))
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			addrs[w] = ln.Addr()
			lns[w] = ln
		}
		results := make([]*PartResult, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			spec := specs[w]
			spec.BaseIter, spec.Iterations, spec.Addrs = base, n, addrs
			hosted := map[string]bool{}
			for pi := range spec.Procs {
				for _, a := range spec.Procs[pi].Actors {
					hosted[a.Name] = true
				}
			}
			for i := range spec.Edges {
				e := &spec.Edges[i]
				if (e.Out || e.SameProc) && e.Delay > 0 {
					spec.Preload[e.ID] = tails[e.ID]
				}
			}
			_, byName, hooks := partTestKernels(g, 7, sinks)
			opts := DistOptions{
				Transport: tr, Listener: lns[w],
				Retry: transport.RetryConfig{Attempts: 20, BaseDelay: time.Millisecond,
					MaxDelay: 5 * time.Millisecond},
				State: map[string]StateHooks{},
			}
			for name, h := range hooks {
				if hosted[name] {
					spec.State[name] = state[name]
					opts.State[name] = h
				}
			}
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				results[w], errs[w] = ExecutePartition(spec, byName, opts)
			}(w)
		}
		wg.Wait()
		for w, err := range errs {
			if err != nil {
				t.Fatalf("epoch %d worker %d: %v", epoch, w, err)
			}
		}
		for _, res := range results {
			for id, tl := range res.Tails {
				tails[id] = tl
			}
			for name, blob := range res.State {
				state[name] = blob
			}
			for name, nf := range res.Firings {
				firings[name] += nf
			}
		}
		base += n
	}
	return sinks.snapshot(), firings, state
}

func carriesSlabs(specs []*PartitionSpec) bool {
	for _, spec := range specs {
		for _, e := range spec.Edges {
			if e.Block > 1 {
				return true
			}
		}
	}
	return false
}

func checkPartDigests(t *testing.T, got, want map[string]uint64, gotF, wantF map[string]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("sink digests = %v, want %v", got, want)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("sink %s digest = %#x, want %#x", name, got[name], w)
		}
	}
	for name, w := range wantF {
		if gotF[name] != w {
			t.Errorf("actor %s fired %d times, want %d", name, gotF[name], w)
		}
	}
}

// TestExecutePartitionMatchesExecute runs one epoch of partGraph and of
// pipeline.sdf over one, two and three workers, scalar and blocked
// (B = 2, 4), and checks the sink digests and firing counts are
// bit-identical to the scalar monolithic run. 11 iterations leave a
// partial final block under every B > 1.
func TestExecutePartitionMatchesExecute(t *testing.T) {
	const iterations = 11
	graphs := map[string]func() (*dataflow.Graph, *sched.Mapping){
		"part":     partGraph,
		"pipeline": func() (*dataflow.Graph, *sched.Mapping) { return pipelineGraph(t) },
	}
	placements := [][]int{{0, 0, 0}, {0, 1, 1}, {0, 1, 2}}
	for name, build := range graphs {
		g, m := build()
		ref, refF, refS := graphReference(t, g, m, iterations)
		for _, block := range []int{1, 2, 4} {
			for _, workerOf := range placements {
				t.Run(fmt.Sprintf("%s/B=%d/workers=%d", name, block, workerOf[len(workerOf)-1]+1), func(t *testing.T) {
					got, gotF, gotS := runPartitionedEpochs(t, g, m, block, iterations, iterations,
						func(int) ([]int, int) { return workerOf, workerOf[len(workerOf)-1] + 1 })
					checkPartDigests(t, got, ref, gotF, refF)
					for name, want := range refS {
						if !bytes.Equal(gotS[name], want) {
							t.Errorf("actor %s final state = %x, want %x", name, gotS[name], want)
						}
					}
				})
			}
		}
	}
}

// TestExecutePartitionColocated places all processors on one worker: every
// cross-processor edge becomes an in-process SPI edge (Out and In both
// hosted), no links at all.
func TestExecutePartitionColocated(t *testing.T) {
	const iterations = 10
	ref, refF := partReference(t, iterations)
	g, m := partGraph()
	got, gotF, _ := runPartitionedEpochs(t, g, m, 1, iterations, iterations,
		func(int) ([]int, int) { return []int{0, 0, 0}, 1 })
	checkPartDigests(t, got, ref, gotF, refF)
}

// TestExecutePartitionMigration re-places processors at every epoch
// boundary — including shrinking from three workers to two and moving the
// stateful actor's processor — with Tails and State threaded across, the
// exact data a live migration ships, scalar and blocked (slab edges carry
// their tails as tokens). Digests must not move by a bit.
func TestExecutePartitionMigration(t *testing.T) {
	const iterations = 13
	ref, refF := partReference(t, iterations)
	g, m := partGraph()
	for _, block := range []int{1, 2, 4} {
		got, gotF, _ := runPartitionedEpochs(t, g, m, block, iterations, 5, func(epoch int) ([]int, int) {
			switch epoch % 3 {
			case 0:
				return []int{0, 1, 2}, 3
			case 1:
				return []int{1, 0, 1}, 2 // B's processor migrates to worker 0
			default:
				return []int{0, 0, 1}, 2
			}
		})
		checkPartDigests(t, got, ref, gotF, refF)
	}
}

// TestExecutePartitionShortEpochs runs one-iteration epochs — shorter than
// the deepest delay — so edge tails must carry unconsumed preloads across
// boundaries, with a placement rotation every epoch.
func TestExecutePartitionShortEpochs(t *testing.T) {
	const iterations = 6
	ref, refF := partReference(t, iterations)
	g, m := partGraph()
	got, gotF, _ := runPartitionedEpochs(t, g, m, 1, iterations, 1, func(epoch int) ([]int, int) {
		if epoch%2 == 0 {
			return []int{0, 1, 0}, 2
		}
		return []int{1, 0, 1}, 2
	})
	checkPartDigests(t, got, ref, gotF, refF)
}

// TestExecutePartitionResume severs the data link mid-epoch on a worker
// that holds nothing but its partition spec; RESUME replay must recover
// and keep the digests bit-identical — partition-scoped manifests lose no
// resumption capability.
func TestExecutePartitionResume(t *testing.T) {
	const iterations = 40
	ref, refF := partReference(t, iterations)

	g, m := partGraph()
	sinks := &partTestSinks{d: map[string]uint64{}}
	workerOf, workers := []int{0, 1, 0}, 2
	specs, err := BuildPartitions(g, m, workerOf, workers, 1)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := InitialPreloads(g, m)
	if err != nil {
		t.Fatal(err)
	}
	ft := transport.NewFaultTransport(transport.NewLoopback(), transport.FaultConfig{
		Seed: 42, SeverAt: []int{15, 33}, SkipFrames: 6,
	})
	addrs := make([]string, workers)
	lns := make([]transport.Listener, workers)
	for w := 0; w < workers; w++ {
		ln, err := ft.Listen(fmt.Sprintf("resume-w%d", w))
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[w], lns[w] = ln.Addr(), ln
	}
	results := make([]*PartResult, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		spec := specs[w]
		spec.BaseIter, spec.Iterations, spec.Addrs = 0, iterations, addrs
		for i := range spec.Edges {
			e := &spec.Edges[i]
			if (e.Out || e.SameProc) && e.Delay > 0 {
				spec.Preload[e.ID] = pre[e.ID]
			}
		}
		_, byName, hooks := partTestKernels(g, 7, sinks)
		opts := DistOptions{
			Transport: ft, Listener: lns[w],
			Retry: transport.RetryConfig{Attempts: 20, BaseDelay: time.Millisecond,
				MaxDelay: 5 * time.Millisecond},
			Reconnect: chaosReconnect(20 * time.Second),
			State:     map[string]StateHooks{},
		}
		if w == workerOf[1] {
			opts.State["B"] = hooks["B"]
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w], errs[w] = ExecutePartition(spec, byName, opts)
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("partition resume run wedged")
	}
	firings := map[string]int{}
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v (faults: %+v)", w, err, ft.Stats())
		}
		for name, n := range results[w].Firings {
			firings[name] += n
		}
	}
	if ft.Stats().Severs == 0 {
		t.Fatal("no sever landed; chaos schedule is inert")
	}
	checkPartDigests(t, sinks.snapshot(), ref, firings, refF)
}

// TestExecutePartitionAbort cancels a two-worker epoch mid-run: both
// workers must unwind promptly with the context error — the coordinator's
// Abort path.
func TestExecutePartitionAbort(t *testing.T) {
	g, m := partGraph()
	sinks := &partTestSinks{d: map[string]uint64{}}
	workerOf, workers := []int{0, 1, 0}, 2
	specs, err := BuildPartitions(g, m, workerOf, workers, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := transport.NewLoopback()
	addrs := make([]string, workers)
	lns := make([]transport.Listener, workers)
	for w := 0; w < workers; w++ {
		ln, err := tr.Listen(fmt.Sprintf("abort-w%d", w))
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[w], lns[w] = ln.Addr(), ln
	}
	ctx, cancel := context.WithCancel(context.Background())
	pre, err := InitialPreloads(g, m)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		spec := specs[w]
		spec.BaseIter, spec.Iterations, spec.Addrs = 0, 1<<20, addrs
		for i := range spec.Edges {
			e := &spec.Edges[i]
			if (e.Out || e.SameProc) && e.Delay > 0 {
				spec.Preload[e.ID] = pre[e.ID]
			}
		}
		_, byName, _ := partTestKernels(g, 7, sinks)
		// Gate actor A so the epoch is guaranteed in-flight when cancelled.
		inner := byName["A"]
		byName["A"] = func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
			if iter == 3 {
				close(release)
				<-ctx.Done()
			}
			return inner(iter, in)
		}
		opts := DistOptions{
			Transport: tr, Listener: lns[w], Context: ctx,
			Retry: transport.RetryConfig{Attempts: 20, BaseDelay: time.Millisecond,
				MaxDelay: 5 * time.Millisecond},
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, errs[w] = ExecutePartition(spec, byName, opts)
		}(w)
	}
	<-release
	cancel()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled partition run did not unwind")
	}
	for w, err := range errs {
		if err == nil {
			t.Errorf("worker %d: cancelled epoch completed cleanly", w)
		}
	}
}

// TestExecutePartitionCancelledHandshake dials a peer that accepts the
// data connection but never answers HELLO, then cancels the run: the
// executor must close the half-open connection and return the context
// error promptly instead of waiting out the handshake timeout.
func TestExecutePartitionCancelledHandshake(t *testing.T) {
	g, m := partGraph()
	specs, err := BuildPartitions(g, m, []int{0, 1, 0}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := InitialPreloads(g, m)
	if err != nil {
		t.Fatal(err)
	}
	tr := transport.NewLoopback()
	ln, err := tr.Listen("mute-w0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan transport.Conn, 1)
	go func() {
		c, _ := ln.Accept() // accepted, never read: a mute peer
		accepted <- c
	}()

	spec := specs[1]
	spec.Iterations, spec.Addrs = 10, []string{ln.Addr(), "unused"}
	for i := range spec.Edges {
		if e := &spec.Edges[i]; e.Out && e.Delay > 0 {
			spec.Preload[e.ID] = pre[e.ID]
		}
	}
	_, byName, _ := partTestKernels(g, 7, &partTestSinks{d: map[string]uint64{}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	_, err = ExecutePartition(spec, byName, DistOptions{Transport: tr, Context: ctx})
	elapsed := time.Since(start)
	if c := <-accepted; c != nil {
		c.Close()
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the context error", err)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("cancelled handshake returned after %v, want < 500ms", elapsed)
	}
}

// TestPartitionSpecValidation exercises the spec validator and the
// coordinator-side builder errors.
func TestPartitionSpecValidation(t *testing.T) {
	g, m := partGraph()
	if _, err := BuildPartitions(g, m, []int{0, 1}, 2, 1); err == nil {
		t.Error("short placement accepted")
	}
	if _, err := BuildPartitions(g, m, []int{0, 0, 3}, 3, 1); err == nil {
		t.Error("out-of-range placement accepted")
	}
	if _, err := BuildPartitions(g, m, []int{0, 0, 0}, 2, 1); err == nil ||
		!strings.Contains(err.Error(), "hosts no processors") {
		t.Errorf("empty worker accepted: %v", err)
	}
	specs, err := BuildPartitions(g, m, []int{0, 1, 0}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := specs[0]
	spec.BaseIter, spec.Iterations, spec.Addrs = 0, 1, []string{"x", "y"}
	sinks := &partTestSinks{d: map[string]uint64{}}
	_, byName, _ := partTestKernels(g, 7, sinks)
	if _, err := ExecutePartition(spec, nil, DistOptions{}); err == nil {
		t.Error("missing kernels accepted")
	}
	bad := *spec
	bad.Iterations = 0
	if _, err := ExecutePartition(&bad, byName, DistOptions{}); err == nil {
		t.Error("zero iterations accepted")
	}
	bad = *spec
	bad.Node = 2
	if _, err := ExecutePartition(&bad, byName, DistOptions{}); err == nil {
		t.Error("node out of worker range accepted")
	}
	bad = *spec
	bad.Edges = append([]PartEdge(nil), spec.Edges...)
	for i := range bad.Edges {
		if crossesWorkers(&bad.Edges[i]) {
			bad.Edges[i].Peer = 5
		}
	}
	if _, err := ExecutePartition(&bad, byName, DistOptions{}); err == nil {
		t.Error("out-of-range peer accepted")
	}
}

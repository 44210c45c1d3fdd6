package orch

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/demo"
	"repro/internal/sched"
	"repro/internal/spi"
	"repro/internal/transport"
)

// End-to-end orchestration tests: a coordinator and a pool of workers
// over a shared loopback, demo kernels on both sides, and the static
// single-node run as the bit-identity reference.

const orchSeed = 11

// orchGraph is a 4-actor signal chain over 3 processors, covering every
// edge class: cross-processor static with delay, cross-processor dynamic
// with delay, cross-processor static without delay, and a same-processor
// delayed edge.
func orchGraph() (*dataflow.Graph, *sched.Mapping, error) {
	g := dataflow.New("orch")
	src := g.AddActor("SRC", 1)
	fir := g.AddActor("FIR", 1)
	dec := g.AddActor("DEC", 1)
	snk := g.AddActor("SNK", 1)
	g.AddEdge("sf", src, fir, 1, 1, dataflow.EdgeSpec{TokenBytes: 8, Delay: 2})
	g.AddEdge("fd", fir, dec, 1, 1, dataflow.EdgeSpec{TokenBytes: 16, Delay: 1,
		ProduceDynamic: true, ConsumeDynamic: true})
	g.AddEdge("ds", dec, snk, 1, 1, dataflow.EdgeSpec{TokenBytes: 4})
	g.AddEdge("ss", src, snk, 1, 1, dataflow.EdgeSpec{TokenBytes: 6, Delay: 1})
	m, err := demo.Mapping(g, []int{0, 1, 2, 0})
	return g, m, err
}

// staticDigests runs the unpartitioned single-node reference.
func staticDigests(t *testing.T, iterations int) map[string]uint64 {
	t.Helper()
	g, m, err := orchGraph()
	if err != nil {
		t.Fatal(err)
	}
	digests := demo.Sinks(g)
	var mu sync.Mutex
	kernels, err := demo.Kernels(g, orchSeed, digests, &mu)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spi.Execute(g, m, kernels, iterations); err != nil {
		t.Fatal(err)
	}
	out := map[string]uint64{}
	for name, d := range digests {
		out[name] = *d
	}
	return out
}

// demoProvider builds the worker-side kernel set from a partition spec.
func demoProvider(spec *spi.PartitionSpec) (*KernelSet, error) {
	kernels, sinks := demo.PartKernels(spec, orchSeed)
	return &KernelSet{Kernels: kernels, Collect: sinks.Take}, nil
}

// chokeConn swallows writes once choked — the connection looks alive from
// this side (writes "succeed") but the peer hears pure silence, which is
// exactly the failure heartbeat liveness exists to catch.
type chokeConn struct {
	transport.Conn
	ct *chokeTransport
}

func (c *chokeConn) Write(p []byte) (int, error) {
	c.ct.mu.Lock()
	choked := c.ct.choked
	c.ct.mu.Unlock()
	if choked {
		return len(p), nil
	}
	return c.Conn.Write(p)
}

type chokeListener struct {
	transport.Listener
	ct *chokeTransport
}

func (l *chokeListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &chokeConn{Conn: c, ct: l.ct}, nil
}

// chokeTransport wraps a transport so every connection this side makes or
// accepts can be silenced at once.
type chokeTransport struct {
	transport.Transport
	mu     sync.Mutex
	choked bool
}

func (ct *chokeTransport) Choke() {
	ct.mu.Lock()
	ct.choked = true
	ct.mu.Unlock()
}

func (ct *chokeTransport) Dial(addr string) (transport.Conn, error) {
	c, err := ct.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &chokeConn{Conn: c, ct: ct}, nil
}

func (ct *chokeTransport) Listen(addr string) (transport.Listener, error) {
	ln, err := ct.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &chokeListener{Listener: ln, ct: ct}, nil
}

// orchRig wires a coordinator and workers over one loopback.
type orchRig struct {
	t     *testing.T
	tr    transport.Transport
	errs  map[string]chan error
	stops map[string]context.CancelFunc
}

func newRig(t *testing.T) *orchRig {
	return &orchRig{t: t, tr: transport.NewLoopback(),
		errs: map[string]chan error{}, stops: map[string]context.CancelFunc{}}
}

func fastRetry() transport.RetryConfig {
	return transport.RetryConfig{Attempts: 50, BaseDelay: time.Millisecond,
		MaxDelay: 5 * time.Millisecond}
}

// worker launches one worker over tr (the rig's loopback unless a choke
// wrapper is supplied) and records its exit error.
func (r *orchRig) worker(name string, tr transport.Transport) *Worker {
	return r.workerWith(name, tr, demoProvider)
}

// workerWith is worker with a custom kernel provider.
func (r *orchRig) workerWith(name string, tr transport.Transport, kernels func(*spi.PartitionSpec) (*KernelSet, error)) *Worker {
	if tr == nil {
		tr = r.tr
	}
	w, err := NewWorker(WorkerConfig{
		Transport: tr, Coord: "coord", Name: name, Kernels: kernels,
		Retry:     fastRetry(),
		Heartbeat: 20 * time.Millisecond, PeerTimeout: 150 * time.Millisecond,
	})
	if err != nil {
		r.t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.stops[name] = cancel
	ch := make(chan error, 1)
	r.errs[name] = ch
	go func() { ch <- w.Run(ctx) }()
	return w
}

// coord runs the coordinator to completion.
func (r *orchRig) coord(iterations, epochIters, minWorkers int, tweak func(*CoordConfig)) (*Report, error) {
	g, m, err := orchGraph()
	if err != nil {
		r.t.Fatal(err)
	}
	cfg := CoordConfig{
		Transport: r.tr, Addr: "coord", Graph: g, Mapping: m,
		Iterations: iterations, EpochIters: epochIters, MinWorkers: minWorkers,
		Heartbeat: 20 * time.Millisecond, PeerTimeout: 150 * time.Millisecond,
		EpochTimeout: 15 * time.Second,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		r.t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	return c.Run(ctx)
}

func (r *orchRig) stopAll() {
	for _, cancel := range r.stops {
		cancel()
	}
}

func checkDigests(t *testing.T, rep *Report, want map[string]uint64) {
	t.Helper()
	if len(rep.Digests) != len(want) {
		t.Fatalf("digests = %v, want %v", rep.Digests, want)
	}
	for name, w := range want {
		if rep.Digests[name] != w {
			t.Errorf("sink %s digest = %#x, want %#x (static)", name, rep.Digests[name], w)
		}
	}
}

// TestOrchestratedMatchesStatic runs a healthy 3-worker pool over several
// epochs and checks the folded digests are bit-identical to the static
// single-node run.
func TestOrchestratedMatchesStatic(t *testing.T) {
	const iterations = 24
	want := staticDigests(t, iterations)
	r := newRig(t)
	defer r.stopAll()
	for _, n := range []string{"w0", "w1", "w2"} {
		r.worker(n, nil)
	}
	rep, err := r.coord(iterations, 6, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkDigests(t, rep, want)
	if rep.Iterations != iterations || rep.Commits != 4 || rep.Aborts != 0 {
		t.Errorf("iterations/commits/aborts = %d/%d/%d, want %d/4/0",
			rep.Iterations, rep.Commits, rep.Aborts, iterations)
	}
	for _, n := range []string{"w0", "w1", "w2"} {
		if err := <-r.errs[n]; err != nil {
			t.Errorf("worker %s: %v", n, err)
		}
	}
}

// TestOrchestratedForcedMigration rotates the placement at one epoch
// boundary — a forced live migration of every processor — and requires
// bit-identical digests plus a nonzero migration count.
func TestOrchestratedForcedMigration(t *testing.T) {
	const iterations = 24
	want := staticDigests(t, iterations)
	r := newRig(t)
	defer r.stopAll()
	for _, n := range []string{"w0", "w1", "w2"} {
		r.worker(n, nil)
	}
	rep, err := r.coord(iterations, 6, 3, func(cfg *CoordConfig) {
		cfg.OnPlace = func(epoch int, placement []int, ids []uint32) []int {
			if epoch != 2 {
				return placement
			}
			rotated := make([]int, len(placement))
			for p, slot := range placement {
				rotated[p] = (slot + 1) % len(ids)
			}
			return rotated
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	checkDigests(t, rep, want)
	if rep.Migrations == 0 {
		t.Error("forced rotation produced no recorded migrations")
	}
	if rep.Aborts != 0 {
		t.Errorf("planned migration needed %d aborts; it must be abort-free", rep.Aborts)
	}
}

// TestOrchestratedWorkerDeath kills one worker as an epoch dispatches.
// The coordinator must abort the epoch, reap the worker, re-place its
// processors on the survivors, replay the stalled iterations, and still
// produce bit-identical digests — no duplicated and no lost tokens.
func TestOrchestratedWorkerDeath(t *testing.T) {
	const iterations = 24
	want := staticDigests(t, iterations)
	r := newRig(t)
	defer r.stopAll()
	for _, n := range []string{"w0", "w1", "w2"} {
		r.worker(n, nil)
	}
	var once sync.Once
	rep, err := r.coord(iterations, 6, 3, func(cfg *CoordConfig) {
		cfg.OnDispatch = func(epoch int) {
			if epoch == 1 {
				once.Do(func() { r.stops["w2"]() })
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	checkDigests(t, rep, want)
	if rep.WorkersLost != 1 {
		t.Errorf("WorkersLost = %d, want 1", rep.WorkersLost)
	}
	if rep.Migrations == 0 {
		t.Error("dead worker's processors were never re-placed")
	}
	if rep.Iterations != iterations {
		t.Errorf("committed %d iterations, want %d", rep.Iterations, iterations)
	}
}

// TestOrchestratedHeartbeatDeath chokes one worker mid-epoch: its writes
// vanish but its connections stay open, so only heartbeat liveness can
// declare it dead. The pool must detect, abort, re-place, and finish with
// bit-identical digests, counting the stalled tokens.
func TestOrchestratedHeartbeatDeath(t *testing.T) {
	const iterations = 24
	want := staticDigests(t, iterations)
	r := newRig(t)
	defer r.stopAll()
	ct := &chokeTransport{Transport: r.tr}
	r.worker("w0", nil)
	r.worker("w1", ct)
	r.worker("w2", nil)
	var once sync.Once
	rep, err := r.coord(iterations, 6, 3, func(cfg *CoordConfig) {
		cfg.OnDispatch = func(epoch int) {
			if epoch == 1 {
				once.Do(ct.Choke)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	checkDigests(t, rep, want)
	if rep.Aborts == 0 || rep.StalledTokens == 0 {
		t.Errorf("aborts/stalled = %d/%d, want both nonzero", rep.Aborts, rep.StalledTokens)
	}
	if rep.WorkersLost == 0 {
		t.Error("choked worker was never declared dead")
	}
	if rep.RecoveryNS <= 0 {
		t.Error("recovery time was not measured")
	}
	if err := <-r.errs["w1"]; err == nil {
		t.Error("choked worker exited cleanly")
	}
}

// ctrlFaultTransport routes only the worker's control-plane dial (the
// coordinator address) through a seeded chaos transport; the data plane
// and listeners pass through untouched. This aims the fault schedule at
// one connection deterministically.
type ctrlFaultTransport struct {
	transport.Transport
	ft    *transport.FaultTransport
	coord string
}

func (s *ctrlFaultTransport) Dial(addr string) (transport.Conn, error) {
	if addr == s.coord {
		return s.ft.Dial(addr)
	}
	return s.Transport.Dial(addr)
}

// TestOrchestratedChaosSeverMigration severs the source worker's control
// link mid-block under a seeded fault schedule. The coordinator must see
// the dead link, reap the worker, migrate its actors (SRC included) onto
// the survivors, and replay — with sink digests bit-identical to the
// static run. The worker itself is alive and rejoins over a fresh control
// link; MaxFaults confines the schedule to the first one, so the rejoined
// worker is not severed again.
func TestOrchestratedChaosSeverMigration(t *testing.T) {
	const iterations = 24
	want := staticDigests(t, iterations)
	r := newRig(t)
	defer r.stopAll()
	ft := transport.NewFaultTransport(r.tr, transport.FaultConfig{
		Seed: 7, SeverAt: []int{9}, SkipFrames: 4, MaxFaults: 1,
	})
	// Stagger the registrations so w0 takes slot 0 — the source worker:
	// with uniform load the balancer leaves proc 0 (SRC) on the first
	// registered worker.
	r.worker("w0", &ctrlFaultTransport{Transport: r.tr, ft: ft, coord: "coord"})
	time.Sleep(50 * time.Millisecond)
	r.worker("w1", nil)
	r.worker("w2", nil)
	rep, err := r.coord(iterations, 6, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkDigests(t, rep, want)
	if st := ft.Stats(); st.Severs == 0 {
		t.Fatal("fault schedule never severed the control link")
	}
	if rep.WorkersLost != 1 {
		t.Errorf("WorkersLost = %d, want 1", rep.WorkersLost)
	}
	if rep.Migrations == 0 {
		t.Error("severed worker's actors were never migrated")
	}
	if rep.Iterations != iterations {
		t.Errorf("committed %d iterations, want %d", rep.Iterations, iterations)
	}
}

// TestOrchestratedLateJoiner starts with a single worker and adds a
// second mid-run: the next epoch boundary must rebalance processors onto
// the joiner (a migration), with digests unmoved.
func TestOrchestratedLateJoiner(t *testing.T) {
	const iterations = 24
	want := staticDigests(t, iterations)
	r := newRig(t)
	defer r.stopAll()
	// w0 holds its second epoch (iterations 6..11) until the late joiner
	// is registered. The coordinator handles registrations while it waits
	// on that epoch, so the joiner is deterministically in the pool
	// before epoch 2 is placed.
	registered := make(chan struct{})
	r.workerWith("w0", nil, func(spec *spi.PartitionSpec) (*KernelSet, error) {
		if spec.BaseIter == 6 {
			<-registered
		}
		return demoProvider(spec)
	})
	var once sync.Once
	rep, err := r.coord(iterations, 6, 1, func(cfg *CoordConfig) {
		cfg.OnDispatch = func(epoch int) {
			if epoch == 0 {
				once.Do(func() {
					late := r.worker("late", nil)
					go func() {
						defer close(registered)
						for deadline := time.Now().Add(10 * time.Second); late.id.Load() == 0 && time.Now().Before(deadline); {
							time.Sleep(time.Millisecond)
						}
					}()
				})
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	checkDigests(t, rep, want)
	if rep.WorkersSeen != 2 {
		t.Errorf("WorkersSeen = %d, want 2", rep.WorkersSeen)
	}
	if rep.Migrations == 0 {
		t.Error("late joiner never picked up rebalanced processors")
	}
}

// severTransport remembers the worker's latest control connection (its
// dial to the coordinator address) so a test can cut it while the worker
// itself stays alive.
type severTransport struct {
	transport.Transport
	coord string
	mu    sync.Mutex
	conn  transport.Conn
}

func (s *severTransport) Dial(addr string) (transport.Conn, error) {
	c, err := s.Transport.Dial(addr)
	if err == nil && addr == s.coord {
		s.mu.Lock()
		s.conn = c
		s.mu.Unlock()
	}
	return c, err
}

func (s *severTransport) Sever() {
	s.mu.Lock()
	c := s.conn
	s.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// TestOrchestratedWorkerRejoins severs a live worker's control link as an
// epoch dispatches. The coordinator reaps it, but the worker is alive: it
// must redial and register again, rejoining the pool, while the run
// completes with digests bit-identical to the static run.
func TestOrchestratedWorkerRejoins(t *testing.T) {
	const iterations = 48
	want := staticDigests(t, iterations)
	r := newRig(t)
	defer r.stopAll()
	st := &severTransport{Transport: r.tr, coord: "coord"}
	r.worker("w0", nil)
	r.worker("w1", st)
	r.worker("w2", nil)
	var once sync.Once
	rep, err := r.coord(iterations, 6, 3, func(cfg *CoordConfig) {
		cfg.OnDispatch = func(epoch int) {
			if epoch == 1 {
				once.Do(st.Sever)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	checkDigests(t, rep, want)
	if rep.WorkersLost != 1 {
		t.Errorf("WorkersLost = %d, want 1", rep.WorkersLost)
	}
	if rep.WorkersSeen != 4 {
		t.Errorf("WorkersSeen = %d, want 4 (three workers plus the rejoin)", rep.WorkersSeen)
	}
	if rep.Iterations != iterations {
		t.Errorf("committed %d iterations, want %d", rep.Iterations, iterations)
	}
	if err := <-r.errs["w1"]; err != nil {
		t.Errorf("rejoined worker did not shut down cleanly: %v", err)
	}
}

package spi

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataflow"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Functional execution: run a mapped dataflow graph's actors as real
// computations. Each processor becomes a goroutine executing its actor
// order per iteration; interprocessor edges ride the SPI software runtime
// (with the same mode/protocol selection as the platform lowering), and
// same-processor edges are plain local queues. This is the programming
// model a downstream SPI user writes against: supply a Kernel per actor,
// get the paper's separation of computation from communication for free.
//
// There is one executor: ExecutePartition runs one PartitionSpec (see
// partition.go) with one firing loop, the blocked loop of vector.go with
// B = 1 as the scalar case. Execute and ExecuteBlocked lower to a single
// spec hosting every processor; ExecuteDistributed (dist.go) lowers to
// its own node's spec, with cross-node edges bound to network links.

// Kernel is an actor's functional body for one block firing: it receives
// the packed payload from every input edge (keyed by edge ID; edges whose
// initial delay covers this iteration deliver nil) and returns the packed
// payload for every output edge. Omitted outputs send empty payloads.
//
// Input payloads (and the map itself) are valid only for the duration of
// the call: the executor reuses the buffers for the next firing, so a
// kernel that carries state across firings must copy what it keeps.
// Returning an input slice as an output payload is allowed — the send
// completes before the buffer is reused.
type Kernel func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error)

// ExecStats reports a functional run.
type ExecStats struct {
	// Iterations completed.
	Iterations int
	// SPI aggregates the interprocessor runtime statistics.
	SPI EdgeStats
	// Edges breaks the SPI traffic down per interprocessor edge, sorted
	// by edge ID.
	Edges []EdgeTraffic
	// ActorFirings counts completed firings per actor hosted on this
	// node. In a degraded run a starved actor's count shows how far it
	// got before its inputs or outputs died.
	ActorFirings map[string]int
	// LocalTransfers counts same-processor payload hand-offs.
	LocalTransfers int64
}

// execEnv is the execution engine: one partition spec's edges bound to a
// runtime, and the self-timed per-processor firing loop over them.
type execEnv struct {
	spec  *PartitionSpec
	opts  *DistOptions
	block int // blocking factor B, 1 for scalar
	rt    *Runtime

	edges  []*execEdge    // spec order
	actors [][]*execActor // per hosted processor, parallel to spec.Procs

	localMu        sync.Mutex // guards every execEdge.local
	localTransfers int64
}

// execEdge is one spec edge bound to the run. Each edge has one producer
// and one consumer, so the per-edge buffers below belong to the loop of
// the processor hosting that side.
type execEdge struct {
	*PartEdge
	tx   *Sender   // cross-processor edges
	rx   *Receiver // cross-processor edges
	link MessageLink

	local [][]byte // same-processor queue, under execEnv.localMu
	tail  [][]byte // in-flight tokens of a delayed Out edge

	recvTok  [][]byte // consumer: per-token receive buffers
	recvSlab []byte   // consumer: slab receive buffer
	views    [][]byte // consumer: token views into recvSlab
	sendSlab []byte   // producer: slab under construction
}

// execActor is one hosted actor.
type execActor struct {
	name    string
	kernel  Kernel
	vkernel VectorKernel // blocked runs only
	in, out []*execEdge
	fired   atomic.Int64 // completed firings, polled by the watchdog
	busy    int64        // kernel nanoseconds, owned by the processor loop
	obs     actorObs
}

// actorRowBase offsets kernel-firing trace rows (tid = actorRowBase +
// processor) past the per-edge rows (tid = edge ID) and the transport's
// session rows, so one Chrome trace shows edges, links, and kernels on
// distinct tracks.
const actorRowBase = 1000

// actorObs is one actor's firing instrumentation; the zero value (no
// observer) reduces to the lock-free firing counter alone.
type actorObs struct {
	firings *obs.Counter
	latency *obs.Histogram
	tr      *obs.Tracer
	pid     int
	name    string
	tid     int
}

func newActorObs(name string, proc int, o *obs.Observer) actorObs {
	ao := actorObs{name: name, tid: actorRowBase + proc}
	if o != nil {
		l := obs.L("actor", name)
		ao.firings = o.Counter("spi_actor_firings_total", "Completed actor firings.", l)
		ao.latency = o.Histogram("spi_actor_fire_latency_us", "Kernel execution time per firing in microseconds.", obs.LatencyBucketsUS, l)
		ao.tr = o.Tracer()
		ao.pid = o.Pid()
	}
	return ao
}

func newExecEnv(spec *PartitionSpec, kernels map[string]Kernel, opts *DistOptions) (*execEnv, error) {
	if err := validatePartition(spec); err != nil {
		return nil, err
	}
	env := &execEnv{spec: spec, opts: opts, block: max(spec.Block, 1), rt: NewRuntime()}
	env.rt.SetObserver(opts.Obs)
	edges := make([]execEdge, len(spec.Edges))
	env.edges = make([]*execEdge, len(spec.Edges))
	byID := make(map[uint16]*execEdge, len(spec.Edges))
	for i := range spec.Edges {
		e := &edges[i]
		e.PartEdge = &spec.Edges[i]
		if byID[e.ID] != nil {
			return nil, fmt.Errorf("spi: partition declares edge %d twice", e.ID)
		}
		env.edges[i], byID[e.ID] = e, e
	}
	bind := func(a *PartActor, ids []uint16) ([]*execEdge, error) {
		out := make([]*execEdge, len(ids))
		for i, id := range ids {
			if out[i] = byID[id]; out[i] == nil {
				return nil, fmt.Errorf("spi: actor %s references undeclared edge %d", a.Name, id)
			}
		}
		return out, nil
	}
	env.actors = make([][]*execActor, len(spec.Procs))
	for pi := range spec.Procs {
		proc := &spec.Procs[pi]
		actors := make([]execActor, len(proc.Actors))
		env.actors[pi] = make([]*execActor, len(proc.Actors))
		for ai := range proc.Actors {
			pa, a := &proc.Actors[ai], &actors[ai]
			a.name, a.kernel = pa.Name, kernels[pa.Name]
			if env.block > 1 {
				a.vkernel = opts.VectorKernels[pa.Name]
			}
			if a.kernel == nil && a.vkernel == nil {
				return nil, fmt.Errorf("spi: actor %s has no kernel", pa.Name)
			}
			var err error
			if a.in, err = bind(pa, pa.In); err != nil {
				return nil, err
			}
			if a.out, err = bind(pa, pa.Out); err != nil {
				return nil, err
			}
			a.obs = newActorObs(pa.Name, proc.Proc, opts.Obs)
			env.actors[pi][ai] = a
		}
	}
	return env, nil
}

// execute runs the partition: restore actor state, bring up the runtime
// edges and links, replay the preloaded tokens, fire every processor
// under the watchdog, and collect the result.
func (env *execEnv) execute() (*PartResult, error) {
	spec, opts := env.spec, env.opts
	for name, hooks := range opts.State {
		if hooks.Restore == nil {
			continue
		}
		if err := hooks.Restore(spec.State[name]); err != nil {
			return nil, fmt.Errorf("spi: restore state of actor %s: %w", name, err)
		}
	}

	// Initialize every runtime edge before any link comes up, so inbound
	// DATA always finds its queue.
	peers := map[int]*peerPlan{}
	var resync []uint16
	for _, e := range env.edges {
		if e.SameProc {
			e.local = clonePayloads(spec.Preload[e.ID])
			continue
		}
		tx, rx, err := env.rt.Init(e.config())
		if err != nil {
			return nil, err
		}
		e.tx, e.rx = tx, rx
		if e.Out {
			e.tail = clonePayloads(spec.Preload[e.ID])
		}
		if !crossesWorkers(e.PartEdge) {
			continue
		}
		pp := peers[e.Peer]
		if pp == nil {
			pp = &peerPlan{}
			peers[e.Peer] = pp
		}
		pp.decls = append(pp.decls, e.decl(e.Out))
		pp.ids = append(pp.ids, EdgeID(e.ID))
		if spec.Resync && e.SuppressAck {
			resync = append(resync, e.ID)
		}
	}
	sort.Slice(resync, func(i, j int) bool { return resync[i] < resync[j] })

	fails := &peerFails{}
	links, owned, finish, err := env.connect(peers, resync, fails)
	if err != nil {
		return nil, err
	}
	// Bind the cross-worker halves, then replay the in-flight tokens —
	// sender side only, so each token crosses the wire exactly once.
	for _, e := range env.edges {
		var err error
		if crossesWorkers(e.PartEdge) {
			e.link = links[e.Peer]
			if e.Out {
				err = env.rt.BindRemoteSender(EdgeID(e.ID), e.link)
			} else {
				err = env.rt.BindRemoteReceiver(EdgeID(e.ID), e.link)
			}
		}
		if err == nil && e.Out {
			err = e.preload(spec.Preload[e.ID])
		}
		if err != nil {
			env.rt.CloseAll()
			finish(false)
			return nil, err
		}
	}

	procErrs, wdErr := env.runWatched(watchConfig{
		stall: opts.StallTimeout, ctx: opts.Context, o: opts.Obs, node: spec.Node,
	})
	runErr := watchVerdict(collapseErrs(procErrs), wdErr)
	// A failed fail-fast run aborts its links, so peers observe a failure
	// and close the shared edges instead of a GOODBYE that looks like a
	// normal completion. Degraded runs close gracefully: surviving peers
	// already received FINs for the starved edges, and a GOODBYE lets them
	// finish their own drains normally.
	finish(runErr == nil || opts.Degrade)

	// Fold the links' per-edge ack accounting into the runtime statistics:
	// acks that rode outgoing DATA frames, and acks the resynchronization
	// verdict kept off the wire entirely.
	for _, l := range owned {
		for edge, n := range l.PiggybackedAcks() {
			env.rt.addPiggybacked(EdgeID(edge), n)
		}
		for edge, n := range l.SuppressedAcks() {
			env.rt.addSuppressed(EdgeID(edge), n)
		}
	}
	if runErr != nil && !opts.Degrade {
		if cause := fails.first(); cause != nil && errors.Is(runErr, ErrClosed) {
			return nil, fmt.Errorf("spi: node %d: %w (link failure: %v)", spec.Node, runErr, cause)
		}
		return nil, runErr
	}
	res := env.result()
	if opts.Degrade {
		if err := env.degraded(procErrs, wdErr, fails, res.Firings); err != nil {
			return res, err
		}
	}
	return res, nil
}

// preload replays an Out edge's in-flight tokens through its sender as
// one SendBatch, so a write-coalescing link ships them in a single flush.
// A blocked edge sends them as whole Block-token slabs.
func (e *execEdge) preload(tokens [][]byte) error {
	if len(tokens) == 0 {
		return nil
	}
	if bf := int(e.Block); bf > 1 {
		if len(tokens)%bf != 0 {
			return fmt.Errorf("spi: preload edge %s: %d tokens do not fill whole %d-token slabs", e.Name, len(tokens), bf)
		}
		slabs := make([][]byte, 0, len(tokens)/bf)
		for i := 0; i < len(tokens); i += bf {
			slab, err := PackSlab(nil, tokens[i:i+bf], int(e.BMax), e.Dynamic)
			if err != nil {
				return fmt.Errorf("spi: preload edge %s: %w", e.Name, err)
			}
			slabs = append(slabs, slab)
		}
		tokens = slabs
	}
	if err := e.tx.SendBatch(tokens); err != nil {
		return fmt.Errorf("spi: preload edge %s: %w", e.Name, err)
	}
	return nil
}

// result snapshots the finished run. Call only after the processors
// returned (the WaitGroup orders the reads).
func (env *execEnv) result() *PartResult {
	res := &PartResult{
		Tails:   map[uint16][][]byte{},
		State:   map[string][]byte{},
		Firings: map[string]int{},
		ProcNS:  make([]int64, len(env.actors)),
		SPI:     env.rt.TotalStats(),
	}
	for pi, acts := range env.actors {
		for _, a := range acts {
			res.Firings[a.name] = int(a.fired.Load())
			res.ProcNS[pi] += a.busy
		}
	}
	for _, e := range env.edges {
		switch {
		case e.Delay == 0:
		case e.SameProc:
			// The local queue itself is the in-flight state (it handles
			// epochs shorter than the delay for free).
			res.Tails[e.ID] = clonePayloads(e.local)
		case e.Out:
			res.Tails[e.ID] = e.tail
		}
	}
	for name, hooks := range env.opts.State {
		if hooks.Checkpoint != nil {
			res.State[name] = hooks.Checkpoint()
		}
	}
	return res
}

// degraded reports a Degrade-mode run: nil when nothing failed, else a
// *DegradedError naming the dead peers, the starved actors, and the root
// cause.
func (env *execEnv) degraded(procErrs []error, wdErr error, fails *peerFails, firings map[string]int) error {
	peerErrs := fails.snapshot()
	var starved []string
	starvedFirings := map[string]int{}
	var cause error
	for pi, perr := range procErrs {
		if perr == nil {
			continue
		}
		if cause == nil || errors.Is(cause, ErrClosed) && !errors.Is(perr, ErrClosed) {
			cause = perr
		}
		for _, a := range env.actors[pi] {
			starved = append(starved, a.name)
			starvedFirings[a.name] = firings[a.name]
		}
	}
	if wdErr != nil && (cause == nil || errors.Is(cause, ErrClosed) || cancelled(wdErr)) {
		// The watchdog's CloseAll is what cascaded ErrClosed (and, on
		// peers, link teardown errors) through the processors; the stall
		// or cancellation is the root.
		cause = wdErr
	}
	if cause == nil && len(peerErrs) == 0 {
		return nil
	}
	if cause == nil {
		cause = fails.first()
	}
	sort.Strings(starved)
	return &DegradedError{Node: env.spec.Node, Peers: peerErrs, Starved: starved, Firings: starvedFirings, Cause: cause}
}

// run executes every hosted processor, one goroutine each, and returns
// the per-processor outcomes. A failing processor releases its peers: in
// fail-fast mode by closing every runtime edge, in degraded mode by
// starving only the edges incident to its own actors.
func (env *execEnv) run() []error {
	errs := make([]error, len(env.actors))
	var wg sync.WaitGroup
	for pi := range env.actors {
		wg.Add(1)
		go func(pi int) {
			defer wg.Done()
			if errs[pi] = env.runBlocks(pi); errs[pi] == nil {
				return
			}
			if env.opts.Degrade {
				env.starveProc(pi)
			} else {
				env.rt.CloseAll()
			}
		}(pi)
	}
	wg.Wait()
	return errs
}

// starveProc propagates one processor's death along exactly its own edges:
// every cross-processor edge incident to its actors is closed (receivers
// drain what is already queued, then see ErrClosed) and, for cross-node
// edges, FIN'd so the remote half starves too — out-edge FINs cut the data
// supply, in-edge FINs release remote BBS senders waiting on credits that
// will never come. Actors not reachable from the dead processor keep
// running to completion.
func (env *execEnv) starveProc(pi int) {
	for _, a := range env.actors[pi] {
		for _, e := range append(append([]*execEdge(nil), a.in...), a.out...) {
			if e.SameProc {
				continue // dies with the processor
			}
			if e.link != nil {
				// Best effort: the link may be the very thing that died.
				_ = e.link.SendFin(e.ID)
			}
			env.rt.CloseEdge(EdgeID(e.ID))
		}
	}
}

// collapseErrs reduces per-processor outcomes to one error, preferring the
// root cause: a processor that died on its own kernel or bound violation,
// not the peers unblocked with ErrClosed as a consequence.
func collapseErrs(errs []error) error {
	var closedErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, ErrClosed) {
			if closedErr == nil {
				closedErr = err
			}
			continue
		}
		return err
	}
	return closedErr
}

// runBlocks is one processor's self-timed loop, the only firing loop: fire
// the mapped actors in schedule order n iterations at a time (n = the
// blocking factor B, or the remainder on a final partial block; B = 1 is
// scalar execution), each blocking only on the data its input edges
// deliver. Block-aligned remote edges deliver and emit one packed slab per
// block; other remote edges stay token-granular (n receives / n sends per
// block); local queues are popped and pushed n tokens at a time. Blocked
// and scalar runs of the same graph are bit-identical: the kernels see
// the same iteration numbers and the same input bytes in the same order.
func (env *execEnv) runBlocks(pi int) error {
	B, iterations := env.block, env.spec.Iterations
	var toks [][][]byte // per input edge of the current actor: its n tokens
	scalarIn := map[dataflow.EdgeID][]byte{}
	var vectorIn map[dataflow.EdgeID][][]byte // built on the first VectorKernel firing
	for base := 0; base < iterations; base += B {
		n := min(B, iterations-base)
		for _, a := range env.actors[pi] {
			toks = toks[:0]
			remoteIn := false
			for _, e := range a.in {
				t, remote, err := env.take(a, e, n)
				if err != nil {
					return err
				}
				toks = append(toks, t)
				remoteIn = remoteIn || remote
			}
			start := a.obs.tr.Now()
			var err error
			if a.vkernel != nil {
				if vectorIn == nil {
					vectorIn = map[dataflow.EdgeID][][]byte{}
				}
				clear(vectorIn)
				for k, e := range a.in {
					vectorIn[dataflow.EdgeID(e.ID)] = toks[k]
				}
				err = env.fireVector(a, base, n, vectorIn)
			} else {
				// A scalar run's producer and consumer alternate firing by
				// firing, so a local push needs a private copy only when
				// the kernel may have passed a reused receive buffer
				// through; in a blocked run the producer fires its whole
				// block first, so every push must outlive the kernel's
				// buffer reuse.
				err = env.fireLifted(a, base, n, toks, scalarIn, B > 1 || remoteIn)
			}
			if err != nil {
				return err
			}
			iter := env.spec.BaseIter + base
			a.obs.tr.Span("kernel", a.obs.name, a.obs.pid, a.obs.tid, start, obs.A("iter", int64(iter)))
			a.obs.latency.Observe(float64(a.obs.tr.Now() - start))
			a.obs.firings.Add(int64(n))
			a.fired.Add(int64(n))
		}
	}
	return nil
}

// take gathers the n tokens one input edge delivers for a block: popped
// from the local queue, split from one slab, or received one message at a
// time into buffers reused across blocks (each edge has one consumer, so
// the buffers are this loop's alone). remote reports tokens that alias
// those reused buffers.
func (env *execEnv) take(a *execActor, e *execEdge, n int) (toks [][]byte, remote bool, err error) {
	if e.rx == nil {
		env.localMu.Lock()
		defer env.localMu.Unlock()
		if len(e.local) < n {
			return nil, false, fmt.Errorf("spi: actor %s local underflow on %s: needs %d tokens, have %d (delay too small for the block)",
				a.name, e.Name, n, len(e.local))
		}
		toks, e.local = e.local[:n:n], e.local[n:]
		env.localTransfers += int64(n)
		return toks, false, nil
	}
	if e.Block > 1 {
		slab, err := e.rx.ReceiveInto(e.recvSlab)
		if err != nil {
			return nil, false, fmt.Errorf("spi: actor %s recv %s: %w", a.name, e.Name, err)
		}
		e.recvSlab = slab
		v, err := UnpackSlab(slab, n, int(e.BMax), e.Dynamic, e.views)
		if err != nil {
			return nil, false, fmt.Errorf("spi: actor %s edge %s: %w", a.name, e.Name, err)
		}
		e.views = v
		return v[:n], true, nil
	}
	for len(e.recvTok) < n {
		e.recvTok = append(e.recvTok, nil)
	}
	for j := 0; j < n; j++ {
		payload, err := e.rx.ReceiveInto(e.recvTok[j])
		if err != nil {
			return nil, false, fmt.Errorf("spi: actor %s recv %s: %w", a.name, e.Name, err)
		}
		e.recvTok[j] = payload
	}
	return e.recvTok[:n], true, nil
}

// fireLifted fires an actor's scalar kernel once per iteration of the
// block, routing each firing's outputs before the next: blocked edges
// pack (copy) the payload into the outgoing slab, other remote edges send
// immediately, and local pushes copy when copyLocal is set.
func (env *execEnv) fireLifted(a *execActor, base, n int, toks [][][]byte, scalarIn map[dataflow.EdgeID][]byte, copyLocal bool) error {
	for _, e := range a.out {
		if e.Block > 1 {
			e.sendSlab = beginSlab(e.sendSlab, n, e.Dynamic)
		}
	}
	for j := 0; j < n; j++ {
		clear(scalarIn)
		for k, e := range a.in {
			scalarIn[dataflow.EdgeID(e.ID)] = toks[k][j]
		}
		iter := env.spec.BaseIter + base + j
		start := time.Now()
		out, err := a.kernel(iter, scalarIn)
		a.busy += int64(time.Since(start))
		if err != nil {
			return fmt.Errorf("spi: actor %s iteration %d: %w", a.name, iter, err)
		}
		for _, e := range a.out {
			if err := env.emit(a, e, base+j, j, out[dataflow.EdgeID(e.ID)], copyLocal); err != nil {
				return err
			}
		}
	}
	return env.flushSlabs(a)
}

// fireVector fires an actor's VectorKernel once for the whole block and
// routes the returned per-edge token lists: blocked edges pack one slab,
// other remote edges send n messages, local queues take private copies.
func (env *execEnv) fireVector(a *execActor, base, n int, in map[dataflow.EdgeID][][]byte) error {
	iter := env.spec.BaseIter + base
	start := time.Now()
	out, err := a.vkernel(iter, n, in)
	a.busy += int64(time.Since(start))
	if err != nil {
		return fmt.Errorf("spi: actor %s iterations %d..%d: %w", a.name, iter, iter+n-1, err)
	}
	for _, e := range a.out {
		toks := out[dataflow.EdgeID(e.ID)] // nil means n empty payloads
		if toks != nil && len(toks) != n {
			return fmt.Errorf("spi: actor %s vector kernel returned %d payloads on edge %s, block needs %d",
				a.name, len(toks), e.Name, n)
		}
		if e.Block > 1 {
			e.sendSlab = beginSlab(e.sendSlab, n, e.Dynamic)
		}
		for j := 0; j < n; j++ {
			var tok []byte
			if toks != nil {
				tok = toks[j]
			}
			if err := env.emit(a, e, base+j, j, tok, true); err != nil {
				return err
			}
		}
	}
	return env.flushSlabs(a)
}

// emit routes the output token of epoch iteration i (the j-th of its
// block) on one edge: into the slab builder (blocked edge), straight to
// the sender (other remote edge), or onto the local queue — copied first
// when copyLocal is set. Tokens that end the epoch in flight are recorded
// as the edge's tail.
func (env *execEnv) emit(a *execActor, e *execEdge, i, j int, payload []byte, copyLocal bool) error {
	if e.Block > 1 {
		slab, err := appendSlabToken(e.sendSlab, j, payload, int(e.BMax), e.Dynamic)
		if err != nil {
			return fmt.Errorf("spi: actor %s edge %s: %w", a.name, e.Name, err)
		}
		e.sendSlab = slab
		if env.tailed(e, i) {
			tok, err := padPayload(e.PartEdge, payload, e.BMax, !e.Dynamic)
			if err != nil {
				return err
			}
			e.recordTail(tok)
		}
		return nil
	}
	padded, err := padPayload(e.PartEdge, payload, e.Bytes, e.Mode == uint8(Static))
	if err != nil {
		return err
	}
	if env.tailed(e, i) {
		e.recordTail(padded)
	}
	if e.tx != nil {
		if err := e.tx.Send(padded); err != nil {
			return fmt.Errorf("spi: actor %s send %s: %w", a.name, e.Name, err)
		}
		return nil
	}
	if copyLocal {
		padded = append([]byte(nil), padded...)
	}
	env.localMu.Lock()
	e.local = append(e.local, padded)
	env.localMu.Unlock()
	return nil
}

// flushSlabs sends the slab built for every blocked out-edge of the actor.
func (env *execEnv) flushSlabs(a *execActor) error {
	for _, e := range a.out {
		if e.Block <= 1 {
			continue
		}
		if err := e.tx.Send(e.sendSlab); err != nil {
			return fmt.Errorf("spi: actor %s send %s: %w", a.name, e.Name, err)
		}
	}
	return nil
}

// padPayload enforces an edge's payload bound and zero-pads a short
// static payload to the fixed transfer size.
func padPayload(e *PartEdge, payload []byte, bound uint32, static bool) ([]byte, error) {
	if len(payload) > int(bound) {
		return nil, fmt.Errorf("spi: kernel produced %d bytes on edge %s, bound %d",
			len(payload), e.Name, bound)
	}
	if static && len(payload) != int(bound) {
		out := make([]byte, bound)
		copy(out, payload)
		return out, nil
	}
	return payload, nil
}

// tailed reports whether the token of epoch iteration i on e is still in
// flight when the epoch ends: e is a delayed Out edge and i is among the
// epoch's last Delay iterations.
func (env *execEnv) tailed(e *execEdge, i int) bool {
	return e.Out && e.Delay > 0 && i >= env.spec.Iterations-int(e.Delay)
}

// recordTail appends one in-flight token to the edge's tail (seeded from
// the spec's Preload), keeping the last Delay. A copy is taken: the token
// may alias a kernel buffer that the next firing reuses.
func (e *execEdge) recordTail(tok []byte) {
	t := append(e.tail, append([]byte(nil), tok...))
	if d := int(e.Delay); len(t) > d {
		t = t[len(t)-d:]
	}
	e.tail = t
}

// checkBlockedMapping verifies that blocked execution of this mapping
// cannot deadlock: within one block an actor consumes all n inputs before
// any output becomes visible, and a processor fires its actors' blocks in
// schedule order, so the graph of same-block dependencies — non-decoupling
// dataflow edges (dataflow.BlockDecouples) plus each processor's sequential
// order chain — must be acyclic. This subsumes g.CheckBlock for mapped
// execution: sequentialization can create cycles the dataflow graph alone
// does not have.
func checkBlockedMapping(g *dataflow.Graph, m *sched.Mapping, q dataflow.Repetitions, block int) error {
	n := g.NumActors()
	indeg := make([]int, n)
	succ := make([][]dataflow.ActorID, n)
	add := func(u, v dataflow.ActorID) {
		succ[u] = append(succ[u], v)
		indeg[v]++
	}
	for _, eid := range g.Edges() {
		if g.BlockDecouples(q, eid, block) {
			continue
		}
		e := g.Edge(eid)
		add(e.Src, e.Snk)
	}
	for p := 0; p < m.NumProcs; p++ {
		order := m.Order[p]
		for i := 1; i < len(order); i++ {
			add(order[i-1], order[i])
		}
	}
	queue := make([]dataflow.ActorID, 0, n)
	for a := 0; a < n; a++ {
		if indeg[a] == 0 {
			queue = append(queue, dataflow.ActorID(a))
		}
	}
	done := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		done++
		for _, w := range succ[v] {
			if indeg[w]--; indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if done == n {
		return nil
	}
	var stuck []string
	for a := 0; a < n; a++ {
		if indeg[a] > 0 {
			stuck = append(stuck, g.Actor(dataflow.ActorID(a)).Name)
		}
	}
	return fmt.Errorf("spi: block %d deadlocks on this mapping: dependency cycle through {%s} (dataflow edges plus processor schedule order) lacks a delay covering a whole block",
		block, strings.Join(stuck, ", "))
}

// Execute runs the mapped graph for the given iteration count. Every actor
// must have a kernel. Edge payloads are bounded by the VTS analysis: a
// kernel returning more than b_max bytes on an edge is an error, exactly as
// the hardware library would reject it.
func Execute(g *dataflow.Graph, m *sched.Mapping, kernels map[dataflow.ActorID]Kernel, iterations int) (*ExecStats, error) {
	return ExecuteBlocked(g, m, kernels, iterations, VecOptions{})
}

// ExecuteBlocked runs the mapped graph like Execute but vectorized by
// vec.Block: B consecutive iterations fire per super-iteration and every
// block-aligned interprocessor edge moves its B tokens as one packed slab,
// paying headers, credits, and acks once per block. Outputs are
// bit-identical to the scalar run. vec.Block <= 1 is Execute exactly.
// Both run the one executor with every processor on one worker: every
// interprocessor edge is an in-process SPI edge and no link comes up.
func ExecuteBlocked(g *dataflow.Graph, m *sched.Mapping, kernels map[dataflow.ActorID]Kernel, iterations int, vec VecOptions) (*ExecStats, error) {
	p, err := PlanPartitions(g, m, vec.Block, false)
	if err != nil {
		return nil, err
	}
	return p.run(make([]int, m.NumProcs), 1, kernels, iterations, DistOptions{
		VectorKernels: namedKernels(g, vec.Kernels),
		StallTimeout:  vec.StallTimeout, Context: vec.Context, Obs: vec.Obs,
	})
}

// run executes node opts.Node's share of the plan under the placement
// nodeOf over the given node count, from the canonical delay tokens.
func (p *PartitionPlan) run(nodeOf []int, nodes int, kernels map[dataflow.ActorID]Kernel, iterations int, opts DistOptions) (*ExecStats, error) {
	if iterations <= 0 {
		return nil, fmt.Errorf("spi: iterations = %d", iterations)
	}
	specs, err := p.split(nodeOf, nodes)
	if err != nil {
		return nil, err
	}
	spec := specs[opts.Node]
	if len(spec.Procs) == 0 {
		return nil, fmt.Errorf("spi: node %d hosts no processors", opts.Node)
	}
	spec.Iterations, spec.Addrs = iterations, opts.Addrs
	for i := range spec.Edges {
		if e := &spec.Edges[i]; (e.Out || e.SameProc) && e.Delay > 0 {
			spec.Preload[e.ID] = delayTokens(e)
		}
	}
	env, err := newExecEnv(spec, namedKernels(p.g, kernels), &opts)
	if err != nil {
		return nil, err
	}
	res, err := env.execute()
	if res == nil {
		return nil, err
	}
	return &ExecStats{
		Iterations:     iterations,
		SPI:            res.SPI,
		Edges:          env.rt.AllStats(),
		ActorFirings:   res.Firings,
		LocalTransfers: env.localTransfers,
	}, err
}

// namedKernels rekeys an actor-ID kernel map by actor name, the key a
// partition spec knows actors by.
func namedKernels[K any](g *dataflow.Graph, ks map[dataflow.ActorID]K) map[string]K {
	out := make(map[string]K, len(ks))
	for _, a := range g.Actors() {
		if k, ok := ks[a]; ok {
			out[g.Actor(a).Name] = k
		}
	}
	return out
}

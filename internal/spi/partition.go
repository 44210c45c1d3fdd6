package spi

import (
	"errors"
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/sched"
	"repro/internal/transport"
)

// The lowering: every execution of a mapped graph — Execute,
// ExecuteBlocked, ExecuteDistributed, and the orchestrated epochs of
// internal/orch — runs as one or more PartitionSpecs on ExecutePartition.
// PlanPartitions does the placement-independent work once (VTS analysis,
// edge configs, slab framing, the optional resynchronization verdict);
// Split cuts the plan into one self-contained spec per worker for a
// processor→worker placement. A spec carries everything the executor
// needs without the graph, the mapping, or the VTS analysis, and
// locality follows the processor mapping, never the placement, so any
// placement of the processors over any number of workers produces
// bit-identical kernel inputs.
//
// A spec additionally carries resumption state: BaseIter offsets the
// iteration numbers the kernels see, Preload holds the in-flight tokens
// of every delayed edge at the epoch boundary, and State holds per-actor
// checkpoint blobs. A run returns the matching Tails/State for the next
// epoch, which is what makes live migration a checkpoint-and-replay of
// pure data.

// PartEdge is one dataflow edge as a partition sees it: the planned SPI
// configuration plus locality. Locality is decided by the processor-level
// mapping, never by worker placement — a same-processor edge is a local
// queue wherever its processor lands, so kernel-visible bytes do not
// depend on placement.
type PartEdge struct {
	// ID is the dataflow edge ID (also the SPI edge ID on the wire).
	ID uint16
	// Name is the edge's graph name, for error messages and kernels.
	Name string
	// Mode, Bytes, Protocol, Capacity mirror the planned EdgeConfig:
	// Mode 0 is static (fixed Bytes payloads), 1 dynamic (bound Bytes);
	// Protocol 0 is BBS with Capacity messages, 1 UBS.
	Mode     uint8
	Bytes    uint32
	Protocol uint8
	Capacity uint32
	// Delay is the edge's initial delay in whole graph iterations.
	Delay uint32
	// Block is the number of iterations each message carries: the
	// spec's blocking factor on a cross-processor edge whose delay is a
	// whole multiple of it, else 1 (0 reads as 1). On a blocked edge
	// (Block > 1) Mode and Bytes describe the slab channel, and BMax and
	// Dynamic the bound and framing of each token inside a slab (see
	// PackSlab); on any other edge they equal Bytes and Mode. The orch
	// control plane ships scalar specs and does not carry these fields.
	Block   uint32
	BMax    uint32
	Dynamic bool
	// SameProc marks both endpoints on one processor: a local queue.
	SameProc bool
	// Out/In mark the hosted endpoints of a cross-processor edge: both
	// set means both processors live on this worker (an in-process SPI
	// edge); exactly one set means the edge crosses workers.
	Out bool
	In  bool
	// Peer is the worker hosting the far endpoint of a cross-worker
	// edge, -1 otherwise.
	Peer int
	// SuppressAck marks a UBS edge whose acknowledgement the §4
	// resynchronization verdict proved redundant (see ResyncSuppression).
	// Only a plan built with resync stamps it, and the specs split from
	// such a plan set Resync.
	SuppressAck bool
}

// PartActor is one actor of a partition, with its full edge lists in
// graph order (the executor consumes inputs in exactly this order).
type PartActor struct {
	Name string
	In   []uint16
	Out  []uint16
}

// PartProc is one processor of a partition: its global processor index
// and its actors in schedule order.
type PartProc struct {
	Proc   int
	Actors []PartActor
}

// PartitionSpec is the self-contained manifest of one worker's share of
// an execution epoch. It replaces the full graph + mapping a spinode
// normally loads: a worker holding only its spec can execute, RESUME
// after a severed connection, and checkpoint for migration.
type PartitionSpec struct {
	// Graph is the graph name (kernels fold it into their hashes).
	Graph string
	// Node is this worker's index for the epoch, Workers the worker
	// count; Addrs[n] is worker n's data-plane address for this epoch
	// (only peers' entries need be set).
	Node    int
	Workers int
	Addrs   []string
	// BaseIter is the first global iteration of this epoch; kernels see
	// iterations BaseIter..BaseIter+Iterations-1.
	BaseIter   int
	Iterations int
	// Block is the blocking factor B: every processor fires B
	// consecutive iterations per super-iteration (0 or 1 is scalar). All
	// workers of an execution must agree; links refuse a peer that does
	// not.
	Block int
	// Procs are the processors placed on this worker, Edges every edge
	// touching them.
	Procs []PartProc
	Edges []PartEdge
	// Preload holds, per delayed edge whose producing side lives here
	// (Out or SameProc), the in-flight payloads at BaseIter — the
	// canonical delay tokens of a fresh run (InitialPreloads), or the
	// previous epoch's tails.
	Preload map[uint16][][]byte
	// State holds per-actor checkpoint blobs for stateful kernels,
	// keyed by actor name (see StateHooks).
	State map[string][]byte
	// Resync activates ack suppression on the edges marked SuppressAck:
	// cross-worker links negotiate the set with their peers (featResync)
	// and swallow the redundant acks. All workers of an execution must
	// agree.
	Resync bool
}

// PartResult reports one epoch of partition execution.
type PartResult struct {
	// Tails holds, per delayed edge produced here, the in-flight
	// payloads at the epoch end — the next epoch's Preload.
	Tails map[uint16][][]byte
	// State holds the per-actor checkpoint blobs at the epoch end.
	State map[string][]byte
	// Firings counts completed firings per actor.
	Firings map[string]int
	// ProcNS is the kernel-execution time per hosted processor in
	// nanoseconds, parallel to the spec's Procs — the load signal the
	// coordinator's placement consumes.
	ProcNS []int64
	// SPI aggregates the runtime statistics of the partition's edges.
	SPI EdgeStats
}

// StateHooks checkpoint and restore one stateful actor. The executor
// calls Restore with the spec's blob (nil for a fresh run) before the
// first firing and Checkpoint after the last; stateless actors simply
// have no hooks.
type StateHooks struct {
	Checkpoint func() []byte
	Restore    func(state []byte) error
}

// config renders the edge's planned SPI configuration.
func (e *PartEdge) config() EdgeConfig {
	cfg := EdgeConfig{ID: EdgeID(e.ID), Name: e.Name, Mode: Mode(e.Mode),
		Protocol: Protocol(e.Protocol), Capacity: int(e.Capacity)}
	if cfg.Mode == Dynamic {
		cfg.MaxBytes = int(e.Bytes)
	} else {
		cfg.PayloadBytes = int(e.Bytes)
	}
	return cfg
}

// decl renders the edge as a handshake manifest entry; out is whether
// the declaring side sends.
func (e *PartEdge) decl(out bool) transport.EdgeDecl {
	return transport.EdgeDecl{ID: e.ID, Mode: e.Mode, Out: out, Bytes: e.Bytes,
		Protocol: e.Protocol, Capacity: e.Capacity}
}

// crossesWorkers reports whether an edge has exactly one endpoint on this
// worker, i.e. rides a link to a peer.
func crossesWorkers(e *PartEdge) bool {
	return !e.SameProc && (e.Out != e.In)
}

// delayTokens is a delayed edge's in-flight payloads at iteration 0: zero
// blocks of the static token size on cross-processor static edges, empty
// payloads everywhere else (same-processor queues and dynamic edges).
func delayTokens(e *PartEdge) [][]byte {
	tok := []byte{}
	if !e.SameProc && !e.Dynamic {
		tok = make([]byte, e.BMax)
	}
	tokens := make([][]byte, e.Delay)
	for i := range tokens {
		tokens[i] = tok
	}
	return tokens
}

// PartitionPlan is the placement-independent half of the lowering: the
// edge plans, slab framing, optional resynchronization verdict, and
// per-processor actor lists of one graph and mapping. Build it once per
// run with PlanPartitions; Split is cheap and runs once per placement.
type PartitionPlan struct {
	g      *dataflow.Graph
	block  int
	resync bool
	procs  []PartProc // by processor index
	edges  []PartEdge // graph order; endpoint flags unset
	ends   [][2]int   // source and sink processor, parallel to edges
}

// PlanPartitions lowers a mapped graph for execution with blocking factor
// block (0 or 1 is scalar). With resync it also computes the §4
// resynchronization verdict (ResyncSuppression) — a pure function of the
// graph and mapping — and marks the redundant UBS acks SuppressAck.
func PlanPartitions(g *dataflow.Graph, m *sched.Mapping, block int, resync bool) (*PartitionPlan, error) {
	if err := m.Validate(g); err != nil {
		return nil, err
	}
	gp, err := newGraphPlan(g, block)
	if err != nil {
		return nil, err
	}
	if gp.block > 1 {
		if err := checkBlockedMapping(g, m, gp.q, gp.block); err != nil {
			return nil, err
		}
	}
	var suppressed map[dataflow.EdgeID]string
	if resync {
		rp, err := ResyncSuppression(g, m)
		if err != nil {
			return nil, err
		}
		suppressed = rp.Suppressed
	}
	p := &PartitionPlan{
		g: g, block: gp.block, resync: resync, procs: make([]PartProc, m.NumProcs),
		edges: make([]PartEdge, 0, g.NumEdges()), ends: make([][2]int, 0, g.NumEdges()),
	}
	ids := func(eids []dataflow.EdgeID) []uint16 {
		out := make([]uint16, len(eids))
		for i, eid := range eids {
			out[i] = uint16(eid)
		}
		return out
	}
	for proc := range p.procs {
		pp := PartProc{Proc: proc, Actors: make([]PartActor, len(m.Order[proc]))}
		for i, a := range m.Order[proc] {
			pp.Actors[i] = PartActor{Name: g.Actor(a).Name, In: ids(g.In(a)), Out: ids(g.Out(a))}
		}
		p.procs[proc] = pp
	}
	for _, eid := range g.Edges() {
		e := g.Edge(eid)
		src, snk := int(m.Proc[e.Src]), int(m.Proc[e.Snk])
		pe := gp.partEdge(eid, src == snk)
		_, pe.SuppressAck = suppressed[eid]
		p.edges = append(p.edges, pe)
		p.ends = append(p.ends, [2]int{src, snk})
	}
	return p, nil
}

// Split extracts one PartitionSpec per worker for the processor→worker
// placement workerOf — the coordinator-side complement of
// ExecutePartition. The specs carry structure and edge plans and share
// the plan's read-only actor lists; the caller fills the per-epoch fields
// (BaseIter, Iterations, Addrs, Preload, State). Every worker must host
// at least one processor.
func (p *PartitionPlan) Split(workerOf []int, workers int) ([]*PartitionSpec, error) {
	specs, err := p.split(workerOf, workers)
	if err != nil {
		return nil, err
	}
	for w, s := range specs {
		if len(s.Procs) == 0 {
			return nil, fmt.Errorf("spi: worker %d hosts no processors", w)
		}
	}
	return specs, nil
}

// split is Split without the every-worker-hosts-something rule, for a
// distributed node that needs only its own spec.
func (p *PartitionPlan) split(workerOf []int, workers int) ([]*PartitionSpec, error) {
	if len(workerOf) != len(p.procs) {
		return nil, fmt.Errorf("spi: placement has %d entries, mapping has %d processors", len(workerOf), len(p.procs))
	}
	for proc, w := range workerOf {
		if w < 0 || w >= workers {
			return nil, fmt.Errorf("spi: placement[%d] = %d out of range [0,%d)", proc, w, workers)
		}
	}
	nEdges := make([]int, workers)
	for i := range p.edges {
		srcW, snkW := workerOf[p.ends[i][0]], workerOf[p.ends[i][1]]
		nEdges[srcW]++
		if srcW != snkW {
			nEdges[snkW]++
		}
	}
	specs := make([]*PartitionSpec, workers)
	for w := range specs {
		specs[w] = &PartitionSpec{
			Graph: p.g.Name(), Node: w, Workers: workers, Block: p.block, Resync: p.resync,
			Edges:   make([]PartEdge, 0, nEdges[w]),
			Preload: map[uint16][][]byte{}, State: map[string][]byte{},
		}
	}
	for proc, w := range workerOf {
		specs[w].Procs = append(specs[w].Procs, p.procs[proc])
	}
	for i, pe := range p.edges {
		srcW, snkW := workerOf[p.ends[i][0]], workerOf[p.ends[i][1]]
		switch {
		case pe.SameProc:
			specs[srcW].Edges = append(specs[srcW].Edges, pe)
		case srcW == snkW:
			pe.Out, pe.In = true, true
			specs[srcW].Edges = append(specs[srcW].Edges, pe)
		default:
			src := pe
			src.Out, src.Peer = true, snkW
			specs[srcW].Edges = append(specs[srcW].Edges, src)
			pe.In, pe.Peer = true, srcW
			specs[snkW].Edges = append(specs[snkW].Edges, pe)
		}
	}
	return specs, nil
}

// BuildPartitions plans and splits in one call: PlanPartitions(g, m,
// block, false) followed by Split(workerOf, workers). A caller placing
// the same graph repeatedly (one placement per epoch) should build the
// plan once and Split it per placement.
func BuildPartitions(g *dataflow.Graph, m *sched.Mapping, workerOf []int, workers, block int) ([]*PartitionSpec, error) {
	p, err := PlanPartitions(g, m, block, false)
	if err != nil {
		return nil, err
	}
	return p.Split(workerOf, workers)
}

// InitialPreloads computes every delayed edge's in-flight payloads at
// iteration 0 — the canonical delay tokens a fresh run preloads: empty
// payloads on same-processor edges and dynamic edges, zero blocks of the
// static transfer size on cross-processor static edges. Locality follows
// the processor mapping, never worker placement, so the preloaded bytes
// match Execute's for any placement.
func (p *PartitionPlan) InitialPreloads() map[uint16][][]byte {
	pre := map[uint16][][]byte{}
	for i := range p.edges {
		if e := &p.edges[i]; e.Delay > 0 {
			pre[e.ID] = delayTokens(e)
		}
	}
	return pre
}

// InitialPreloads is PlanPartitions(g, m, 1, false).InitialPreloads().
func InitialPreloads(g *dataflow.Graph, m *sched.Mapping) (map[uint16][][]byte, error) {
	p, err := PlanPartitions(g, m, 1, false)
	if err != nil {
		return nil, err
	}
	return p.InitialPreloads(), nil
}

func validatePartition(spec *PartitionSpec) error {
	if spec.Iterations <= 0 {
		return fmt.Errorf("spi: partition iterations = %d", spec.Iterations)
	}
	if spec.BaseIter < 0 {
		return fmt.Errorf("spi: partition base iteration = %d", spec.BaseIter)
	}
	if len(spec.Procs) == 0 {
		return errors.New("spi: partition hosts no processors")
	}
	if spec.Node < 0 || spec.Workers < 1 || spec.Node >= spec.Workers {
		return fmt.Errorf("spi: partition node %d of %d workers", spec.Node, spec.Workers)
	}
	for i := range spec.Edges {
		e := &spec.Edges[i]
		if !e.SameProc && !e.Out && !e.In {
			return fmt.Errorf("spi: partition edge %s has no hosted endpoint", e.Name)
		}
		if crossesWorkers(e) && (e.Peer < 0 || e.Peer >= spec.Workers || e.Peer == spec.Node) {
			return fmt.Errorf("spi: partition edge %s names peer worker %d of %d", e.Name, e.Peer, spec.Workers)
		}
		if e.Block > 1 && (e.SameProc || int(e.Block) != spec.Block || e.Delay%e.Block != 0) {
			return fmt.Errorf("spi: partition edge %s carries %d-iteration slabs under block %d", e.Name, e.Block, spec.Block)
		}
	}
	return nil
}

// ExecutePartition runs one worker's partition of an execution from its
// self-contained spec; it is the one executor behind every entry point.
// Kernels (and opts.VectorKernels) are keyed by actor name. The spec
// supersedes opts' Node, Addrs, NodeOf, Block and Resync. Cross-worker
// edges ride the links opts.Links provides, or links dialed/accepted per
// the spec's addresses (lower-numbered workers are dialed,
// higher-numbered accepted). Without opts.Degrade the run is fail-fast: a
// dead peer, a kernel error, or a cancelled context aborts the epoch, and
// the coordinator re-places and re-executes it — determinism makes the
// re-execution bit-identical. With opts.Degrade a run that lost peers
// returns its partial result alongside a *DegradedError.
func ExecutePartition(spec *PartitionSpec, kernels map[string]Kernel, opts DistOptions) (*PartResult, error) {
	env, err := newExecEnv(spec, kernels, &opts)
	if err != nil {
		return nil, err
	}
	return env.execute()
}

func clonePayloads(in [][]byte) [][]byte {
	if in == nil {
		return nil
	}
	out := make([][]byte, len(in))
	for i, p := range in {
		out[i] = append([]byte(nil), p...)
	}
	return out
}

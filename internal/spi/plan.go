package spi

import (
	"repro/internal/dataflow"
	"repro/internal/vts"
)

// Edge planning for the lowering (PlanPartitions): VTS conversion, buffer
// bounds, and the per-edge mode/protocol/capacity selection — the
// compile-time half of SPI_init. Its output is the PartEdge list every
// execution runs from.

type graphPlan struct {
	g      *dataflow.Graph
	conv   *vts.Result
	bounds []vts.Bounds
	q      dataflow.Repetitions
	// block is the vectorization blocking factor B (1 = scalar). Edges
	// whose delay is a whole multiple of B iterations carry B-token slabs;
	// the rest stay token-granular (edgeBlock).
	block int
}

func newGraphPlan(g *dataflow.Graph, block int) (*graphPlan, error) {
	conv, err := vts.Convert(g)
	if err != nil {
		return nil, err
	}
	bounds, err := vts.ComputeBounds(conv)
	if err != nil {
		return nil, err
	}
	q, err := g.RepetitionsVector()
	if err != nil {
		return nil, err
	}
	if block < 1 {
		block = 1
	}
	if block > 1 {
		if err := g.CheckBlock(block); err != nil {
			return nil, err
		}
	}
	return &graphPlan{g: g, conv: conv, bounds: bounds, q: q, block: block}, nil
}

// delayIters converts an edge's initial-token delay into whole graph
// iterations of preloaded (empty) block messages.
func (p *graphPlan) delayIters(eid dataflow.EdgeID) int {
	e := p.g.Edge(eid)
	if t := int(p.g.IterationTokens(p.q, eid)); t > 0 {
		return e.Delay / t
	}
	return 0
}

// edgeBlock is the number of iterations packed per message on this edge: the
// plan's blocking factor when the edge's delay aligns with it (a whole
// multiple of B iterations, including zero), else 1. A misaligned delay
// makes the consumer's block straddle two producer blocks, so such edges
// stay token-granular.
func (p *graphPlan) edgeBlock(eid dataflow.EdgeID) int {
	if p.block <= 1 || p.delayIters(eid)%p.block != 0 {
		return 1
	}
	return p.block
}

// edgeConfig selects the SPI component (static/dynamic framing) and the
// buffer protocol (BBS when the VTS analysis proves a bound, else UBS) for
// one edge carrying bf iterations per message — identical for in-process
// and networked edges, so a distributed run and its single-process
// reference use the same protocols on the same edges. A blocked edge
// (bf > 1, see edgeBlock) carries bf-token slabs in SPI_dynamic framing —
// the final block of a run may be partial — with capacity, preload, and
// the BBS credit pool accounted in slabs, scaling the eq. 2 memory bound
// by bf.
func (p *graphPlan) edgeConfig(eid dataflow.EdgeID, bf int) EdgeConfig {
	info := p.conv.Info(eid)
	cfg := EdgeConfig{ID: EdgeID(eid), Name: p.g.Edge(eid).Name, Mode: Static, PayloadBytes: int(info.BMax)}
	if info.Dynamic {
		cfg.Mode = Dynamic
		cfg.MaxBytes = int(info.BMax)
	}
	if bf > 1 {
		cfg.Mode = Dynamic
		cfg.MaxBytes = SlabBound(int(info.BMax), info.Dynamic, bf)
	}
	b := p.bounds[eid]
	if b.Bounded {
		cfg.Protocol = BBS
		capMsgs := int(b.IPC/b.BMax) / bf
		if capMsgs < 1 {
			capMsgs = 1
		}
		if d := p.delayIters(eid) / bf; capMsgs < d+1 {
			capMsgs = d + 1
		}
		cfg.Capacity = capMsgs
	} else {
		cfg.Protocol = UBS
	}
	return cfg
}

// partEdge renders one edge's plan as a PartEdge with no endpoints set.
// Same-processor edges are local queues and never carry slabs.
func (p *graphPlan) partEdge(eid dataflow.EdgeID, sameProc bool) PartEdge {
	bf := 1
	if !sameProc {
		bf = p.edgeBlock(eid)
	}
	cfg := p.edgeConfig(eid, bf)
	info := p.conv.Info(eid)
	pe := PartEdge{
		ID: uint16(eid), Name: cfg.Name, Mode: uint8(cfg.Mode), Bytes: uint32(cfg.PayloadBytes),
		Protocol: uint8(cfg.Protocol), Capacity: uint32(cfg.Capacity),
		Delay: uint32(p.delayIters(eid)), Block: uint32(bf),
		BMax: uint32(info.BMax), Dynamic: info.Dynamic,
		SameProc: sameProc, Peer: -1,
	}
	if cfg.Mode == Dynamic {
		pe.Bytes = uint32(cfg.MaxBytes)
	}
	return pe
}

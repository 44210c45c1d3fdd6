package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/particle"
	"repro/internal/signal"
	"repro/internal/spi"
)

// The particle workload runs the paper's application 2 on the in-process
// SPI runtime: episodes of a seeded crack-growth track, each a fresh
// particle.NewDistributed filter stepped once per observation. Tracks
// repeat, so every repeat of a track must reproduce its first estimate
// sequence exactly.
const (
	particleCount  = 20000
	particlePEs    = 2
	particleSteps  = 150 // observations per episode, as in the package's tracking test
	particleTracks = 4
)

type crackTrack struct {
	truth, obs []float64
	filterSeed uint64
	digest     uint64 // estimate-sequence digest of the first episode
	seen       bool
}

type particleWorkload struct {
	model   particle.Model
	tracks  []*crackTrack
	episode int
	traced  spi.EdgeStats
}

func newParticle(seed uint64) (instance, func(), error) {
	p := signal.DefaultCrackParams()
	w := &particleWorkload{model: particle.Model{P: p}}
	for i := uint64(0); i < particleTracks; i++ {
		truth := signal.CrackTruth(particleSteps, p, mix(seed, 3*i))
		w.tracks = append(w.tracks, &crackTrack{
			truth:      truth,
			obs:        signal.CrackObservations(truth, p, mix(seed, 3*i+1)),
			filterSeed: mix(seed, 3*i+2),
		})
	}
	return w, func() {}, nil
}

// Every episode is a set-up sample, so there are no separate probes.
func (w *particleWorkload) sizing() sizing {
	return sizing{segments: 5, warm: particleSteps, traceCap: 100 * particleSteps}
}

// baselines times the serial filter's Step at the same particle count.
func (w *particleWorkload) baselines() map[string]float64 {
	tk := w.tracks[0]
	f, err := particle.NewFilter(w.model, particleCount, tk.filterSeed)
	if err != nil {
		return map[string]float64{}
	}
	i := 0
	return map[string]float64{"particle.serial_step_us": perCallUS(func() {
		f.Step(tk.obs[i%len(tk.obs)])
		i++
	})}
}

// run steps whole episodes until at least n steps are done.
func (w *particleWorkload) run(idx, n int, tr *tracer) seg {
	var s seg
	for s.iters < n {
		w.runEpisode(&s, tr)
	}
	return s
}

func (w *particleWorkload) runEpisode(s *seg, tr *tracer) {
	tk := w.tracks[w.episode%len(w.tracks)]
	w.episode++
	s.iters += particleSteps
	s.runs++

	runStart := tr.now()
	t0 := time.Now()
	d, err := particle.NewDistributed(w.model, particleCount, particlePEs, tk.filterSeed)
	if err != nil {
		s.fail(fmt.Errorf("particle: %w", err), particleSteps)
		return
	}
	tr.add(span{kind: kindPlan, name: "particle.NewDistributed", iter: -1, start: runStart, end: tr.now()})
	first := time.Now()
	s.setups = append(s.setups, first.Sub(t0))
	ests := make([]float64, len(tk.obs))
	for i, y := range tk.obs {
		stepStart, st := tr.now(), time.Now()
		est, err := d.Step(y)
		s.lat = append(s.lat, time.Since(st))
		tr.add(span{kind: kindStep, name: "Distributed.Step", iter: i, lane: 1, start: stepStart, end: tr.now()})
		if err != nil {
			s.active += time.Since(first)
			s.fail(fmt.Errorf("particle step %d: %w", i, err), particleSteps)
			return
		}
		ests[i] = est
	}
	s.active += time.Since(first)
	tr.add(span{kind: kindRun, name: "episode", iter: -1, start: runStart, end: tr.now()})
	if tr != nil {
		addEdgeStats(&w.traced, d.Stats())
	}

	rmse := particle.RMSE(ests, tk.truth)
	dig := digestFloats(ests)
	switch {
	case !(rmse <= w.model.P.MeasureNoise):
		s.fail(fmt.Errorf("particle: RMSE %g above measurement noise %g", rmse, w.model.P.MeasureNoise), particleSteps)
	case tk.seen && dig != tk.digest:
		s.fail(fmt.Errorf("particle: estimate digest %016x differs from the track's first run %016x", dig, tk.digest), particleSteps)
	case !tk.seen:
		tk.digest, tk.seen = dig, true
	}
}

func (w *particleWorkload) layers(segs []seg, spans []span) map[string]float64 {
	iters := 0
	for _, s := range segs {
		iters += s.iters
	}
	out := edgeLayers(w.traced, iters)
	t := totals(spans)
	if c := t.count[kindStep]; c > 0 {
		out["particle.step_busy_us"] = float64(t.ns[kindStep]) / 1e3 / float64(c)
	}
	return out
}

func digestFloats(x []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range x {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

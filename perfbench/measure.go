package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/spi"
)

// seg is the outcome of one segment: one or more complete run calls,
// each from set-up through its last iteration.
type seg struct {
	iters  int             // iterations attempted
	failed int             // iterations without a verified output
	runs   int             // run calls made
	setups []time.Duration // per run call: call → first source firing
	active time.Duration   // summed over run calls: first source firing → return
	lat    []time.Duration // per iteration: source firing start → sink firing end
	cpu    time.Duration   // process user+sys CPU over the segment
	alloc  uint64          // heap bytes allocated over the segment
	// verify, if set, checks outputs after the run has been measured and
	// returns how many iterations failed, for checks whose reference
	// would otherwise count toward the run's memory.
	verify func() int
}

func (s *seg) rate() float64 {
	if s.active <= 0 {
		return 0
	}
	return float64(s.iters-s.failed) / s.active.Seconds()
}

// fail records an error that cost the segment its unverified iterations.
func (s *seg) fail(err error, unverified int) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	s.failed += unverified
}

// instance is one prepared workload. run executes a segment of at least
// n iterations (segment idx selects its seeded inputs) and checks every
// output; tr is nil in untraced segments. layers derives the workload's
// own per-layer metrics from its traced segments and their spans.
type instance interface {
	sizing() sizing
	run(idx, n int, tr *tracer) seg
	layers(segs []seg, spans []span) map[string]float64
	baselines() map[string]float64
}

// sizing says how many iterations each kind of segment runs.
type sizing struct {
	segments int // timed segments (at least); their median rate is iters_per_s
	warm     int // untimed first segment; its rate sizes the timed ones
	probe    int // set-up probes; 0 skips them
	fixed    int // > 0: every timed segment runs exactly this many, as many segments as the budget allows
	traceCap int // most iterations in one traced segment
}

const (
	probes      = 5 // short extra run calls that only add set-up samples
	tracedSegs  = 2
	minSegIters = 64
	runTimeout  = 60 * time.Second // bounds one run call, so a hang is a failure
)

// result is everything one benchmark invocation reports.
type result struct {
	attempted, failed int
	e2e               map[string]float64
	layer             map[string]float64
	context           map[string]any
	tr                *tracer // the traced run's spans; nil when untraced
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// timed runs one segment with the process CPU and allocation around it.
// A collection first keeps one segment's garbage out of the next.
func timed(inst instance, idx, n int, tr *tracer) seg {
	runtime.GC()
	c0, a0 := cpuTime(), totalAlloc()
	s := inst.run(idx, n, tr)
	s.cpu, s.alloc = cpuTime()-c0, totalAlloc()-a0
	return s
}

// measure drives one workload closed-loop for budget: a warm-up that
// sizes the segments, set-up probes, the timed segments and, when
// traced, a separate traced run for the per-layer metrics. Deferred
// output checks and the single-threaded baselines run last, after the
// peak memory is read.
func measure(inst instance, budget time.Duration, traced bool) *result {
	res := &result{e2e: map[string]float64{}, layer: map[string]float64{}, context: map[string]any{}}
	var all []seg
	keep := func(s seg) seg {
		all = append(all, s)
		return s
	}
	idx := 0
	next := func() int { idx++; return idx }

	sz := inst.sizing()
	warm := keep(timed(inst, next(), sz.warm, nil))
	rate := warm.rate()

	untracedBudget := budget
	if traced {
		untracedBudget = budget / 2
	}
	size := func(d time.Duration, cap int) int {
		return min(max(int(rate*d.Seconds()), minSegIters), cap)
	}

	var setups []time.Duration
	for i := 0; i < probes && sz.probe > 0; i++ {
		s := keep(timed(inst, next(), sz.probe, nil))
		setups = append(setups, s.setups...)
	}
	var main []seg
	start := time.Now()
	for len(main) < sz.segments || (sz.fixed > 0 && time.Since(start) < untracedBudget) {
		n := size(untracedBudget/time.Duration(sz.segments), math.MaxInt)
		if sz.fixed > 0 {
			n = sz.fixed
		}
		s := keep(timed(inst, next(), n, nil))
		setups = append(setups, s.setups...)
		main = append(main, s)
		if r := s.rate(); r > 0 {
			rate = r
		}
	}

	// Each timing is the median over segments of that segment's figure,
	// so one segment caught by a host hiccup does not move it.
	var iters, samples int
	fewest := math.MaxInt
	var alloc uint64
	var rates, p50s, p99s, cpus []float64
	for _, s := range main {
		iters += s.iters
		alloc += s.alloc
		rates = append(rates, s.rate())
		cpus = append(cpus, us(s.cpu)/float64(max(s.iters, 1)))
		sortDur(s.lat)
		p50s = append(p50s, us(pct(s.lat, 0.50)))
		p99s = append(p99s, us(pct(s.lat, 0.99)))
		samples += len(s.lat)
		fewest = min(fewest, len(s.lat))
	}
	res.e2e["iters_per_s"] = median(rates)
	res.e2e["iter_latency_p50_us"] = median(p50s)
	res.e2e["iter_latency_p99_us"] = median(p99s)
	res.e2e["setup_s"] = medianDur(setups).Seconds()
	res.e2e["cpu_us_per_iter"] = median(cpus)
	if iters > 0 {
		res.e2e["alloc_bytes_per_iter"] = float64(alloc) / float64(iters)
	}
	res.context["latency_samples"] = samples
	res.context["latency_samples_fewest_in_a_segment"] = fewest
	res.context["setup_samples"] = len(setups)
	res.context["segment_iters_per_s"] = rates

	var tsegs []seg
	if traced {
		res.tr = newTracer()
		for i := 0; i < tracedSegs; i++ {
			tsegs = append(tsegs, keep(timed(inst, next(), size(budget/2/tracedSegs, sz.traceCap), res.tr)))
		}
	}
	res.e2e["max_rss_mb"] = maxRSSMB()

	for i := range all {
		if all[i].verify != nil {
			all[i].failed += all[i].verify()
		}
		res.attempted += all[i].iters
		res.failed += all[i].failed
	}
	base := inst.baselines()
	res.context["baselines"] = base

	if traced {
		spans := res.tr.all()
		for k, v := range traceLayers(tsegs, spans) {
			res.layer[k] = v
		}
		for k, v := range base {
			res.layer[k] = v
		}
		for k, v := range inst.layers(tsegs, spans) {
			res.layer[k] = v
		}
		trRates := make([]float64, 0, len(tsegs))
		for _, s := range tsegs {
			trRates = append(trRates, s.rate())
		}
		res.layer["trace.iters_per_s"] = median(trRates)
		if r := median(trRates); r > 0 {
			res.layer["trace.overhead_ratio"] = res.e2e["iters_per_s"] / r
		}
	}
	return res
}

// traceLayers derives the workload-independent per-layer metrics —
// transport and planning — from a traced run's spans.
func traceLayers(segs []seg, spans []span) map[string]float64 {
	iters, runs := 0, 0
	for _, s := range segs {
		iters += s.iters
		runs += s.runs
	}
	t := totals(spans)
	per := func(x float64) float64 {
		if iters == 0 {
			return 0
		}
		return x / float64(iters)
	}
	perRun := func(x float64) float64 {
		if runs == 0 {
			return 0
		}
		return x / float64(runs)
	}
	perConn := func(x float64) float64 {
		if t.count[kindDial] == 0 {
			return 0
		}
		return x / float64(t.count[kindDial])
	}
	return map[string]float64{
		"transport.writes_per_iter":       per(float64(t.count[kindWrite])),
		"transport.write_bytes_per_iter":  per(float64(t.bytes[kindWrite])),
		"transport.write_us_per_iter":     per(float64(t.ns[kindWrite]) / 1e3),
		"transport.reads_per_iter":        per(float64(t.count[kindRead])),
		"transport.read_wait_us_per_iter": per(float64(t.ns[kindRead]) / 1e3),
		"transport.conns_per_epoch":       perRun(float64(t.count[kindDial])),
		"transport.connect_us":            perConn(float64(t.ns[kindDial]+t.ns[kindDialFail]+t.ns[kindAccept]) / 1e3),
		"dataflow.plan_us":                perRun(float64(t.ns[kindPlan]) / 1e3),
	}
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func sortDur(d []time.Duration) { sort.Slice(d, func(i, j int) bool { return d[i] < d[j] }) }

// pct is the nearest-rank percentile of sorted samples.
func pct(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func medianDur(d []time.Duration) time.Duration {
	s := append([]time.Duration(nil), d...)
	sortDur(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func median(x []float64) float64 {
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spiLayers folds the SPI statistics of traced runs into per-iteration
// counts.
func spiLayers(stats []*spi.ExecStats, iters int) map[string]float64 {
	var t spi.EdgeStats
	for _, st := range stats {
		addEdgeStats(&t, st.SPI)
	}
	return edgeLayers(t, iters)
}

func addEdgeStats(dst *spi.EdgeStats, src spi.EdgeStats) {
	dst.Messages += src.Messages
	dst.WireBytes += src.WireBytes
	dst.Acks += src.Acks
	dst.AcksPiggybacked += src.AcksPiggybacked
	dst.CreditWaits += src.CreditWaits
	dst.MaxQueued = max(dst.MaxQueued, src.MaxQueued)
}

func edgeLayers(t spi.EdgeStats, iters int) map[string]float64 {
	if iters == 0 {
		return map[string]float64{}
	}
	per := func(x int64) float64 { return float64(x) / float64(iters) }
	return map[string]float64{
		"spi.msgs_per_iter":             per(t.Messages),
		"spi.wire_bytes_per_iter":       per(t.WireBytes),
		"spi.acks_per_iter":             per(t.Acks),
		"spi.acks_piggybacked_per_iter": per(t.AcksPiggybacked),
		"spi.credit_waits_per_iter":     per(t.CreditWaits),
		"spi.max_queued":                float64(t.MaxQueued),
	}
}

// perCallUS times f on one goroutine for about 200 ms and returns the
// mean microseconds per call.
func perCallUS(f func()) float64 {
	const window = 200 * time.Millisecond
	f()
	calls := 0
	start := time.Now()
	for time.Since(start) < window {
		f()
		calls++
	}
	return us(time.Since(start)) / float64(calls)
}

// mix derives an independent input seed from the workload seed.
func mix(seed, i uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + i + 1
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

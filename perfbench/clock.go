package main

import (
	"sync/atomic"
	"time"

	"repro/internal/dataflow"
	"repro/internal/spi"
)

// iterClock times one run call from outside: when the call was made,
// when the source first fired, and for every stride-th iteration when
// its source firing started and its sink firing ended. Kernels index it
// by the iteration they are handed; a replayed iteration overwrites its
// earlier times.
type iterClock struct {
	t0         time.Time
	stride     int
	first      atomic.Int64 // ns since t0 of the first source firing, +1
	start, end []atomic.Int64
}

// latencySamples bounds the iterations timed per run call, so the
// clock's memory, which max_rss_mb counts, does not grow with the rate.
const latencySamples = 8192

func newIterClock(n int) *iterClock {
	stride := max(1, (n+latencySamples-1)/latencySamples)
	slots := (n + stride - 1) / stride
	return &iterClock{t0: time.Now(), stride: stride, start: make([]atomic.Int64, slots), end: make([]atomic.Int64, slots)}
}

// slot returns the sample slot of iter, or -1 if iter is not sampled.
func (c *iterClock) slot(iter int) int {
	if iter < 0 || iter%c.stride != 0 || iter/c.stride >= len(c.start) {
		return -1
	}
	return iter / c.stride
}

func (c *iterClock) since() int64 { return int64(time.Since(c.t0)) + 1 }

func (c *iterClock) sourceStart(iter int) {
	now := c.since()
	c.first.CompareAndSwap(0, now)
	if i := c.slot(iter); i >= 0 {
		c.start[i].Store(now)
	}
}

func (c *iterClock) sinkEnd(iter int) {
	if i := c.slot(iter); i >= 0 {
		c.end[i].Store(c.since())
	}
}

// source and sink wrap the kernels that bound an iteration.
func (c *iterClock) source(k spi.Kernel) spi.Kernel {
	return func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
		c.sourceStart(iter)
		return k(iter, in)
	}
}

func (c *iterClock) sink(k spi.Kernel) spi.Kernel {
	return func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
		out, err := k(iter, in)
		c.sinkEnd(iter)
		return out, err
	}
}

// finish closes the run call at its return and folds it into s: set-up
// time, active time and the latency of every iteration that completed.
func (c *iterClock) finish(s *seg) {
	ret := c.since()
	first := c.first.Load()
	if first == 0 {
		return
	}
	s.setups = append(s.setups, time.Duration(first-1))
	s.active += time.Duration(ret - first)
	for i := range c.start {
		a, b := c.start[i].Load(), c.end[i].Load()
		if a != 0 && b >= a {
			s.lat = append(s.lat, time.Duration(b-a))
		}
	}
}

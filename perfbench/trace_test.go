package main

import (
	"path/filepath"
	"testing"
	"time"
)

func TestCoveredMergesOverlapsAndClips(t *testing.T) {
	spans := []span{
		{start: 10, end: 20},
		{start: 15, end: 30}, // overlaps the first
		{start: 40, end: 50},
		{start: 90, end: 120}, // clipped at hi
		{start: 0, end: 5},    // clipped away at lo
	}
	if got := covered(spans, 8, 100); got != 20+10+10 {
		t.Errorf("covered = %d, want 40", got)
	}
}

func TestSelfTimeSubtractsSameNodeChildren(t *testing.T) {
	spans := []span{
		{kind: kindRun, node: 0, start: 0, end: 100},
		{kind: kindRun, node: 1, start: 0, end: 100},
		{kind: kindKernel, node: 0, start: 10, end: 40},
		{kind: kindWrite, node: 0, start: 30, end: 50}, // overlaps the kernel
		{kind: kindKernel, node: 1, start: 0, end: 60},
		{kind: kindRead, node: 1, start: 60, end: 100}, // not a child
	}
	got := selfTime(spans, func(s span) bool { return s.kind == kindKernel || s.kind == kindWrite })
	if want := int64((100 - 40) + (100 - 60)); got != want {
		t.Errorf("selfTime = %d, want %d", got, want)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var d []time.Duration
	for i := 1; i <= 100; i++ {
		d = append(d, time.Duration(i))
	}
	if got := pct(d, 0.50); got != 50 {
		t.Errorf("p50 = %d, want 50", got)
	}
	if got := pct(d, 0.99); got != 99 {
		t.Errorf("p99 = %d, want 99", got)
	}
	if got := medianDur([]time.Duration{3, 1, 2, 10}); got != 2 {
		t.Errorf("median = %d, want 2", got)
	}
}

func TestTraceWritesChromeJSON(t *testing.T) {
	tr := newTracer()
	tr.add(span{kind: kindKernel, name: "a", iter: 3, start: 1000, end: 2500})
	tr.add(span{kind: kindWrite, name: "Conn.Write", iter: -1, bytes: 64, start: 0, end: 500})
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.write(path, map[string]any{"seed": 1}); err != nil {
		t.Fatal(err)
	}
}

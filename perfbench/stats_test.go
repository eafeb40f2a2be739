package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{10, 0},  // p50 of 10 has 5 beyond
		{20, 50}, // p50 of 20: rank 10, 10 beyond
		{40, 75}, // p75 of 40: rank 30, 10 beyond
		{99, 75}, // p90 of 99: rank 90, 9 beyond
		{100, 90},
		{199, 90},
		{200, 95},
		{999, 95}, // p99 of 999: rank 990, 9 beyond
		{1000, 99},
		{100000, 99}, // capped at the wanted percentile
	} {
		if got := tailPercentile(tc.n, 99); got != tc.want {
			t.Errorf("tailPercentile(%d, 99) = %g, want %g", tc.n, got, tc.want)
		}
	}
	if got := tailPercentile(100000, 50); got != 50 {
		t.Errorf("tailPercentile capped at 50 = %g", got)
	}
}

func TestDistTail(t *testing.T) {
	var v []float64
	for i := 1000; i >= 1; i-- { // unsorted input
		v = append(v, float64(i))
	}
	d := newDist(v)
	if got := d.median(); got != 500 {
		t.Errorf("median = %g, want 500", got)
	}
	if got, p := d.tail(99); got != 990 || p != 99 {
		t.Errorf("tail(99) = %g at p%g, want 990 at p99", got, p)
	}
	small := newDist(v[:150]) // values 851..1000
	if got, p := small.tail(99); p != 90 || got != 985 {
		t.Errorf("tail(99) of 150 = %g at p%g, want 985 at p90", got, p)
	}
	if got, p := newDist([]float64{3, 1}).tail(99); p != 0 || got != 3 {
		t.Errorf("tail of 2 samples = %g at p%g, want the max at p0", got, p)
	}
	if got, _ := newDist(nil).tail(99); !math.IsNaN(got) {
		t.Errorf("tail of no samples = %g, want NaN", got)
	}
}

func TestOpenLoopChargesStalls(t *testing.T) {
	start := time.Unix(1000, 0)
	o := openLoop{start: start, rate: 100} // one request every 10ms
	if got := o.due(3); !got.Equal(start.Add(30 * time.Millisecond)) {
		t.Fatalf("due(3) = %v", got.Sub(start))
	}
	// On time: latency is the service time, no lateness.
	lat, late := o.measure(0, start, start.Add(2*time.Millisecond))
	if lat != 2*time.Millisecond || late != 0 {
		t.Errorf("on-time request: latency %v late %v", lat, late)
	}
	// A 50ms stall before request 1 was sent: it left 40ms late and its
	// latency counts the wait from when it was due.
	sent := start.Add(50 * time.Millisecond)
	lat, late = o.measure(1, sent, sent.Add(2*time.Millisecond))
	if lat != 42*time.Millisecond || late != 40*time.Millisecond {
		t.Errorf("stalled request: latency %v late %v, want 42ms and 40ms", lat, late)
	}
	// Sent early (clock jitter): never negative lateness.
	if _, late = o.measure(2, start.Add(19*time.Millisecond), start.Add(21*time.Millisecond)); late != 0 {
		t.Errorf("early send: late %v, want 0", late)
	}
}

func TestSelfTimeWithParallelChildren(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	parent := interval{at(0), at(100)}
	// Two children ran side by side over 10–50 and 30–70: together they
	// cover 10–70, 60ms, although their summed busy time is 80ms.
	kids := []interval{{at(10), at(50)}, {at(30), at(70)}}
	if got := covered(parent, kids); got != 60*time.Millisecond {
		t.Errorf("covered = %v, want 60ms", got)
	}
	if got := selfTime(parent, kids, 0); got != 40*time.Millisecond {
		t.Errorf("self = %v, want 40ms", got)
	}
	// Disjoint children, one spilling past the parent's end, is clipped.
	kids = []interval{{at(0), at(10)}, {at(90), at(120)}}
	if got := selfTime(parent, kids, 0); got != 80*time.Millisecond {
		t.Errorf("self with clipped child = %v, want 80ms", got)
	}
	// Busy time known only as a sum is subtracted after the intervals,
	// and never drives self time below zero.
	if got := selfTime(parent, kids, 30*time.Millisecond); got != 50*time.Millisecond {
		t.Errorf("self with busy = %v, want 50ms", got)
	}
	if got := selfTime(parent, kids, time.Second); got != 0 {
		t.Errorf("self with oversized busy = %v, want 0", got)
	}
}

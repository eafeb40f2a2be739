package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before
// the benchmark reports it: a tail figure resting on fewer samples is
// one or two unlucky requests, not a property of the system.
const minBeyond = 10

// tailLadder lists the percentiles a tail metric may report, highest
// first. A metric named *_p99_ms reports p99 when the run has at least
// 1000 samples and otherwise the highest rung that still has
// minBeyond samples beyond it; the text report names the rung used.
var tailLadder = []float64{99, 95, 90, 75, 50}

// rank returns the 1-based nearest-rank position of percentile p in n
// sorted samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// qualifies reports whether percentile p of n samples has at least
// minBeyond samples beyond it.
func qualifies(n int, p float64) bool {
	return n > 0 && n-rank(n, p) >= minBeyond
}

// tailPercentile returns the highest rung of the ladder, capped at
// want, that qualifies for n samples, or 0 when none does.
func tailPercentile(n int, want float64) float64 {
	for _, p := range tailLadder {
		if p <= want && qualifies(n, p) {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// dist is one timing population of a run: its samples (milliseconds
// or seconds, as the caller chooses) sorted ascending.
type dist struct {
	sorted []float64
}

func newDist(samples []float64) dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return dist{sorted: s}
}

func (d dist) n() int { return len(d.sorted) }

// median is the 50th percentile; with fewer than two samples it is the
// sample itself.
func (d dist) median() float64 { return percentile(d.sorted, 50) }

// tail returns the value at the highest qualifying percentile capped at
// want, and that percentile (0 with no qualifying rung, in which case
// the value is the maximum).
func (d dist) tail(want float64) (float64, float64) {
	p := tailPercentile(d.n(), want)
	if p == 0 {
		if d.n() == 0 {
			return math.NaN(), 0
		}
		return d.sorted[d.n()-1], 0
	}
	return percentile(d.sorted, p), p
}

// Window figures (rates and percentiles) are computed per sub-window.
// Each figure is the median over the calmer half of the sub-windows:
// the ones in which the host stole the least CPU from this virtual
// machine. A burst of steal then moves no figure, while the selection
// never looks at the measured values themselves.
const (
	maxSub = 10 // sub-windows per window at most
	// minSubSamples is the fewest samples a sub-window may hold, so a
	// per-sub-window median is not one or two requests.
	minSubSamples = 100
)

// point is one sample with its offset from the start of its window.
type point struct {
	at time.Duration
	v  float64
}

// split buckets points into k equal sub-windows of span.
func split(pts []point, span time.Duration, k int) [][]float64 {
	out := make([][]float64, k)
	for _, p := range pts {
		i := int(int64(p.at) * int64(k) / int64(span))
		if i < 0 {
			i = 0
		}
		if i >= k {
			i = k - 1
		}
		out[i] = append(out[i], p.v)
	}
	return out
}

// medianOf is the middle value, or the mean of the middle two.
func medianOf(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// stealLog is the machine's cumulative CPU ticks sampled through a
// run: at each time, ticks stolen by the host and ticks in total.
type stealLog struct {
	at           []time.Time
	steal, total []int64
}

func (l *stealLog) add(at time.Time, steal, total int64) {
	l.at = append(l.at, at)
	l.steal = append(l.steal, steal)
	l.total = append(l.total, total)
}

// reading returns the log's counters at or just before t.
func (l stealLog) reading(t time.Time) (steal, total int64) {
	i := sort.Search(len(l.at), func(i int) bool { return l.at[i].After(t) }) - 1
	if i < 0 {
		if len(l.at) == 0 {
			return 0, 0
		}
		i = 0
	}
	return l.steal[i], l.total[i]
}

// share returns the share of ticks the host stole between a and b.
func (l stealLog) share(a, b time.Time) float64 {
	s0, t0 := l.reading(a)
	s1, t1 := l.reading(b)
	if t1 <= t0 {
		return 0
	}
	return float64(s1-s0) / float64(t1-t0)
}

// calm returns the indices of the ceil(k/2) sub-windows of the span
// starting at start with the smallest stolen share, earliest first
// among equals.
func (l stealLog) calm(start time.Time, span time.Duration, k int) []int {
	share := make([]float64, k)
	idx := make([]int, k)
	for i := range share {
		a := start.Add(span * time.Duration(i) / time.Duration(k))
		b := start.Add(span * time.Duration(i+1) / time.Duration(k))
		share[i], idx[i] = l.share(a, b), i
	}
	sort.SliceStable(idx, func(a, b int) bool { return share[idx[a]] < share[idx[b]] })
	return idx[:(k+1)/2]
}

// splitPercentile returns percentile want of the points as the median
// over the calm half of up to maxSub sub-windows. The percentile is the
// highest rung, capped at want, that the pooled points qualify for; the
// sub-windows are as many as still give each of them enough samples
// for it, and at least minSubSamples. It returns the value, the
// percentile used (0: too few samples for any, the value is then the
// maximum) and the number of sub-windows.
func splitPercentile(pts []point, start time.Time, span time.Duration, want float64, steal stealLog) (float64, float64, int) {
	p := tailPercentile(len(pts), want)
	if p == 0 {
		v, _ := newDist(values(pts)).tail(want)
		return v, 0, 1
	}
	for k := maxSub; k > 1; k-- {
		buckets := split(pts, span, k)
		ok := true
		for _, b := range buckets {
			ok = ok && qualifies(len(b), p) && len(b) >= minSubSamples
		}
		if !ok {
			continue
		}
		var vals []float64
		for _, i := range steal.calm(start, span, k) {
			vals = append(vals, percentile(newDist(buckets[i]).sorted, p))
		}
		return medianOf(vals), p, k
	}
	return percentile(newDist(values(pts)).sorted, p), p, 1
}

// splitRate returns events per second as the median over the calm half
// of maxSub sub-windows of span.
func splitRate(pts []point, start time.Time, span time.Duration, steal stealLog) float64 {
	buckets := split(pts, span, maxSub)
	var rates []float64
	for _, i := range steal.calm(start, span, maxSub) {
		rates = append(rates, float64(len(buckets[i]))/(span.Seconds()/maxSub))
	}
	return medianOf(rates)
}

// openLoop schedules request i of a fixed-rate stream that starts at
// start: due is when the request should leave, and the latency a
// client sees is measured from due, not from when the generator got
// round to sending it, so a stall is charged to every request queued
// behind it.
type openLoop struct {
	start time.Time
	rate  float64 // requests per second
}

func (o openLoop) due(i int) time.Time {
	return o.start.Add(time.Duration(float64(i) / o.rate * float64(time.Second)))
}

// measure returns request i's latency (ack − due) and how late the
// generator sent it (sent − due, never negative).
func (o openLoop) measure(i int, sent, acked time.Time) (latency, late time.Duration) {
	d := o.due(i)
	late = sent.Sub(d)
	if late < 0 {
		late = 0
	}
	return acked.Sub(d), late
}

// interval is one recorded span's extent.
type interval struct {
	start, end time.Time
}

func (iv interval) dur() time.Duration { return iv.end.Sub(iv.start) }

// covered returns how much of parent the children cover, counting time
// where several children overlap once: children that ran in parallel
// do not subtract their summed busy time, only their wall span.
func covered(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start.Before(parent.start) {
			c.start = parent.start
		}
		if c.end.After(parent.end) {
			c.end = parent.end
		}
		if c.end.After(c.start) {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start.Before(clipped[j].start) })
	var total time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case !c.start.After(cur.end):
			if c.end.After(cur.end) {
				cur.end = c.end
			}
		default:
			total += cur.dur()
			cur = c
		}
	}
	if len(clipped) > 0 {
		total += cur.dur()
	}
	return total
}

// selfTime is a span's duration minus the part its child spans cover
// and minus busy time reported by children known only as summed
// durations (histogram deltas), never below zero. busy is capped at
// what the interval children leave uncovered, since a child cannot
// have been busy for longer than its parent stayed open.
func selfTime(parent interval, children []interval, busy time.Duration) time.Duration {
	left := parent.dur() - covered(parent, children)
	if busy > left {
		return 0
	}
	return left - busy
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

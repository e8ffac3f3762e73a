package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailBeyond is the number of samples that must lie above a reported tail
// percentile: the tail is the highest percentile that still has this many
// samples beyond it, so it is never read off a handful of outliers.
const tailBeyond = 10

// median returns the median of xs (the mean of the middle pair for an even
// count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tail is a tail percentile with the sample count it rests on.
type tail struct {
	Value  float64 `json:"value"`
	Pct    float64 `json:"pct"`    // percentile of Value, e.g. 99.5
	N      int     `json:"n"`      // samples in the distribution
	Above  int     `json:"beyond"` // samples strictly above Value's rank (per block)
	Blocks int     `json:"blocks,omitempty"`
}

// tailOf returns the highest percentile of xs that has at least tailBeyond
// samples beyond it: with n sorted samples that is the sample at rank
// n-tailBeyond (1-based), i.e. the (n-tailBeyond)/n quantile. It reports
// false when there are too few samples for any such percentile.
func tailOf(xs []float64) (tail, bool) {
	n := len(xs)
	if n <= tailBeyond {
		return tail{N: n}, false
	}
	s := sortedCopy(xs)
	i := n - tailBeyond - 1
	return tail{Value: s[i], Pct: 100 * float64(i+1) / float64(n), N: n, Above: n - 1 - i}, true
}

// The tail rule is applied per block: a class's samples, in start order,
// are split into consecutive blocks of at least a block size, and the
// reported tail is the median of the blocks' tails. One slow stretch of a
// run then moves a few blocks, not the result. A class with fewer than two
// blocks' worth of samples is one block: its tail is the rule applied to
// the whole run.
const (
	// readTailBlock gives reads a p90 per block. A read's p99 sits at the
	// knee of the one or two percent of reads that a garbage collection or
	// a stall of the shared host hits: over five seeds on a 2-vCPU host the
	// reads' per-block p99 spread (quartile distance over median) by 0.35
	// on cold-7d and 0.6 on serve-write, their p90 by 0.16 on both.
	readTailBlock = 100
	// writeTailBlock gives writes a p99 per block. On cold-7d that lies
	// among the mutations that compact (about one in twenty), and is steady.
	writeTailBlock = 1000
)

// blockedTail returns the median over blocks of each block's tailOf, with
// the median percentile; N is the total sample count and Blocks the number
// of blocks.
func (l *latencies) blockedTail(size int) (tail, bool) {
	order := make([]int, len(l.ms))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return l.iv[order[a]].start.Before(l.iv[order[b]].start) })
	k := max(1, len(order)/size)
	var vals, pcts []float64
	for b := 0; b < k; b++ {
		block := make([]float64, 0, len(order)/k+1)
		for _, i := range order[b*len(order)/k : (b+1)*len(order)/k] {
			block = append(block, l.ms[i])
		}
		t, ok := tailOf(block)
		if !ok {
			return tail{N: len(l.ms)}, false
		}
		vals, pcts = append(vals, t.Value), append(pcts, t.Pct)
	}
	return tail{Value: median(vals), Pct: median(pcts), N: len(l.ms), Above: tailBeyond, Blocks: k}, true
}

// quantiles returns a few fixed quantiles of xs, for the run record.
func quantiles(xs []float64) map[string]float64 {
	s := sortedCopy(xs)
	q := map[string]float64{"n": float64(len(s))}
	for _, p := range []float64{50, 90, 95, 99, 99.9, 100} {
		if len(s) > 0 {
			q[fmt.Sprintf("p%g", p)] = s[min(len(s)-1, int(p/100*float64(len(s))))]
		}
	}
	return q
}

// interval is a [start, end) stretch of wall-clock time.
type interval struct{ start, end time.Time }

// unionLen returns the total length covered by the intervals, counting
// overlapping stretches once.
func unionLen(iv []interval) time.Duration {
	ns := make([][2]int64, len(iv))
	for i, x := range iv {
		ns[i] = [2]int64{x.start.UnixNano(), x.end.UnixNano()}
	}
	return time.Duration(mergedLen(ns))
}

// mergedLen returns the total length of the [lo, hi) spans, counting
// overlapping stretches once. It reorders iv.
func mergedLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	var cur [2]int64
	for i, x := range iv {
		switch {
		case i == 0:
			cur = x
		case x[0] > cur[1]:
			total += cur[1] - cur[0]
			cur = x
		case x[1] > cur[1]:
			cur[1] = x[1]
		}
	}
	if len(iv) > 0 {
		total += cur[1] - cur[0]
	}
	return total
}

// latencies collects per-operation wall times of one operation class and
// the intervals they covered, for the p50 / tail / rate triple.
type latencies struct {
	ms     []float64
	iv     []interval
	bursts []float64 // completion rate of each merged burst
}

func (l *latencies) add(start, end time.Time) {
	l.ms = append(l.ms, ms(end.Sub(start)))
	l.iv = append(l.iv, interval{start, end})
}

func (l *latencies) merge(o *latencies) {
	l.ms = append(l.ms, o.ms...)
	l.iv = append(l.iv, o.iv...)
}

// mergeBurst merges a burst, a stretch of back-to-back operations, and
// records its completion rate; the class's rate is the median burst rate.
func (l *latencies) mergeBurst(b *latencies) {
	if len(b.ms) == 0 {
		return
	}
	l.merge(b)
	l.bursts = append(l.bursts, b.perSecond())
}

// perSecond is the completion rate while at least one operation of the
// class was in flight: count over the union of their intervals.
func (l *latencies) perSecond() float64 {
	busy := unionLen(l.iv).Seconds()
	if busy == 0 {
		return 0
	}
	return float64(len(l.ms)) / busy
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

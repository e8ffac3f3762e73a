package mst

import (
	"sync/atomic"
	"time"
)

// Stats collects the instrumentation the paper's experiments report:
// per-phase wall-clock times (Figure 8) and work/memory counters for the
// MemoGFK memory study. Counter fields are updated atomically; timer maps
// are only touched from the coordinating goroutine.
type Stats struct {
	// PairsMaterialized counts WSPD pairs actually stored in memory
	// (all pairs for Naive/GFK; only per-round S_l1 pairs for MemoGFK,
	// less those whose BCCP endpoints were already connected at the start
	// of the round, which MemoGFK drops as it retrieves them).
	PairsMaterialized int64
	// PeakPairsResident is the maximum number of pairs alive at once.
	PeakPairsResident int64
	// BCCPComputed counts bichromatic-closest-pair invocations.
	BCCPComputed int64
	// Rounds counts filter-Kruskal rounds.
	Rounds int64

	Phases map[string]time.Duration
}

// NewStats returns an empty Stats.
func NewStats() *Stats { return &Stats{Phases: make(map[string]time.Duration)} }

// AddPhase accumulates wall-clock time for a named phase.
func (s *Stats) AddPhase(name string, d time.Duration) {
	if s == nil {
		return
	}
	s.Phases[name] += d
}

// Time runs f and accounts its duration under the named phase.
func (s *Stats) Time(name string, f func()) {
	if s == nil {
		f()
		return
	}
	start := time.Now()
	f()
	s.AddPhase(name, time.Since(start))
}

func (s *Stats) AddPairs(n int64) {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.PairsMaterialized, n)
}

// NotePeak records the current number of resident pairs, keeping the max.
func (s *Stats) NotePeak(resident int64) {
	if s == nil {
		return
	}
	for {
		peak := atomic.LoadInt64(&s.PeakPairsResident)
		if resident <= peak || atomic.CompareAndSwapInt64(&s.PeakPairsResident, peak, resident) {
			return
		}
	}
}

func (s *Stats) AddBCCP(n int64) {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.BCCPComputed, n)
}

func (s *Stats) AddRound() {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.Rounds, 1)
}

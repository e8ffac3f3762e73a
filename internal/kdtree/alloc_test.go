package kdtree

import (
	"testing"
	"testing/quick"

	"parclust/internal/metric"
)

// allocMetrics are the two float64 traversal kernels the alloc pins cover:
// the monomorphized squared-L2 path and the generic-metric path.
var allocMetrics = []struct {
	name string
	m    metric.Metric
}{{"l2", metric.L2{}}, {"l1", metric.L1{}}}

// everySeventh tombstones every 7th original id, the deletion pattern the
// live alloc pins query under.
func everySeventh(n int) []bool {
	tomb := make([]bool, n)
	for i := 0; i < n; i += 7 {
		tomb[i] = true
	}
	return tomb
}

// TestKNNIntoAllocs pins the workspace k-NN query paths at zero steady-state
// heap allocations, static (KNNInto by id) and live (KNNLiveInto by
// coordinates, with tombstones) under each metric kernel: the bounded heap
// and result buffer live in the workspace, leaf scans run over the tree's
// contiguous kd-ordered rows, and the original-id mapping is a flat array
// lookup.
func TestKNNIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins run without -race")
	}
	pts := randPoints(2000, 3, 21)
	tomb := everySeventh(pts.N)
	for _, mc := range allocMetrics {
		tr := BuildMetric(pts, 8, mc.m)
		queries := map[string]func(q int32, ws *KNNWorkspace){
			"static": func(q int32, ws *KNNWorkspace) { tr.KNNInto(q, 10, ws) },
			"live":   func(q int32, ws *KNNWorkspace) { tr.KNNLiveInto(pts.At(int(q)), 10, tomb, ws) },
		}
		for name, query := range queries {
			t.Run(mc.name+"/"+name, func(t *testing.T) {
				var ws KNNWorkspace
				query(0, &ws) // warm up: grows the heap and result buffers
				q := int32(0)
				allocs := testing.AllocsPerRun(100, func() {
					q = (q + 17) % int32(pts.N)
					query(q, &ws)
				})
				if allocs != 0 {
					t.Fatalf("steady-state k-NN allocated %v times, want 0", allocs)
				}
			})
		}
	}
}

// TestRangeQueryAppendAllocs pins the buffer-reusing range queries, static
// (RangeQueryAppend) and live (RangeQueryLiveAppend, with tombstones), at
// zero steady-state allocations once the buffer has grown, and the range
// counts (RangeCount, RangeCountLive) at zero allocations outright, under
// each metric kernel.
func TestRangeQueryAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins run without -race")
	}
	pts := randPoints(2000, 3, 22)
	tomb := everySeventh(pts.N)
	for _, mc := range allocMetrics {
		tr := BuildMetric(pts, 8, mc.m)
		queries := map[string]func(q int32, r float64, buf []int32) []int32{
			"static": func(q int32, r float64, buf []int32) []int32 {
				return tr.RangeQueryAppend(q, r, buf)
			},
			"live": func(q int32, r float64, buf []int32) []int32 {
				return tr.RangeQueryLiveAppend(pts.At(int(q)), r, tomb, buf)
			},
			"count": func(q int32, r float64, buf []int32) []int32 {
				tr.RangeCount(q, r)
				return buf
			},
			"count-live": func(q int32, r float64, buf []int32) []int32 {
				tr.RangeCountLive(pts.At(int(q)), r, tomb)
				return buf
			},
		}
		for name, query := range queries {
			t.Run(mc.name+"/"+name, func(t *testing.T) {
				buf := query(0, 30, nil)
				q := int32(0)
				allocs := testing.AllocsPerRun(100, func() {
					q = (q + 13) % int32(pts.N)
					buf = query(q, 20, buf[:0])
				})
				if allocs != 0 {
					t.Fatalf("steady-state range query allocated %v times, want 0", allocs)
				}
			})
		}
	}
}

// TestPermutationRoundTrip is the property test for the kd-order
// reordering: Orig and Inv are mutually inverse permutations, and the
// tree's reordered rows are exactly the original rows under Orig — so
// every id a query reports refers to the point the caller passed in.
func TestPermutationRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint16, dimRaw, leafRaw uint8) bool {
		n := 1 + int(nRaw)%3000
		dim := 1 + int(dimRaw)%5
		leaf := 1 + int(leafRaw)%16
		pts := randPoints(n, dim, seed)
		tr := Build(pts, leaf)
		if len(tr.Orig) != n || len(tr.Inv) != n {
			return false
		}
		seen := make([]bool, n)
		for p := 0; p < n; p++ {
			o := tr.Orig[p]
			if o < 0 || int(o) >= n || seen[o] {
				return false // not a permutation
			}
			seen[o] = true
			if tr.Inv[o] != int32(p) {
				return false // Inv is not the inverse of Orig
			}
			// Row round-trip: the reordered row is the original row.
			a, b := tr.Pts.At(p), pts.At(int(o))
			for k := range a {
				if a[k] != b[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestBuildDoesNotMutateInput pins the reordering contract: the tree
// permutes its own copy, never the caller's buffer.
func TestBuildDoesNotMutateInput(t *testing.T) {
	pts := randPoints(500, 3, 23)
	before := append([]float64(nil), pts.Data...)
	Build(pts, 1)
	for i := range before {
		if pts.Data[i] != before[i] {
			t.Fatal("Build mutated the caller's point buffer")
		}
	}
}

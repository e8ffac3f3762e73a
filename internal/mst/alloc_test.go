package mst

import (
	"testing"

	"parclust/internal/kdtree"
	"parclust/internal/metric"
	"parclust/internal/wspd"
)

// Allocation regression tests for the cache-conscious layout work: the
// Borůvka-style algorithms keep all per-round state in a Workspace and
// pre-build their parallel round bodies, so a steady-state round must not
// touch the heap at all. testing.AllocsPerRun runs with GOMAXPROCS=1, which
// drives the parallel primitives through their inline sequential paths —
// exactly the configuration where stray per-round allocations would
// otherwise hide in scheduler noise.

func TestBoruvkaRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins run without -race")
	}
	pts := randPoints(512, 3, 42)
	tr := kdtree.Build(pts, 1)
	ws := NewWorkspace()
	r := newBoruvkaRun(tr, nil, ws)
	if !r.round() { // warm up: first round sizes nothing (grow already did)
		t.Fatal("Borůvka finished in zero rounds")
	}
	allocs := testing.AllocsPerRun(10, func() { r.round() })
	if allocs != 0 {
		t.Fatalf("steady-state Borůvka round allocated %v times, want 0", allocs)
	}
}

func TestWSPDBoruvkaRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins run without -race")
	}
	pts := randPoints(512, 3, 43)
	tr := kdtree.Build(pts, 1)
	cfg := Config{Tree: tr, Metric: kdtree.NewEuclidean(tr), Sep: wspd.Geometric{S: 2}}
	ws := NewWorkspace()
	r := newWSPDBoruvkaRun(cfg, ws, decomposePairs(cfg))
	if !r.round() {
		t.Fatal("WSPD-Borůvka finished in zero rounds")
	}
	allocs := testing.AllocsPerRun(10, func() { r.round() })
	if allocs != 0 {
		t.Fatalf("steady-state WSPD-Borůvka round allocated %v times, want 0", allocs)
	}
}

// TestGFKRoundAllocs pins GFK's per-round allocations to a small constant:
// the round itself runs over workspace buffers, but the Kruskal batch sort
// and the rho reduction scaffolding allocate a handful of descriptors per
// call. The bound is deliberately loose enough to be schedule-independent
// and tight enough to catch a regression back to per-pair or per-point
// allocation.
func TestGFKRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins run without -race")
	}
	pts := randPoints(512, 3, 44)
	tr := kdtree.Build(pts, 1)
	cfg := Config{Tree: tr, Metric: kdtree.NewEuclidean(tr), Sep: wspd.Geometric{S: 2}}
	ws := NewWorkspace()
	raw := wspd.Decompose(tr, cfg.Sep)
	ws.grow(pts.N)
	ws.growPairs(len(raw))
	for i := range raw {
		ws.pairs[i] = gfkPair{a: raw[i].A, b: raw[i].B, res: kdtree.BCCPResult{U: -1, V: -1, W: 0}}
	}
	r := newGFKRun(cfg, ws, ws.pairs)
	beta := 2
	r.round(beta) // warm up: grows ws.batch
	const maxAllocs = 16
	allocs := testing.AllocsPerRun(5, func() {
		beta *= 2
		r.round(beta)
	})
	if allocs > maxAllocs {
		t.Fatalf("steady-state GFK round allocated %v times, want <= %d", allocs, maxAllocs)
	}
}

// TestMemoGFKRetrievalAllocs pins MemoGFK's GetPairs traversal: with
// one worker the recursion appends straight into the caller's buffer, so
// a traversal into a buffer that already has room allocates nothing,
// whether it emits a handful of edges or thousands. It covers the
// squared-space traversal on float64 and on the float32 scan path, and
// the generic-metric traversal (L1).
func TestMemoGFKRetrievalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pins run without -race")
	}
	pts := randPoints(2000, 3, 45)
	for _, mode := range []string{"sq-f64", "sq-f32", "generic-l1"} {
		t.Run(mode, func(t *testing.T) {
			var cfg Config
			if mode == "generic-l1" {
				cfg = metricConfig(pts, metric.L1{})
			} else {
				cfg = euclidConfig(pts)
			}
			if mode == "sq-f32" {
				if err := cfg.Tree.EnableFloat32(); err != nil {
					t.Fatal(err)
				}
			}
			ws := NewWorkspace()
			ws.grow(pts.N)
			cfg.Tree.RefreshComponentsInto(ws.uf, ws.comp)
			sq := sqConfigFor(cfg, ws.comp)
			if sq != nil {
				sq.brute = mode == "sq-f32"
			}
			// Squared-space windows square the thresholds (distances in the
			// unit-100 cube run to ~170).
			var batch []Edge
			retrieve := func(hi float64) int {
				batch = batch[:0]
				if sq != nil {
					getPairsNodeSq(sq, cfg.Tree.Root, 0, hi*hi, &batch)
				} else {
					getPairsNode(&cfg, ws.comp, cfg.Tree.Root, 0, hi, &batch)
				}
				return len(batch)
			}
			const wide, narrow = 20.0, 2.0
			retrieve(wide) // warm up: grows batch to the largest window
			for _, hi := range []float64{narrow, wide} {
				var emitted int
				allocs := testing.AllocsPerRun(5, func() { emitted = retrieve(hi) })
				if allocs != 0 {
					t.Errorf("retrieval up to %v emitted %d edges and allocated %v times, want 0", hi, emitted, allocs)
				}
			}
			if lo, hi := retrieve(narrow), retrieve(wide); hi < 10*lo || lo == 0 {
				t.Fatalf("windows emitted %d and %d edges; the pin needs a wide spread", lo, hi)
			}
		})
	}
}

// TestWorkspaceReuseAcrossRuns checks that a shared Config.WS is safe: a
// second run must not corrupt the first run's returned edges.
func TestWorkspaceReuseAcrossRuns(t *testing.T) {
	ws := NewWorkspace()
	pts1 := randPoints(200, 2, 7)
	pts2 := randPoints(300, 2, 8)
	cfg1 := euclidConfig(pts1)
	cfg1.WS = ws
	out1 := MemoGFK(cfg1)
	snapshot := append([]Edge(nil), out1...)
	cfg2 := euclidConfig(pts2)
	cfg2.WS = ws
	out2 := MemoGFK(cfg2)
	for i := range out1 {
		if out1[i] != snapshot[i] {
			t.Fatal("second run with a shared workspace mutated the first result")
		}
	}
	checkSpanningTree(t, pts2.N, out2)
	checkSpanningTree(t, pts1.N, out1)
}

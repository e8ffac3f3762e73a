package mst

import (
	"fmt"
	"math"

	"parclust/internal/kdtree"
	"parclust/internal/parallel"
)

// MemoGFK is the memory-optimized parallel GeoFilterKruskal (Algorithm 3).
// Instead of materializing the WSPD, each round performs two pruned k-d tree
// traversals: GetRho computes the weight ceiling rho_hi for the round (the
// minimum node-pair lower bound over not-yet-connected well-separated pairs
// with cardinality above beta), and GetPairs retrieves only the pairs whose
// BCCP lands in [rho_lo, rho_hi), feeding their edges to Kruskal
// (Filter-Kruskal, see KruskalBatch). GetPairs drops a retrieved edge whose
// endpoints already share a component at the start of the round, so a
// batch holds only edges Kruskal could accept; Stats.PairsMaterialized
// counts those. The union-find and component labels live in the reusable
// workspace. One batch buffer serves every round of a run: the sequential
// retrieval recursion appends into it directly, and only branches forked
// onto other workers allocate a private slice. The buffer is not kept in
// the workspace, so a pooled workspace does not pin the largest batch
// between runs. Returned edges carry original ids in Kruskal acceptance
// order.
func MemoGFK(cfg Config) []Edge {
	t := cfg.Tree
	n := t.Pts.N
	if n <= 1 {
		return nil
	}
	ws := cfg.WS
	if ws == nil {
		ws = NewWorkspace()
	}
	ws.grow(n)
	// The two L2-backed metrics take monomorphized traversals with every
	// bound (and the rho_lo/rho_hi window) in squared space; squaring is
	// monotone, so the round structure and retrieved pairs are identical.
	sq := sqConfigFor(cfg, ws.comp)
	if f := t.F32(); sq != nil && f != nil && f.Kern.Sq {
		// In float32 mode the small-pair scan cutoff replaces the deep tail
		// of the retrieval recursion.
		sq.brute = true
	}
	beta := 2
	rhoLo := 0.0
	var batch []Edge
	for round := 0; len(ws.out) < n-1; round++ {
		if round >= roundCap(cfg, n) {
			panic(fmt.Sprintf("mst: MemoGFK exceeded %d rounds (n=%d, |out|=%d)", maxRounds, n, len(ws.out)))
		}
		cfg.Abort.Check()
		cfg.Stats.AddRound()
		t.RefreshComponentsInto(ws.uf, ws.comp)

		// Line 4: rho_hi via the first pruned traversal.
		var rhoHi float64
		cfg.Stats.Time("wspd", func() {
			if sq != nil {
				rhoHi = getRhoSq(sq, t.Root, beta)
			} else {
				rhoHi = getRho(cfg, t.Root, beta)
			}
		})

		if rhoHi > rhoLo {
			// Line 5: retrieve only pairs with BCCP in [rho_lo, rho_hi).
			batch = batch[:0]
			cfg.Stats.Time("wspd", func() {
				if sq != nil {
					getPairsNodeSq(sq, t.Root, rhoLo, rhoHi, &batch)
				} else {
					getPairsNode(&cfg, ws.comp, t.Root, rhoLo, rhoHi, &batch)
				}
			})
			cfg.Stats.AddPairs(int64(len(batch)))
			cfg.Stats.NotePeak(int64(len(batch)))
			// Lines 6-7.
			cfg.Stats.Time("kruskal", func() {
				ws.out = KruskalBatch(batch, ws.uf, ws.out)
			})
			if !math.IsInf(rhoHi, 1) {
				rhoLo = rhoHi
			} else if len(batch) == 0 && len(ws.out) < n-1 {
				panic("mst: MemoGFK stalled with an incomplete MST")
			}
		}
		beta = nextBeta(cfg, beta)
	}
	return ws.finish(t.Orig)
}

// getRho traverses the implicit WSPD and returns the minimum metric lower
// bound over well-separated, not-yet-connected pairs with cardinality
// greater than beta (+Inf when none exist).
func getRho(cfg Config, root *kdtree.Node, beta int) float64 {
	rho := parallel.NewAtomicMinFloat64(math.Inf(1))
	getRhoNode(cfg, root, beta, rho)
	return rho.Load()
}

func getRhoNode(cfg Config, a *kdtree.Node, beta int, rho *parallel.AtomicMinFloat64) {
	if a.IsLeaf() || a.Size() <= 1 {
		return
	}
	if a.Comp >= 0 { // whole subtree already in one component
		return
	}
	if a.Size() <= beta { // every descendant pair has cardinality <= beta
		return
	}
	al, ar := cfg.Tree.LeftOf(a), cfg.Tree.RightOf(a)
	if a.Size() > spawnSize {
		cfg.Abort.Check()
		// Subtree traversals become stealable tasks; the split pair stays
		// on the current worker (work-first).
		var g parallel.Group
		g.Spawn(func() { getRhoNode(cfg, al, beta, rho) })
		g.Spawn(func() { getRhoNode(cfg, ar, beta, rho) })
		g.Run(func() { getRhoPair(cfg, al, ar, beta, rho) })
		g.Sync()
		return
	}
	getRhoNode(cfg, al, beta, rho)
	getRhoNode(cfg, ar, beta, rho)
	getRhoPair(cfg, al, ar, beta, rho)
}

func getRhoPair(cfg Config, p, q *kdtree.Node, beta int, rho *parallel.AtomicMinFloat64) {
	if connected(p, q) {
		return
	}
	if p.Size()+q.Size() <= beta {
		return // this pair and all of its descendants run this round
	}
	lb := cfg.Metric.NodeLB(p, q)
	if lb >= rho.Load() {
		return // descendants only have larger lower bounds
	}
	if p.Radius < q.Radius {
		p, q = q, p
	}
	if cfg.Sep.WellSeparated(p, q) {
		rho.Min(lb)
		return
	}
	if p.IsLeaf() {
		p, q = q, p
	}
	pl, pr := cfg.Tree.LeftOf(p), cfg.Tree.RightOf(p)
	if p.Size()+q.Size() > spawnSize {
		cfg.Abort.Check()
		parallel.Do(
			func() { getRhoPair(cfg, pl, q, beta, rho) },
			func() { getRhoPair(cfg, pr, q, beta, rho) },
		)
		return
	}
	getRhoPair(cfg, pl, q, beta, rho)
	getRhoPair(cfg, pr, q, beta, rho)
}

// getPairsNode appends to out the edges of well-separated pairs whose
// BCCP falls in [rhoLo, rhoHi), pruning connected pairs and pairs whose
// bounds place them wholly outside the range (Figure 3). An edge whose
// endpoints share a round-start component label in comp is dropped at
// emission: Kruskal would reject it anyway. The sequential recursion
// appends straight into out; only the forks (getPairsNodePar,
// getPairsPairPar) give their stolen branches a private slice.
func getPairsNode(cfg *Config, comp []int32, a *kdtree.Node, rhoLo, rhoHi float64, out *[]Edge) {
	if a.IsLeaf() || a.Size() <= 1 || a.Comp >= 0 {
		return
	}
	al, ar := cfg.Tree.LeftOf(a), cfg.Tree.RightOf(a)
	if a.Size() > spawnSize {
		cfg.Abort.Check()
		if parallel.Workers() > 1 {
			getPairsNodePar(cfg, comp, al, ar, rhoLo, rhoHi, out)
			return
		}
	}
	getPairsNode(cfg, comp, al, rhoLo, rhoHi, out)
	getPairsNode(cfg, comp, ar, rhoLo, rhoHi, out)
	getPairsPair(cfg, comp, al, ar, rhoLo, rhoHi, out)
}

// getPairsNodePar is getPairsNode's fork over the children al and ar:
// the subtree traversals become stealable tasks and the split pair stays
// on the current worker (work-first). The left branch appends to out; the
// other two fill private slices appended at the join, so out keeps the
// sequential order.
func getPairsNodePar(cfg *Config, comp []int32, al, ar *kdtree.Node, rhoLo, rhoHi float64, out *[]Edge) {
	var right, mid []Edge
	var g parallel.Group
	g.Spawn(func() { getPairsNode(cfg, comp, al, rhoLo, rhoHi, out) })
	g.Spawn(func() { getPairsNode(cfg, comp, ar, rhoLo, rhoHi, &right) })
	g.Run(func() { getPairsPair(cfg, comp, al, ar, rhoLo, rhoHi, &mid) })
	g.Sync()
	*out = append(append(*out, right...), mid...)
}

func getPairsPair(cfg *Config, comp []int32, p, q *kdtree.Node, rhoLo, rhoHi float64, out *[]Edge) {
	if connected(p, q) {
		return
	}
	if cfg.Metric.NodeLB(p, q) >= rhoHi {
		return // BCCPs of this pair and its descendants are >= rhoHi
	}
	if cfg.Metric.NodeUB(p, q) < rhoLo {
		return // BCCPs of this pair and its descendants are < rhoLo
	}
	if p.Radius < q.Radius {
		p, q = q, p
	}
	if cfg.Sep.WellSeparated(p, q) {
		res := kdtree.BCCP(cfg.Tree, cfg.Metric, p, q)
		cfg.Stats.AddBCCP(1)
		if res.W >= rhoLo && res.W < rhoHi && comp[res.U] != comp[res.V] {
			*out = append(*out, MakeEdge(res.U, res.V, res.W))
		}
		return
	}
	if p.IsLeaf() {
		p, q = q, p
	}
	pl, pr := cfg.Tree.LeftOf(p), cfg.Tree.RightOf(p)
	if p.Size()+q.Size() > spawnSize {
		cfg.Abort.Check()
		if parallel.Workers() > 1 {
			getPairsPairPar(cfg, comp, pl, pr, q, rhoLo, rhoHi, out)
			return
		}
	}
	getPairsPair(cfg, comp, pl, q, rhoLo, rhoHi, out)
	getPairsPair(cfg, comp, pr, q, rhoLo, rhoHi, out)
}

// getPairsPairPar is getPairsPair's two-way fork over pl and pr against q.
func getPairsPairPar(cfg *Config, comp []int32, pl, pr, q *kdtree.Node, rhoLo, rhoHi float64, out *[]Edge) {
	var r []Edge
	parallel.Do(
		func() { getPairsPair(cfg, comp, pl, q, rhoLo, rhoHi, out) },
		func() { getPairsPair(cfg, comp, pr, q, rhoLo, rhoHi, &r) },
	)
	*out = append(*out, r...)
}

// spawnSize mirrors the WSPD spawning threshold.
const spawnSize = 1024

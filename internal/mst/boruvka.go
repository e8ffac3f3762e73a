package mst

import (
	"math"
	"sync/atomic"
	"time"

	"parclust/internal/abort"
	"parclust/internal/geometry"
	"parclust/internal/kdtree"
	"parclust/internal/parallel"
)

// Boruvka computes the MST under the tree's metric with Borůvka rounds
// over a k-d tree: each round finds, for every point, its nearest point in
// a different union-find component (pruning subtrees that lie wholly in
// the point's component), reduces those candidates to one lightest
// outgoing edge per component, and merges. It stands in for the dual-tree
// Borůvka baseline (mlpack) that the paper's Table 3 compares against; run
// with GOMAXPROCS=1 it is the sequential baseline, and it parallelizes
// over points otherwise. The nearest-outside traversal is selected once
// per run: Euclidean trees take the squared-distance path (candidate
// weights stay squared until an edge is accepted — squaring is monotone,
// so the selection and its tie-breaking are unchanged).
//
// All per-round state lives in a Workspace and the round bodies are
// allocated once up front, so steady-state rounds perform zero heap
// allocations (pinned by TestBoruvkaRoundAllocs). The returned edges carry
// original input ids.
func Boruvka(t *kdtree.Tree, stats *Stats) []Edge {
	return BoruvkaWS(t, stats, NewWorkspace())
}

// BoruvkaWS is Boruvka running on a caller-owned reusable workspace.
func BoruvkaWS(t *kdtree.Tree, stats *Stats, ws *Workspace) []Edge {
	return BoruvkaCancelWS(t, stats, ws, nil)
}

// BoruvkaCancelWS is BoruvkaWS with a cooperative cancellation flag,
// polled once per round and once per 32-point query chunk; on abort the
// run unwinds with abort.Signal{}. af may be nil.
func BoruvkaCancelWS(t *kdtree.Tree, stats *Stats, ws *Workspace, af *abort.Flag) []Edge {
	n := t.Pts.N
	if n <= 1 {
		return nil
	}
	r := newBoruvkaRun(t, stats, ws)
	r.af = af
	for r.round() {
	}
	out := ws.finish(t.Orig)
	parallel.Sort(out, Less)
	return out
}

// boruvkaRun is one Borůvka execution: the reusable buffers plus the
// pre-built parallel round bodies (built once so rounds don't allocate
// closures).
type boruvkaRun struct {
	t     *kdtree.Tree
	ws    *Workspace
	stats *Stats
	l2    bool
	f32   *kdtree.F32 // non-nil selects the float32 lane-scan query path
	af    *abort.Flag

	queryBody  func(lo, hi int)
	reduceBody func(lo, hi int)
}

func newBoruvkaRun(t *kdtree.Tree, stats *Stats, ws *Workspace) *boruvkaRun {
	n := t.Pts.N
	ws.grow(n)
	r := &boruvkaRun{t: t, ws: ws, stats: stats, l2: t.IsL2(), f32: t.F32()}
	dim := t.Pts.Dim
	data := t.Pts.Data
	r.queryBody = func(lo, hi int) {
		r.af.Check()
		for i := lo; i < hi; i++ {
			q := int32(i)
			best := Edge{U: -1, V: -1, W: math.Inf(1)}
			qc := data[i*dim : (i+1)*dim : (i+1)*dim]
			switch {
			case r.f32 != nil:
				nearestOutside32(t, r.f32, t.Root, q, qc, r.f32.Row(q), ws.comp, &best)
			case r.l2:
				nearestOutside(t, t.Root, q, qc, ws.comp, &best)
			default:
				nearestOutsideMetric(t, t.Root, q, qc, ws.comp, &best)
			}
			ws.cand[i] = best
		}
	}
	r.reduceBody = func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := ws.cand[i]
			if e.U < 0 {
				continue
			}
			casMinEdge(ws.best, ws.cand, ws.comp[i], int32(i))
		}
	}
	return r
}

// casMinEdge write-mins candidate index i into the dense slot of component
// c: the slot converges to the Less-least edge regardless of interleaving,
// keeping rounds deterministic under any schedule.
func casMinEdge(best []int32, cand []Edge, c, i int32) {
	slot := &best[c]
	for {
		cur := atomic.LoadInt32(slot)
		if cur >= 0 && !Less(cand[i], cand[cur]) {
			return
		}
		if atomic.CompareAndSwapInt32(slot, cur, i) {
			return
		}
	}
}

// round runs one Borůvka round; it reports whether more rounds remain.
func (r *boruvkaRun) round() bool {
	ws := r.ws
	if ws.uf.Components() <= 1 {
		return false
	}
	r.af.Check()
	r.stats.AddRound()
	n := r.t.Pts.N
	start := time.Now()
	r.t.RefreshComponentsInto(ws.uf, ws.comp)
	r.stats.AddPhase("refresh", time.Since(start))

	start = time.Now()
	parallel.ForRange(n, 32, r.queryBody)
	r.stats.AddPhase("query", time.Since(start))

	start = time.Now()
	// Reduce candidates to the lightest edge per component, then merge.
	parallel.ForRange(n, 512, r.reduceBody)
	for c := 0; c < n; c++ {
		bi := ws.best[c]
		if bi < 0 {
			continue
		}
		ws.best[c] = -1
		e := ws.cand[bi]
		if ws.uf.Union(e.U, e.V) {
			if r.f32 != nil {
				e.W = r.f32.Kern.Finish(e.W)
			} else if r.l2 {
				e.W = math.Sqrt(e.W)
			}
			ws.out = append(ws.out, e)
		}
	}
	r.stats.AddPhase("merge", time.Since(start))
	return true
}

// nearestOutside and nearestOutsideMetric stay two functions, unlike the
// kd-tree's k-NN and range traversals, which branch on the metric inline:
// the same inline merge made 7-D L2 Borůvka 6% slower (1614 → 1713 ms,
// faster in 1 of 8 alternating pairs, 2-vCPU Xeon, GOMAXPROCS=2).

// nearestOutside finds the nearest point to q (a kd-order position) that
// lies in a different component, writing the candidate edge into best with
// its weight in squared space. Ties follow the Less order (squaring is
// monotone, so the squared-space comparison picks the same edge).
func nearestOutside(t *kdtree.Tree, nd *kdtree.Node, q int32, qc []float64, comp []int32, best *Edge) {
	cq := comp[q]
	if nd.Comp >= 0 && nd.Comp == cq {
		return // subtree entirely in q's component
	}
	// Prune only once a candidate exists: with no candidate yet, best.W is
	// +Inf and a box at overflowed (+Inf) squared distance must still be
	// descended, or a round could record nothing and never merge.
	if best.U >= 0 && geometry.SqDistPointBox(qc, nd.Box) >= best.W {
		return
	}
	if nd.IsLeaf() {
		kern := t.SqKern()
		dim := t.Pts.Dim
		data := t.Pts.Data
		for p := nd.Lo; p < nd.Hi; p++ {
			if comp[p] == cq {
				continue
			}
			row := int(p) * dim
			d := kern(qc, data[row:row+dim:row+dim])
			if d > best.W {
				continue
			}
			u, v := q, p
			if u > v {
				u, v = v, u
			}
			// best.U < 0 accepts the first candidate even at d == +Inf
			// (squared-distance overflow on huge finite coordinates);
			// without it the round would record nothing and never merge.
			if best.U < 0 || d < best.W || u < best.U || (u == best.U && v < best.V) {
				*best = Edge{U: u, V: v, W: d}
			}
		}
		return
	}
	left, right := t.LeftOf(nd), t.RightOf(nd)
	dl := geometry.SqDistPointBox(qc, left.Box)
	dr := geometry.SqDistPointBox(qc, right.Box)
	if dl <= dr {
		nearestOutside(t, left, q, qc, comp, best)
		nearestOutside(t, right, q, qc, comp, best)
	} else {
		nearestOutside(t, right, q, qc, comp, best)
		nearestOutside(t, left, q, qc, comp, best)
	}
}

// nearestOutsideMetric is nearestOutside under the tree's metric kernel,
// pruning with the kernel's point-box lower bound; weights are true
// tree-metric distances.
func nearestOutsideMetric(t *kdtree.Tree, nd *kdtree.Node, q int32, qc []float64, comp []int32, best *Edge) {
	cq := comp[q]
	if nd.Comp >= 0 && nd.Comp == cq {
		return // subtree entirely in q's component
	}
	if best.U >= 0 && t.M.PointBoxLB(qc, nd.Box) >= best.W {
		return
	}
	if nd.IsLeaf() {
		dim := t.Pts.Dim
		data := t.Pts.Data
		for p := nd.Lo; p < nd.Hi; p++ {
			if comp[p] == cq {
				continue
			}
			row := int(p) * dim
			d := t.M.Dist(qc, data[row:row+dim:row+dim])
			if d > best.W {
				continue
			}
			u, v := q, p
			if u > v {
				u, v = v, u
			}
			if best.U < 0 || d < best.W || u < best.U || (u == best.U && v < best.V) {
				*best = Edge{U: u, V: v, W: d}
			}
		}
		return
	}
	left, right := t.LeftOf(nd), t.RightOf(nd)
	dl := t.M.PointBoxLB(qc, left.Box)
	dr := t.M.PointBoxLB(qc, right.Box)
	if dl <= dr {
		nearestOutsideMetric(t, left, q, qc, comp, best)
		nearestOutsideMetric(t, right, q, qc, comp, best)
	} else {
		nearestOutsideMetric(t, right, q, qc, comp, best)
		nearestOutsideMetric(t, left, q, qc, comp, best)
	}
}

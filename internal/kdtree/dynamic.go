package kdtree

import "math"

// Live queries. Each float64 query has one traversal (knn, rangeQuery,
// rangeCount) with an optional tombstone filter: tomb is indexed by original
// id, and nil means no deletions. A static query is a live query with
// tomb == nil; the entry points here differ from the static ones only in
// taking a raw coordinate vector instead of an indexed point id, because
// the query point may live in the engine's overlay buffer rather than in
// the tree. While tombstones exist, leaf scans skip tombstoned points and
// range count's wholesale subtree shortcut is off, since a node's Size() no
// longer equals its live population.
//
// Static and live queries share their kernels (the monomorphized
// squared-Euclidean kernel + sqrt for L2, M.Dist otherwise), so a live
// result is bit-identical to the same query against a tree freshly built
// over the surviving points.

// DistCoords returns the tree-metric distance between two coordinate rows,
// using the same kernel sequence as the tree's own leaf scans (squared
// kernel + sqrt under L2, the metric itself otherwise), so overlay-point
// distances merge bit-identically with tree results.
func (t *Tree) DistCoords(a, b []float64) float64 {
	if t.l2 {
		return math.Sqrt(t.sqKern(a, b))
	}
	return t.M.Dist(a, b)
}

// KNNLiveInto returns the k nearest non-tombstoned tree points to the
// coordinate vector qc, sorted by increasing tree-metric distance, appending
// into the workspace's buffers. Result ids are original input ids. Fewer
// than k results are returned when fewer than k live points exist.
func (t *Tree) KNNLiveInto(qc []float64, k int, tomb []bool, ws *KNNWorkspace) []Neighbor {
	ws.h.reset(k)
	ws.out = ws.out[:0]
	t.knn(t.Root, qc, tomb, &ws.h)
	ws.out = ws.h.popAllInto(ws.out, t.Orig, t.finish())
	return ws.out
}

// RangeQueryLiveAppend appends the original ids of all non-tombstoned tree
// points within tree-metric distance r of the coordinate vector qc, in no
// particular order.
func (t *Tree) RangeQueryLiveAppend(qc []float64, r float64, tomb []bool, out []int32) []int32 {
	t.rangeQuery(t.Root, qc, t.keyRadius(r), tomb, &out)
	return out
}

// RangeCountLive returns the number of non-tombstoned tree points within
// tree-metric distance r of the coordinate vector qc. With tombstones
// present the wholesale subtree count is disabled (node sizes overcount);
// without, it behaves like RangeCount.
func (t *Tree) RangeCountLive(qc []float64, r float64, tomb []bool) int {
	return t.rangeCount(t.Root, qc, t.keyRadius(r), tomb)
}

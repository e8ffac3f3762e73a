package kdtree

import "parclust/internal/geometry"

// RangeQuery returns the original ids of all points within tree-metric
// distance r of the point with original id q (including q itself), in no
// particular order.
func (t *Tree) RangeQuery(q int32, r float64) []int32 {
	return t.RangeQueryAppend(q, r, nil)
}

// RangeQueryAppend is RangeQuery appending to out (which may be nil or a
// reused buffer), so steady-state query streams allocate nothing once the
// buffer has grown.
func (t *Tree) RangeQueryAppend(q int32, r float64, out []int32) []int32 {
	qc := t.Pts.At(int(t.Inv[q]))
	if f := t.f32; f != nil {
		t.rangeQuery32(t.Root, qc, f.Row(t.Inv[q]), f.Kern.CmpRadius(r), &out)
		return out
	}
	return t.RangeQueryLiveAppend(qc, r, nil, out)
}

// RangeCount returns the number of points within tree-metric distance r of
// the point with original id q (including q itself) without materializing
// them. Subtrees whose bounding boxes lie entirely within the ball are
// counted wholesale.
func (t *Tree) RangeCount(q int32, r float64) int {
	qc := t.Pts.At(int(t.Inv[q]))
	if f := t.f32; f != nil {
		return t.rangeCount32(t.Root, qc, f.Row(t.Inv[q]), f.Kern.CmpRadius(r))
	}
	return t.RangeCountLive(qc, r, nil)
}

// keyRadius maps a tree-metric radius into the float64 traversal key space
// (squared under L2; see knn).
func (t *Tree) keyRadius(r float64) float64 {
	if t.l2 {
		return r * r
	}
	return r
}

// rangeQuery is the float64 range-query traversal, shared by static and
// live queries: it appends the original ids of the non-tombstoned points
// (tomb nil: no deletions) within key-space radius kr of qc. The L2 branch
// stays inline for the reason given at knn.
func (t *Tree) rangeQuery(n *Node, qc []float64, kr float64, tomb []bool, out *[]int32) {
	if n == nil {
		return
	}
	var lb float64
	if t.l2 {
		lb = geometry.SqDistPointBox(qc, n.Box)
	} else {
		lb = t.M.PointBoxLB(qc, n.Box)
	}
	if lb > kr {
		return
	}
	if n.IsLeaf() {
		d := t.Pts.Dim
		data := t.Pts.Data
		for p := n.Lo; p < n.Hi; p++ {
			if tomb != nil && tomb[t.Orig[p]] {
				continue
			}
			r := int(p) * d
			row := data[r : r+d : r+d]
			var key float64
			if t.l2 {
				key = t.sqKern(qc, row)
			} else {
				key = t.M.Dist(qc, row)
			}
			if key <= kr {
				*out = append(*out, t.Orig[p])
			}
		}
		return
	}
	t.rangeQuery(t.LeftOf(n), qc, kr, tomb, out)
	t.rangeQuery(t.RightOf(n), qc, kr, tomb, out)
}

// rangeCount is the float64 range-count traversal, shared by static and
// live queries. Subtrees lying wholly inside the ball are counted by their
// size only while tomb == nil: with tombstones a node's Size() overcounts
// its live population.
func (t *Tree) rangeCount(n *Node, qc []float64, kr float64, tomb []bool) int {
	if n == nil {
		return 0
	}
	var lb float64
	if t.l2 {
		lb = geometry.SqDistPointBox(qc, n.Box)
	} else {
		lb = t.M.PointBoxLB(qc, n.Box)
	}
	if lb > kr {
		return 0
	}
	if tomb == nil {
		var ub float64
		if t.l2 {
			ub = geometry.SqMaxDistBoxes(pointBox(qc), n.Box)
		} else {
			ub = t.M.BoxesUB(pointBox(qc), n.Box)
		}
		if ub <= kr {
			return n.Size() // whole subtree inside the ball
		}
	}
	if n.IsLeaf() {
		d := t.Pts.Dim
		data := t.Pts.Data
		cnt := 0
		for p := n.Lo; p < n.Hi; p++ {
			if tomb != nil && tomb[t.Orig[p]] {
				continue
			}
			r := int(p) * d
			row := data[r : r+d : r+d]
			var key float64
			if t.l2 {
				key = t.sqKern(qc, row)
			} else {
				key = t.M.Dist(qc, row)
			}
			if key <= kr {
				cnt++
			}
		}
		return cnt
	}
	return t.rangeCount(t.LeftOf(n), qc, kr, tomb) + t.rangeCount(t.RightOf(n), qc, kr, tomb)
}

func pointBox(qc []float64) geometry.Box {
	return geometry.Box{Lo: qc, Hi: qc}
}

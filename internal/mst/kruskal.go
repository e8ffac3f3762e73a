package mst

import (
	"math/bits"
	"slices"

	"parclust/internal/unionfind"
)

// KruskalBatch runs one Kruskal pass over a batch of candidate edges,
// unioning endpoints in the shared total order Less and appending accepted
// edges to out. It is Filter-Kruskal (Osipov, Sanders and Singler, ALENEX
// 2009): the batch is partitioned in place around a pivot, the lighter side
// is processed first, edges of the heavier side that the lighter side has
// already connected are dropped, and the rest is processed in turn; slices
// of at most kruskalBase edges are sorted and scanned. Because Less is a
// total order, the accepted edges and their order are exactly those of
// sorting the whole batch and scanning it, but edges that close a cycle
// early are never sorted — most of a MemoGFK batch. The batch is permuted
// in place. Batches must arrive in non-decreasing weight ranges for the
// overall result to be an MST (which the GFK round structure guarantees).
func KruskalBatch(edges []Edge, uf *unionfind.UF, out []Edge) []Edge {
	return filterKruskal(edges, uf, out, 2*bits.Len(uint(len(edges))))
}

// kruskalBase is the slice length at or below which filterKruskal sorts
// and scans instead of partitioning.
const kruskalBase = 256

// filterKruskal is KruskalBatch's recursion. depth bounds the partition
// levels, so pivots that keep splitting badly fall back to sort-and-scan
// after O(log n) levels instead of degrading to quadratic work.
func filterKruskal(edges []Edge, uf *unionfind.UF, out []Edge, depth int) []Edge {
	for len(edges) > 0 && uf.Components() > 1 {
		if len(edges) <= kruskalBase || depth == 0 {
			slices.SortFunc(edges, cmpEdge)
			return unionScan(edges, uf, out)
		}
		depth--
		lt, gt := partition3(edges)
		out = filterKruskal(edges[:lt], uf, out, depth)
		// edges[lt:gt] are copies of the pivot: at most the first unions.
		out = unionScan(edges[lt:gt], uf, out)
		edges = filterConnected(edges[gt:], uf)
	}
	return out
}

// unionScan unions the endpoints of edges in slice order, appending each
// edge that merged two components to out.
func unionScan(edges []Edge, uf *unionfind.UF, out []Edge) []Edge {
	for _, e := range edges {
		if uf.Union(e.U, e.V) {
			out = append(out, e)
		}
	}
	return out
}

// filterConnected compacts edges in place to those whose endpoints are
// still in different components.
func filterConnected(edges []Edge, uf *unionfind.UF) []Edge {
	k := 0
	for _, e := range edges {
		if uf.Find(e.U) != uf.Find(e.V) {
			edges[k] = e
			k++
		}
	}
	return edges[:k]
}

// partition3 permutes edges around a median-of-three pivot into
// edges[:lt] < pivot, edges[lt:gt] equivalent to it, and edges[gt:] >
// pivot under Less (a three-way split, so duplicate edges cannot stall
// the recursion). The pivot is one of the edges, so lt < gt.
func partition3(edges []Edge) (lt, gt int) {
	n := len(edges)
	pivot := medianOf3(edges[n/4], edges[n/2], edges[3*n/4])
	lt, i, gt := 0, 0, n
	for i < gt {
		switch e := edges[i]; {
		case Less(e, pivot):
			edges[lt], edges[i] = e, edges[lt]
			lt++
			i++
		case Less(pivot, e):
			gt--
			edges[i], edges[gt] = edges[gt], e
		default:
			i++
		}
	}
	return lt, gt
}

func medianOf3(a, b, c Edge) Edge {
	if Less(b, a) {
		a, b = b, a
	}
	if Less(c, b) {
		b = c
		if Less(b, a) {
			b = a
		}
	}
	return b
}

// cmpEdge is Less as a three-way comparison for slices.SortFunc.
func cmpEdge(a, b Edge) int {
	if Less(a, b) {
		return -1
	}
	if Less(b, a) {
		return 1
	}
	return 0
}

// Kruskal computes an MST (or spanning forest) of the given edge list over
// n vertices, returning the accepted edges in weight order. The input
// slice is permuted in place — every caller in this module owns its edge
// list (Naive and ApproxOPTICS build theirs immediately beforehand), so
// the old defensive full-slice copy was pure overhead; callers that need
// the original order must copy before calling.
func Kruskal(n int, edges []Edge) []Edge {
	uf := unionfind.New(n)
	return KruskalBatch(edges, uf, make([]Edge, 0, n-1))
}

package mst

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"parclust/internal/unionfind"
)

// refKruskalBatch is the sort-then-union Kruskal pass KruskalBatch
// replaced; Filter-Kruskal must reproduce it exactly.
func refKruskalBatch(edges []Edge, uf *unionfind.UF, out []Edge) []Edge {
	sort.Slice(edges, func(i, j int) bool { return Less(edges[i], edges[j]) })
	for _, e := range edges {
		if uf.Union(e.U, e.V) {
			out = append(out, e)
		}
	}
	return out
}

// randBatch draws m edges over n vertices. weights selects the weight
// distribution: "distinct" (continuous), "ties" (four values), "equal"
// (one value) or "dups" (continuous, with every edge repeated up to three
// times).
func randBatch(rng *rand.Rand, n, m int, weights string) []Edge {
	edges := make([]Edge, 0, m)
	for len(edges) < m {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v {
			continue
		}
		var w float64
		switch weights {
		case "distinct", "dups":
			w = rng.Float64()
		case "ties":
			w = float64(rng.Intn(4))
		case "equal":
			w = 1.5
		}
		e := MakeEdge(u, v, w)
		edges = append(edges, e)
		if weights == "dups" {
			for k := rng.Intn(3); k > 0 && len(edges) < m; k-- {
				edges = append(edges, e)
			}
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return edges
}

// TestKruskalBatchMatchesSortThenUnion checks Filter-Kruskal against the
// reference on randomized batches below, at and far above the base-case
// size, under heavy weight ties, all-equal weights (a degenerate pivot)
// and duplicate edges, with fresh and partly merged union-finds. The
// accepted edges, their order and the final component count must match.
func TestKruskalBatchMatchesSortThenUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{0, 1, 17, kruskalBase - 1, kruskalBase, kruskalBase + 1, 4 * kruskalBase, 200000}
	for _, m := range sizes {
		for _, weights := range []string{"distinct", "ties", "equal", "dups"} {
			// Few vertices make most of a batch close cycles (MemoGFK's
			// regime); many leave most edges acceptable.
			for _, n := range []int{2, 64, 5000} {
				for _, premerged := range []bool{false, true} {
					name := fmt.Sprintf("m=%d/%s/n=%d/premerged=%v", m, weights, n, premerged)
					edges := randBatch(rng, n, m, weights)
					ufGot, ufWant := unionfind.New(n), unionfind.New(n)
					if premerged {
						for k := 0; k < n/2; k++ {
							u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
							ufGot.Union(u, v)
							ufWant.Union(u, v)
						}
					}
					// A non-empty out checks that accepted edges are appended.
					seed := []Edge{MakeEdge(0, 1, -1)}
					want := refKruskalBatch(slices.Clone(edges), ufWant, slices.Clone(seed))
					got := KruskalBatch(edges, ufGot, slices.Clone(seed))
					if !slices.Equal(got, want) {
						t.Fatalf("%s: accepted %d edges, reference %d (or order differs)", name, len(got), len(want))
					}
					if ufGot.Components() != ufWant.Components() {
						t.Fatalf("%s: %d components, reference %d", name, ufGot.Components(), ufWant.Components())
					}
				}
			}
		}
	}
}

// TestFilterKruskalDepthFallback exhausts the partition-depth budget at
// every small depth, so the sort-and-scan fallback runs on partly
// partitioned and partly filtered slices.
func TestFilterKruskalDepthFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for depth := 0; depth <= 3; depth++ {
		for _, weights := range []string{"distinct", "ties", "dups"} {
			edges := randBatch(rng, 300, 20*kruskalBase, weights)
			ufGot, ufWant := unionfind.New(300), unionfind.New(300)
			want := refKruskalBatch(slices.Clone(edges), ufWant, nil)
			got := filterKruskal(edges, ufGot, nil, depth)
			if !slices.Equal(got, want) || ufGot.Components() != ufWant.Components() {
				t.Fatalf("depth=%d/%s: filterKruskal differs from the reference", depth, weights)
			}
		}
	}
}

package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"parclust"
	"parclust/internal/dendrogram"
	"parclust/internal/geometry"
	"parclust/internal/hdbscan"
	"parclust/internal/kdtree"
	"parclust/internal/metric"
	"parclust/internal/mst"
	"parclust/internal/wspd"
)

// This file replays the clustering pipeline one public layer function at a
// time and times each call, so an end-to-end figure can be split into the
// layers that produced it. Every replay is checked against the one-shot
// result, so it measures the same program.

// edgeHash fingerprints an edge list, order included.
func edgeHash(edges []mst.Edge) uint64 {
	h := fnv.New64a()
	var b [16]byte
	for _, e := range edges {
		binary.LittleEndian.PutUint32(b[0:], uint32(e.U))
		binary.LittleEndian.PutUint32(b[4:], uint32(e.V))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(e.W))
		h.Write(b[:])
	}
	return h.Sum64()
}

// labelHash fingerprints a flat clustering's labels.
func labelHash(labels []int32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, l := range labels {
		binary.LittleEndian.PutUint32(b[:], uint32(l))
		h.Write(b[:])
	}
	return h.Sum64()
}

// epsLadder picks k cut radii at evenly spaced quantiles of an MST's edge
// weights between the lo and hi quantiles, so each cut splits the
// hierarchy somewhere different.
func epsLadder(edges []mst.Edge, k int, lo, hi float64) []float64 {
	w := make([]float64, len(edges))
	for i, e := range edges {
		w[i] = e.W
	}
	w = sortedCopy(w)
	eps := make([]float64, k)
	for i := range eps {
		q := lo + (hi-lo)*float64(i+1)/float64(k+1)
		eps[i] = w[int(q*float64(len(w)-1))]
	}
	return eps
}

// serveLadder is serve-write's eps ladder: 5 cuts between the 20th and
// 60th percentile of the MST weights, where every cut leaves hundreds of
// clusters. The restage request cuts at the middle one.
func serveLadder(edges []mst.Edge) []float64 { return epsLadder(edges, 5, 0.2, 0.6) }

// replay is the output of one layer-by-layer HDBSCAN* pipeline.
type replay struct {
	edges  []mst.Edge
	cd     []float64
	stats  *mst.Stats
	dendro *dendrogram.Dendrogram
	took   map[string]time.Duration // per layer call
}

// replayHDBSCAN runs kd-tree build, core distances, annotation, the MemoGFK
// mutual-reachability MST and the dendrogram as separate calls, the same
// stage sequence parclust.HDBSCAN runs, each inside a span under parent.
func replayHDBSCAN(tr *tracer, parent, req int64, pts geometry.Points, minPts int) replay {
	r := replay{stats: mst.NewStats(), took: map[string]time.Duration{}}
	var t *kdtree.Tree
	r.took["kdtree.build"] = tr.do("kdtree.build", parent, req, func(int64) { t = kdtree.BuildMetric(pts, 1, metric.L2{}) })
	r.took["kdtree.coredist"] = tr.do("kdtree.coredist", parent, req, func(int64) { r.cd = t.CoreDistances(minPts) })
	r.took["kdtree.annotate"] = tr.do("kdtree.annotate", parent, req, func(int64) { t.AnnotateCoreDists(r.cd) })
	r.took["mst.hdbscan"] = tr.do("mst.hdbscan", parent, req, func(int64) {
		r.edges = hdbscan.MSTOnAnnotatedTree(t, hdbscan.MemoGFK, metric.L2{}, nil, r.stats)
	})
	r.took["dendrogram.build"] = tr.do("dendrogram.build", parent, req, func(int64) { r.dendro = dendrogram.BuildParallel(pts.N, r.edges, 0) })
	return r
}

// replayEMST runs kd-tree build and MemoGFK under the s=2 geometric
// separation as separate calls, the stage sequence parclust.EMST runs.
func replayEMST(tr *tracer, parent, req int64, pts geometry.Points) (replay, *kdtree.Tree) {
	r := replay{stats: mst.NewStats(), took: map[string]time.Duration{}}
	var t *kdtree.Tree
	r.took["kdtree.build"] = tr.do("kdtree.build", parent, req, func(int64) { t = kdtree.BuildMetric(pts, 1, metric.L2{}) })
	r.took["mst.emst"] = tr.do("mst.emst", parent, req, func(int64) {
		r.edges = mst.MemoGFK(mst.Config{Tree: t, Metric: kdtree.NewEuclidean(t), Sep: wspd.Geometric{S: 2}, Stats: r.stats})
	})
	return r, t
}

// setAlgorithmLayers reports the kdtree, wspd, mst and dendrogram metrics
// from one HDBSCAN* replay and one EMST replay over the same points, and
// checks both against the one-shot edge lists.
func setAlgorithmLayers(rep *report, pts geometry.Points, eps []float64, hd, em replay, emTree *kdtree.Tree, wantHD, wantEM uint64) {
	rep.op(edgeHash(hd.edges) == wantHD, "replayed HDBSCAN* MST differs from the one-shot MST")
	rep.op(edgeHash(em.edges) == wantEM, "replayed EMST differs from the one-shot EMST")
	rep.set("kdtree.build_ms", ms(hd.took["kdtree.build"]))
	rep.set("kdtree.coredist_ms", ms(hd.took["kdtree.coredist"]))
	rep.set("kdtree.annotate_ms", ms(hd.took["kdtree.annotate"]))
	rep.set("mst.hdbscan_ms", ms(hd.took["mst.hdbscan"]))
	rep.set("mst.emst_ms", ms(em.took["mst.emst"]))
	rep.set("mst.wspd_ms", ms(hd.stats.Phases["wspd"]))
	rep.set("mst.kruskal_ms", ms(hd.stats.Phases["kruskal"]))
	rep.set("mst.rounds", float64(hd.stats.Rounds))
	rep.set("mst.bccp_calls", float64(hd.stats.BCCPComputed))
	rep.set("mst.pairs_materialized", float64(hd.stats.PairsMaterialized))
	rep.set("mst.peak_pairs_resident", float64(hd.stats.PeakPairsResident))
	if hd.stats.BCCPComputed > 0 {
		rep.set("mst.edges_per_bccp", float64(pts.N-1)/float64(hd.stats.BCCPComputed))
	}
	var pairs int
	rep.tr.do("wspd.count", 0, 0, func(int64) { pairs = wspd.Count(emTree, wspd.Geometric{S: 2}) })
	rep.set("wspd.pairs", float64(pairs))
	if pairs > 0 {
		rep.set("mst.pairs_resident_frac", float64(hd.stats.PeakPairsResident)/float64(pairs))
	}
	rep.set("dendrogram.build_ms", ms(hd.took["dendrogram.build"]))
	var cutter *dendrogram.Cutter
	d := rep.tr.do("dendrogram.cutter", 0, 0, func(int64) { cutter = dendrogram.NewCutter(pts.N, hd.edges, hd.cd) })
	rep.set("dendrogram.cutter_ms", ms(d))
	cuts := make([]float64, 0, len(eps))
	for _, e := range eps {
		cuts = append(cuts, us(rep.tr.do("dendrogram.cut", 0, 0, func(int64) { cutter.CutAt(e) })))
	}
	rep.set("dendrogram.cut_us", median(cuts))
}

// setEngineLayers times Index.Insert, a kNN read on the dirty index,
// Index.Delete and Index.Compact on an Index over pts, a warm (cached) cut
// at eps on h, a hierarchy memoized by an Index, and a cold snapshot write
// and read.
func setEngineLayers(rep *report, pts, batch geometry.Points, h *parclust.Hierarchy, eps float64) error {
	tr := rep.tr
	ix, err := parclust.NewIndex(pts, nil)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	d := tr.do("store.write_snapshot", 0, 0, func(int64) { err = ix.WriteSnapshot(&buf) })
	if err != nil {
		return fmt.Errorf("write snapshot: %w", err)
	}
	rep.set("store.cold_snapshot_write_ms", ms(d))
	var back *parclust.Index
	d = tr.do("store.read_snapshot", 0, 0, func(int64) { back, err = parclust.ReadSnapshot(bytes.NewReader(buf.Bytes())) })
	if err != nil {
		return fmt.Errorf("read snapshot: %w", err)
	}
	rep.op(back.N() == pts.N, "snapshot round trip has %d points, want %d", back.N(), pts.N)
	rep.set("store.snapshot_read_ms", ms(d))

	if _, err := ix.KNN(0, 1); err != nil { // builds the base tree
		return err
	}
	var ids []int64
	d = tr.do("engine.insert", 0, 0, func(int64) { ids, err = ix.Insert(batch) })
	if err != nil {
		return fmt.Errorf("insert: %w", err)
	}
	rep.set("engine.insert_ms", ms(d))
	knn := make([]float64, 0, 64)
	for q := 0; q < 64; q++ {
		qq := int32(q * (pts.N + batch.N) / 64)
		var nb []parclust.Neighbor
		knn = append(knn, us(tr.do("kdtree.knn", 0, 0, func(int64) { nb, err = ix.KNN(qq, 10) })))
		rep.op(err == nil && len(nb) == 10, "dirty kNN(%d): %d neighbours, err %v", qq, len(nb), err)
	}
	rep.set("kdtree.knn_us", median(knn))
	old := make([]int64, batch.N)
	for i := range old {
		old[i] = int64(i)
	}
	d = tr.do("engine.delete", 0, 0, func(int64) { err = ix.Delete(old) })
	if err != nil {
		return fmt.Errorf("delete: %w", err)
	}
	rep.set("engine.delete_ms", ms(d))
	d = tr.do("engine.compact", 0, 0, func(int64) { err = ix.Compact() })
	if err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	rep.set("engine.compact_ms", ms(d))
	rep.op(ix.N() == pts.N && len(ids) == batch.N, "after insert+delete+compact N=%d, want %d", ix.N(), pts.N)

	h.ClustersAt(eps) // fills the cut cache
	warm := make([]float64, 0, 32)
	for i := 0; i < 32; i++ {
		warm = append(warm, us(tr.do("engine.cut_warm", 0, 0, func(int64) { h.ClustersAt(eps) })))
	}
	rep.set("engine.cut_warm_us", median(warm))
	return nil
}

// setSpeedup reports the one-shot HDBSCAN* time at GOMAXPROCS=1 over the
// time at procs, measured back to back on the same points.
func setSpeedup(rep *report, pts geometry.Points, minPts int) error {
	timed := func(p int) (time.Duration, error) {
		prev := runtime.GOMAXPROCS(p)
		defer runtime.GOMAXPROCS(prev)
		runtime.GC()
		start := time.Now()
		_, err := parclust.HDBSCAN(pts, minPts)
		return time.Since(start), err
	}
	one, err := timed(1)
	if err != nil {
		return err
	}
	two, err := timed(procs)
	if err != nil {
		return err
	}
	rep.set("parallel.speedup", one.Seconds()/two.Seconds())
	rep.note("parallel", map[string]float64{"hdbscan_s_procs_1": one.Seconds(), fmt.Sprintf("hdbscan_s_procs_%d", procs): two.Seconds()})
	return nil
}

// rtSample is a reading of the Go runtime's allocation and GC counters.
type rtSample struct {
	allocBytes uint64
	gcCycles   uint64
	pauseSec   float64
}

var rtNames = []string{"/gc/heap/allocs:bytes", "/gc/cycles/automatic:gc-cycles", "/sched/pauses/total/gc:seconds"}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	out := rtSample{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[2].Value.Float64Histogram()
		for i, c := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			mid := (lo + hi) / 2
			switch {
			case math.IsInf(lo, -1):
				mid = hi
			case math.IsInf(hi, 1):
				mid = lo
			}
			out.pauseSec += float64(c) * mid
		}
	}
	return out
}

// setRuntime reports allocation and GC activity between two readings,
// per workload operation.
func setRuntime(rep *report, before, after rtSample, ops int) {
	if ops < 1 {
		ops = 1
	}
	rep.set("go.alloc_kb_per_op", float64(after.allocBytes-before.allocBytes)/1024/float64(ops))
	rep.set("go.gc_cycles_per_kop", float64(after.gcCycles-before.gcCycles)*1000/float64(ops))
	rep.set("go.gc_pause_ms", (after.pauseSec-before.pauseSec)*1000)
}

// setEngineCounters reports stage-cache counter deltas over a window.
func setEngineCounters(rep *report, before, after parclust.IndexStats) {
	rep.set("engine.tree_builds", float64(after.TreeBuilds-before.TreeBuilds))
	rep.set("engine.coredist_builds", float64(after.CoreDistBuilds-before.CoreDistBuilds))
	rep.set("engine.mst_builds", float64(after.MSTBuilds-before.MSTBuilds))
	rep.set("engine.dendrogram_builds", float64(after.DendrogramBuilds-before.DendrogramBuilds))
	rep.set("engine.compactions", float64(after.Compactions-before.Compactions))
	rep.set("engine.tree_patches", float64(after.TreePatches-before.TreePatches))
	rep.set("engine.coalesced", float64(after.Coalesced()-before.Coalesced()))
	hits, builds := after.CutHits-before.CutHits, after.CutBuilds-before.CutBuilds
	ratio := 0.0
	if hits+builds > 0 {
		ratio = float64(hits) / float64(hits+builds)
	}
	rep.set("engine.cut_hit_ratio", ratio)
}

// pointModel is the client's copy of a live point set: rows in ascending
// external-id order, which is the dense id order of the Index.
type pointModel struct {
	dim  int
	ids  []int64
	rows []float64
	next int64
}

func newModel(pts geometry.Points) *pointModel {
	m := &pointModel{dim: pts.Dim, rows: append([]float64(nil), pts.Data...), next: int64(pts.N)}
	m.ids = make([]int64, pts.N)
	for i := range m.ids {
		m.ids[i] = int64(i)
	}
	return m
}

func (m *pointModel) n() int { return len(m.ids) }

// insert appends rows and returns the ids the Index must assign them.
func (m *pointModel) insert(rows geometry.Points) []int64 {
	ids := make([]int64, rows.N)
	for i := range ids {
		ids[i] = m.next
		m.next++
	}
	m.ids = append(m.ids, ids...)
	m.rows = append(m.rows, rows.Data...)
	return ids
}

// deleteOldest removes the k oldest live points and returns their ids.
func (m *pointModel) deleteOldest(k int) []int64 {
	ids := append([]int64(nil), m.ids[:k]...)
	m.ids = m.ids[k:]
	m.rows = m.rows[k*m.dim:]
	return ids
}

func (m *pointModel) points() geometry.Points {
	return geometry.Points{Data: append([]float64(nil), m.rows...), N: len(m.ids), Dim: m.dim}
}

// chunk returns the i-th batch of size rows from a stream of points,
// wrapping around at its end.
func chunk(stream geometry.Points, i, size int) geometry.Points {
	per := stream.N / size
	off := (i % per) * size * stream.Dim
	return geometry.Points{Data: stream.Data[off : off+size*stream.Dim], N: size, Dim: stream.Dim}
}

// Each workload draws its points from a fixed population made by the
// generator with popSeed, the way the paper draws from a fixed real data
// set: --seed picks which popFactor-th of the population a run measures,
// so inputs change with the seed while the data's structure, and with it
// the work, does not.
const (
	popSeed   = 1
	popFactor = 4
)

// samplePoints draws n of pop's points, keeping their population order,
// and returns the rest in a seeded order as a stream of rows to insert.
func samplePoints(pop geometry.Points, n int, seed int64) (sample, rest geometry.Points) {
	perm := rand.New(rand.NewSource(seed)).Perm(pop.N)
	idx := perm[:n]
	sort.Ints(idx)
	pick := func(ids []int) geometry.Points {
		out := geometry.NewPoints(len(ids), pop.Dim)
		for i, j := range ids {
			copy(out.At(i), pop.At(j))
		}
		return out
	}
	return pick(idx), pick(perm[n:])
}

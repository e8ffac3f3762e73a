package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"parclust"
	"parclust/internal/dendrogram"
	"parclust/internal/generator"
	"parclust/internal/geometry"
	"parclust/internal/kdtree"
	"parclust/internal/mst"
	"parclust/internal/oracle"
)

// coldSizes sizes the cold-7d workload.
type coldSizes struct {
	n, dim, k, minPts int
	samples           int // seeded samples measured round robin in one run
	cuts              int // flat cuts read from each fresh hierarchy
	setups            int // set-up repetitions; setup_s is their median
	mutCycles, batch  int // insert+delete cycles of batch rows on a live Index
}

var (
	coldFull  = coldSizes{n: 15000, dim: 7, k: 20, minPts: 10, samples: 5, cuts: 600, setups: 51, mutCycles: 2048, batch: 100}
	coldSmall = coldSizes{n: 1500, dim: 7, k: 20, minPts: 10, samples: 2, cuts: 12, setups: 3, mutCycles: 12, batch: 20}
)

// coldIter is one iteration's outputs, reduced to what the checks compare.
type coldIter struct {
	hdHash, emHash uint64
	hdW, emW       float64
	labels         []uint64 // label hash per eps
}

// coldSample is one input point set with the eps ladder and reference
// outputs of its first iteration.
type coldSample struct {
	pts  geometry.Points
	eps  []float64
	ref  coldIter
	seen bool
}

// runCold is the cold-7d workload: one sequential library caller repeats
// a one-shot HDBSCAN*, flat cuts over an eps ladder on the fresh hierarchy,
// and a one-shot EMST on 7-D Household-like points, cycling through the
// run's seeded samples. A traced run replays each iteration on the first
// sample one layer function at a time instead.
func runCold(cfg config, rep *report) error {
	sz := coldFull
	if cfg.small {
		sz = coldSmall
	}
	rep.note("n", sz.n)
	var sets []*coldSample
	var stream geometry.Points
	setups := make([]float64, sz.setups)
	for i := range setups {
		runtime.GC()
		start := time.Now()
		pop := generator.GaussianMixture(popFactor*sz.n, sz.dim, sz.k, popSeed)
		sets = sets[:0]
		for j := 0; j < sz.samples; j++ {
			pts, rest := samplePoints(pop, sz.n, cfg.seed*int64(sz.samples)+int64(j))
			sets = append(sets, &coldSample{pts: pts})
			if j == 0 {
				stream = rest
			}
		}
		setups[i] = time.Since(start).Seconds()
	}
	rep.set("setup_s", median(setups))
	if rep.tr != nil {
		sets = sets[:1]
	}
	pts := sets[0].pts

	// Iteration 0, on the first sample, warms the process up and is not
	// measured. A traced run also runs iteration 1 untraced, as the
	// baseline for the tracing overhead, and traces the iterations after
	// it. Each sample's first iteration is the reference its later
	// iterations must reproduce exactly; after the window every measured
	// sample's reference is cross-checked against two independent
	// algorithms, so each timed iteration is compared with an answer that
	// does not come from the code it times.
	first := int64(1) // the first measured iteration
	if rep.tr != nil {
		first = 2
	}
	var base coldRun
	var baseline time.Duration
	var last coldReplay
	var hdT, emT, firstCuts, rss []float64
	var iterations [][3]float64 // sample, HDBSCAN* s, EMST s of each measured iteration
	var queries latencies
	var rt0 rtSample
	ops := 0
	var window time.Time
	for iter := int64(0); iter <= first || time.Since(window) < cfg.seconds; iter++ {
		if iter == first {
			rt0, window = readRuntime(), time.Now()
		}
		set := sets[int(iter)%len(sets)]
		// Each iteration starts on a collected heap whose free pages are
		// returned to the system, so its peak resident set is its own.
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return err
		}
		var run coldRun
		if iter < first || rep.tr == nil {
			var err error
			if run, err = coldOneShot(set.pts, sz.minPts, sz.cuts, &set.eps); err != nil {
				return err
			}
		} else {
			run, last = coldTraced(rep, iter, set.pts, sz.minPts, set.eps)
		}
		peak, err := peakRSSMB()
		if err != nil {
			return err
		}
		if !set.seen {
			set.ref, set.seen = run.it, true
			checkTree(rep, "HDBSCAN* MST", set.pts.N, run.hMST)
			checkTree(rep, "EMST", set.pts.N, run.em)
		}
		it := run.it
		rep.op(it.hdHash == set.ref.hdHash && it.hdW == set.ref.hdW, "iteration %d: HDBSCAN* MST differs from the sample's first iteration", iter)
		rep.op(it.emHash == set.ref.emHash && it.emW == set.ref.emW, "iteration %d: EMST differs from the sample's first iteration", iter)
		for i, e := range set.eps {
			rep.op(it.labels[i] == set.ref.labels[i], "iteration %d: labels at eps=%g differ from the sample's first iteration", iter, e)
		}
		switch {
		case iter == 0:
			base = run
			continue
		case iter < first:
			baseline = run.hd
			continue
		}
		hdT, emT = append(hdT, run.hd.Seconds()), append(emT, run.emT.Seconds())
		iterations = append(iterations, [3]float64{float64(int(iter) % len(sets)), run.hd.Seconds(), run.emT.Seconds()})
		rss = append(rss, peak)
		firstCuts = append(firstCuts, ms(run.firstCut))
		queries.mergeBurst(&run.q)
		ops += 2 + len(run.q.ms)
	}
	rt1 := readRuntime()
	rep.set("peak_rss_mb", median(rss))
	rep.set("hdbscan_s", median(hdT))
	rep.set("emst_s", median(emT))
	if err := rep.setLatencies("query", &queries, readTailBlock, true); err != nil {
		return err
	}
	rep.note("iterations", iterations)
	rep.note("first_cut_p50_ms", median(firstCuts))
	for _, set := range sets {
		if set.seen {
			if err := crossCheck(rep, set, sz.minPts); err != nil {
				return err
			}
		}
	}
	ref, eps := sets[0].ref, sets[0].eps
	if err := libraryMutations(rep, pts, stream, sz.mutCycles, sz.batch); err != nil {
		return err
	}
	if rep.tr == nil {
		return nil
	}

	// Traced run: per-layer metrics on the same points.
	rep.set("trace.overhead_ms", median(hdT)*1000-ms(baseline))
	setEngineCounters(rep, parclust.IndexStats{}, base.counters) // one HDBSCAN* Index
	setRuntime(rep, rt0, rt1, ops)
	setAlgorithmLayers(rep, pts, eps, last.hd, last.em, last.emTree, ref.hdHash, ref.emHash)
	batch := chunk(stream, 0, sz.batch)
	if err := setEngineLayers(rep, pts, batch, base.hier, eps[0]); err != nil {
		return err
	}
	if err := coldDaemonLayers(cfg, rep, pts, batch, sz.minPts, eps); err != nil {
		return err
	}
	return setSpeedup(rep, pts, sz.minPts)
}

// coldRun is one cold-7d iteration.
type coldRun struct {
	it       coldIter
	firstCut time.Duration // the first cut, which also builds the cut structure
	q        latencies     // the flat cuts after it
	hd, emT  time.Duration
	hier     *parclust.Hierarchy // nil on a traced iteration
	hMST, em []mst.Edge
	counters parclust.IndexStats // the HDBSCAN* Index's stage counters
}

// addCut records the i-th cut of an iteration, started at s.
func (r *coldRun) addCut(i int, s time.Time) {
	if i == 0 {
		r.firstCut = time.Since(s)
		return
	}
	r.q.add(s, time.Now())
}

// coldOneShot is one untraced iteration: HDBSCAN*, a flat cut at each eps
// (the ladder is picked from the first hierarchy when eps is empty), and
// EMST. Each of the two runs on a throwaway Index, the work the one-shot
// parclust.HDBSCAN and parclust.EMST do, so the HDBSCAN* Index's stage
// counters can be read.
func coldOneShot(pts geometry.Points, minPts, cuts int, eps *[]float64) (coldRun, error) {
	var r coldRun
	start := time.Now()
	hix, err := parclust.NewIndex(pts, nil)
	if err != nil {
		return r, err
	}
	h, err := hix.HDBSCAN(minPts)
	if err != nil {
		return r, err
	}
	r.hd, r.hier, r.hMST = time.Since(start), h, h.MST
	if len(*eps) == 0 {
		*eps = epsLadder(h.MST, cuts, 0, 1)
	}
	runtime.GC() // the cuts, and then EMST, each start on a collected heap
	for i, e := range *eps {
		s := time.Now()
		c := h.ClustersAt(e)
		r.addCut(i, s)
		r.it.labels = append(r.it.labels, labelHash(c.Labels))
	}
	runtime.GC()
	start = time.Now()
	eix, err := parclust.NewIndex(pts, nil)
	if err != nil {
		return r, err
	}
	if r.em, err = eix.EMST(); err != nil {
		return r, err
	}
	r.emT = time.Since(start)
	r.it.hdHash, r.it.hdW = edgeHash(h.MST), h.TotalWeight()
	r.it.emHash, r.it.emW = edgeHash(r.em), mst.TotalWeight(r.em)
	r.counters = hix.Stats()
	return r, nil
}

// coldReplay is one traced iteration's layer-by-layer pipelines.
type coldReplay struct {
	hd, em replay
	emTree *kdtree.Tree
}

// coldTraced is one traced iteration: the same work as coldOneShot, with
// HDBSCAN* and EMST replayed one layer call at a time under root spans,
// and each cut timed as a dendrogram span.
func coldTraced(rep *report, iter int64, pts geometry.Points, minPts int, eps []float64) (coldRun, coldReplay) {
	tr := rep.tr
	var r coldRun
	var p coldReplay
	r.hd = tr.do("hdbscan", 0, iter, func(id int64) { p.hd = replayHDBSCAN(tr, id, iter, pts, minPts) })
	runtime.GC()
	var cutter *dendrogram.Cutter
	for i, e := range eps {
		var c parclust.Clustering
		s := time.Now()
		tr.do("query", 0, iter, func(id int64) {
			if i == 0 {
				tr.do("dendrogram.cutter", id, iter, func(int64) { cutter = dendrogram.NewCutter(pts.N, p.hd.edges, p.hd.cd) })
			}
			tr.do("dendrogram.cut", id, iter, func(int64) { c = cutter.CutAt(e) })
		})
		r.addCut(i, s)
		r.it.labels = append(r.it.labels, labelHash(c.Labels))
	}
	runtime.GC()
	r.emT = tr.do("emst", 0, iter, func(id int64) { p.em, p.emTree = replayEMST(tr, id, iter, pts) })
	r.hMST, r.em = p.hd.edges, p.em.edges
	r.it.hdHash, r.it.hdW = edgeHash(p.hd.edges), mst.TotalWeight(p.hd.edges)
	r.it.emHash, r.it.emW = edgeHash(p.em.edges), mst.TotalWeight(p.em.edges)
	return r, p
}

// crossCheck compares a sample's reference MST weights with those of
// Boruvka's EMST and Gan-Tao's HDBSCAN* on the same points.
func crossCheck(rep *report, set *coldSample, minPts int) error {
	bor, err := parclust.EMSTWithStats(set.pts, parclust.EMSTBoruvka, nil)
	if err != nil {
		return err
	}
	rep.op(sameWeight(mst.TotalWeight(bor), set.ref.emW), "EMST weight %v, Boruvka %v", set.ref.emW, mst.TotalWeight(bor))
	gt, err := parclust.HDBSCANWithStats(set.pts, minPts, parclust.HDBSCANGanTao, nil)
	if err != nil {
		return err
	}
	rep.op(sameWeight(gt.TotalWeight(), set.ref.hdW), "HDBSCAN* MST weight %v, Gan-Tao %v", set.ref.hdW, gt.TotalWeight())
	return nil
}

// checkTree counts one check that edges span n points with n-1 edges.
func checkTree(rep *report, what string, n int, edges []mst.Edge) {
	rep.op(len(edges) == n-1 && oracle.IsSpanningTree(n, edges), "%s: %d edges, spanning=%v", what, len(edges), oracle.IsSpanningTree(n, edges))
}

// sameWeight compares MST weights from different algorithms, which sum
// the same edges in different orders.
func sameWeight(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(a)) }

// libraryMutations runs insert/delete cycles on a live Index over pts, the
// library user's write path: each cycle inserts batch rows from stream and
// deletes the batch oldest live points, so n stays fixed. Each cycle's
// insert plus delete time is one mutate sample. The final Index is checked
// against a fresh one.
func libraryMutations(rep *report, pts, stream geometry.Points, cycles, batch int) error {
	ix, err := parclust.NewIndex(pts, nil)
	if err != nil {
		return err
	}
	if _, err := ix.KNN(0, 1); err != nil { // build the tree a live Index has
		return err
	}
	model := newModel(pts)
	var lat latencies
	runtime.GC()
	for c := 0; c < cycles; c++ {
		rows := chunk(stream, c, batch)
		want := model.insert(rows)
		s := time.Now()
		ids, err := ix.Insert(rows)
		ins := time.Since(s)
		okI := rep.op(err == nil && fmt.Sprint(ids) == fmt.Sprint(want), "insert cycle %d: ids %v.., err %v", c, first(ids), err)
		old := model.deleteOldest(batch)
		d := time.Now()
		err = ix.Delete(old)
		del := time.Since(d)
		if rep.op(err == nil && ix.N() == model.n(), "delete cycle %d: n=%d want %d, err %v", c, ix.N(), model.n(), err) && okI {
			lat.add(s, s.Add(ins+del))
		}
	}
	if err := rep.setLatencies("mutate", &lat, writeTailBlock, false); err != nil {
		return err
	}
	fresh, err := parclust.NewIndex(model.points(), nil)
	if err != nil {
		return err
	}
	for q := int32(0); q < int32(model.n()); q += int32(model.n()/16 + 1) {
		a, errA := ix.KNN(q, 10)
		b, errB := fresh.KNN(q, 10)
		rep.op(errA == nil && errB == nil && fmt.Sprint(a) == fmt.Sprint(b), "mutated Index kNN(%d) differs from a fresh Index", q)
	}
	return nil
}

func first(ids []int64) []int64 { return ids[:min(3, len(ids))] }

// coldDaemonLayers measures the daemon layer on the cold-7d points: it
// serves them from a fresh daemon, warms minPts, and times each route.
func coldDaemonLayers(cfg config, rep *report, pts, batch geometry.Points, minPts int, eps []float64) error {
	dir, err := workDir(cfg, "cold-7d-daemon-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	h, err := startDaemon(dir, rep.tr)
	if err != nil {
		return err
	}
	defer h.close()
	cl := newClient(h.ts.URL, rep.tr)
	defer cl.close()
	const name = "cold-7d"
	r, err := cl.do(upload(name, pts), "setup.upload", 0)
	if !replyOK(r, err) {
		return fmt.Errorf("upload: %s", describe(r, err))
	}
	calls := probeCalls{
		hdbscan: hdbscanCall(name, minPts, eps[0], true, false),
		ndjson:  hdbscanCall(name, minPts, eps[0], true, true),
		knn:     knnCall(name, 0, 10),
		rng:     rangeCall(name, 0, eps[len(eps)/2]),
		sweep:   sweepCall(name, []int{minPts}, eps[:5]),
	}
	return setDaemonLayers(rep, h, cl, name, pts, batch, calls)
}

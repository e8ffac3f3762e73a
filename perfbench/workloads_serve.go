package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"parclust"
	"parclust/internal/dendrogram"
	"parclust/internal/generator"
	"parclust/internal/geometry"
	"parclust/internal/mst"
)

// writeSizes sizes the serve-write workload.
type writeSizes struct {
	n, minPts, setups int
	batch             int // rows inserted and deleted per cycle
	knn               int // dirty-index kNN reads after each mutation
}

var (
	writeFull  = writeSizes{n: 20000, minPts: 10, setups: 15, batch: 500, knn: 4}
	writeSmall = writeSizes{n: 1500, minPts: 10, setups: 2, batch: 50, knn: 4}
)

// served is one set-up of a serve workload: a daemon persisting to its own
// directory with the dataset uploaded, its stages built by a cold hdbscan
// and a cold emst request, and warmed by one pass over the warm calls.
type served struct {
	h        *harness
	cl       *client
	dir      string
	setup    time.Duration
	coldEM   time.Duration // the first emst request
	emstBody []byte
	warm     [][]byte // replies to the warm calls, in order
}

func (s *served) close() {
	s.cl.close()
	s.h.close()
	os.RemoveAll(s.dir)
}

// setupServe starts a daemon and brings name to the warm state a serve
// workload measures. Any failure here is an error: there is nothing to
// measure without it.
func setupServe(cfg config, rep *report, name string, pts geometry.Points, cold call, warm []call) (*served, error) {
	start := time.Now()
	dir, err := workDir(cfg, name+"-")
	if err != nil {
		return nil, err
	}
	h, err := startDaemon(dir, rep.tr)
	if err != nil {
		return nil, err
	}
	s := &served{h: h, cl: newClient(h.ts.URL, rep.tr), dir: dir}
	fail := func(what string, r reply, err error) (*served, error) {
		s.close()
		return nil, fmt.Errorf("set-up %s: %s", what, describe(r, err))
	}
	r, err := s.cl.do(upload(name, pts), "setup.upload", 0)
	var up struct{ Persisted bool }
	if !replyOK(r, err) || json.Unmarshal(r.body, &up) != nil || !up.Persisted {
		return fail("upload", r, err)
	}
	r, err = s.cl.do(cold, "setup.cold_hdbscan", 0)
	if !replyOK(r, err) {
		return fail("cold hdbscan", r, err)
	}
	r, err = s.cl.do(get("emst", "/v1/datasets/"+name+"/emst?edges=false"), "setup.cold_emst", 0)
	if !replyOK(r, err) {
		return fail("cold emst", r, err)
	}
	s.coldEM, s.emstBody = r.end.Sub(r.start), bytes.Clone(r.body)
	for _, x := range warm {
		r, err = s.cl.do(x, "setup.warm", 0)
		if !replyOK(r, err) {
			return fail("warm-up "+x.path, r, err)
		}
		s.warm = append(s.warm, bytes.Clone(r.body))
	}
	s.setup = time.Since(start)
	return s, nil
}

// setupRepeated runs setupServe cfg-many times, closing each daemon before
// the next starts so that only one is resident, and reports setup_s and
// emst_s as medians over the repetitions. It checks that every repetition
// returned the same warm replies, and returns the last daemon.
func setupRepeated(cfg config, rep *report, times int, name string, pts geometry.Points, cold call, warm []call) (*served, error) {
	var setup, em []float64
	var s *served
	var prev [][]byte // the previous set-up's warm replies
	for i := 0; i < times; i++ {
		if s != nil {
			prev = s.warm
			s.close()
		}
		runtime.GC()
		var err error
		if s, err = setupServe(cfg, rep, name, pts, cold, warm); err != nil {
			return nil, err
		}
		setup = append(setup, s.setup.Seconds())
		em = append(em, s.coldEM.Seconds())
		for j := range prev {
			rep.op(bytes.Equal(prev[j], s.warm[j]), "set-up %d: reply to %s differs from set-up %d", i, warm[j].path, i-1)
		}
	}
	rep.set("setup_s", median(setup))
	rep.set("emst_s", median(em))
	return s, nil
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// windows lists the measured windows of a run: one untraced window, or on
// a traced run an untraced and a traced half, whose difference is the
// tracing overhead.
func windows(cfg config) []bool {
	if cfg.trace {
		return []bool{false, true}
	}
	return []bool{false}
}

// windowLen is the length of one measured window.
func windowLen(cfg config) time.Duration {
	return cfg.seconds / time.Duration(len(windows(cfg)))
}

// postRows inserts rows through the daemon and checks the assigned ids and
// the reply's n against the model. It returns the reply and whether it
// passed.
func postRows(rep *report, cl *client, name string, m *pointModel, rows geometry.Points, req int64) (reply, bool) {
	want := m.insert(rows)
	r, err := cl.do(insertCall(name, rows), "write.points_post", req)
	var body struct {
		IDs []int64
		N   int
	}
	ok := replyOK(r, err) && json.Unmarshal(r.body, &body) == nil
	return r, rep.op(ok && body.N == m.n() && fmt.Sprint(body.IDs) == fmt.Sprint(want), "POST points: n %d want %d: %s", body.N, m.n(), describe(r, err))
}

// deleteRows deletes the k oldest live points through the daemon and checks
// the reply's n against the model. It returns the reply and whether it
// passed.
func deleteRows(rep *report, cl *client, name string, m *pointModel, k int, req int64) (reply, bool) {
	r, err := cl.do(deleteCall(name, m.deleteOldest(k)), "write.points_delete", req)
	var body struct{ N int }
	ok := replyOK(r, err) && json.Unmarshal(r.body, &body) == nil
	return r, rep.op(ok && body.N == m.n(), "DELETE points: n %d want %d: %s", body.N, m.n(), describe(r, err))
}

// addMutation records one insert+delete pair, the unit of write work that
// keeps n fixed, as one sample of the pair's summed request times.
func addMutation(lat *latencies, post, del reply, ok bool) {
	if ok {
		lat.add(post.start, post.start.Add(post.end.Sub(post.start)+del.end.Sub(del.start)))
	}
}

// serveLayers reports the per-layer metrics of a serve workload's traced
// run, on the points the daemon serves (h must be the direct Index's
// memoized hierarchy at minPts over those points).
func serveLayers(rep *report, s *served, name string, pts, batch geometry.Points, ix *parclust.Index, h *parclust.Hierarchy, eps []float64, sweep []int, minPts int) error {
	emst, err := ix.EMST()
	if err != nil {
		return err
	}
	hd := replayHDBSCAN(rep.tr, 0, 0, pts, minPts)
	em, emTree := replayEMST(rep.tr, 0, 0, pts)
	setAlgorithmLayers(rep, pts, eps, hd, em, emTree, edgeHash(h.MST), edgeHash(emst))
	if err := setEngineLayers(rep, pts, batch, h, eps[0]); err != nil {
		return err
	}
	far, err := ix.KNN(0, 20)
	if err != nil {
		return err
	}
	calls := probeCalls{
		hdbscan: hdbscanCall(name, minPts, eps[0], true, false),
		ndjson:  hdbscanCall(name, minPts, eps[0], true, true),
		knn:     knnCall(name, 0, 10),
		rng:     rangeCall(name, 0, far[len(far)-1].Dist),
		sweep:   sweepCall(name, sweep, eps),
	}
	return setDaemonLayers(rep, s.h, s.cl, name, pts, batch, calls)
}

// runServeWrite is the serve-write workload: one closed-loop client repeats
// a cycle of POST batch rows, kNN reads against the dirty index, an hdbscan
// request that forces compaction and a restage, DELETE of the batch oldest
// points, kNN reads against the index the delete left dirty, and another
// hdbscan. Live n stays fixed, so the run is
// stationary. Every reply is checked against the client's model of the
// point set, and the last hdbscan reply must equal, byte for byte, the one
// a fresh daemon gives for the model's points.
func runServeWrite(cfg config, rep *report) error {
	sz := writeFull
	if cfg.small {
		sz = writeSmall
	}
	rep.note("n", sz.n)
	const name = "serve-write"
	pts, stream := samplePoints(generator.SSVarden(popFactor*sz.n, 2, popSeed), sz.n, cfg.seed)
	ix, err := parclust.NewIndex(pts, nil)
	if err != nil {
		return err
	}
	h, err := ix.HDBSCAN(sz.minPts)
	if err != nil {
		return err
	}
	eps := serveLadder(h.MST)
	restage := hdbscanCall(name, sz.minPts, eps[2], true, false)
	s, err := setupRepeated(cfg, rep, sz.setups, name, pts, hdbscanCall(name, sz.minPts, eps[2], false, false), []call{restage})
	if err != nil {
		return err
	}
	defer s.close()
	var got flatBody
	want := h.ClustersAt(eps[2]).Labels
	rep.op(json.Unmarshal(s.warm[0], &got) == nil && equalInt32(got.Labels, want), "set-up hdbscan labels differ from the direct Index")
	emst, err := ix.EMST()
	if err != nil {
		return err
	}
	var em struct {
		TotalWeight float64 `json:"total_weight"`
	}
	rep.op(json.Unmarshal(s.emstBody, &em) == nil && em.TotalWeight == mst.TotalWeight(emst), "emst total weight %v, direct Index %v", em.TotalWeight, mst.TotalWeight(emst))

	model := newModel(pts)
	var reads, muts, restages latencies
	var last []byte
	cycle := 0
	for _, traced := range windows(cfg) {
		var rec *tracer
		if traced {
			rec = rep.tr
		}
		cl := newClient(s.h.ts.URL, rec)
		before, err := statsCounters(cl, name)
		if err != nil {
			cl.close()
			return err
		}
		rt0 := readRuntime()
		var rd, rs latencies
		rng := rand.New(rand.NewSource(cfg.seed))
		// readDirty sends sz.knn kNN reads to the index a mutation has
		// just left dirty, as one burst.
		readDirty := func(req int64) {
			var burst latencies
			for j := 0; j < sz.knn; j++ {
				q := int32(rng.Intn(model.n()))
				r, err := cl.do(knnCall(name, q, 10), "write.knn", req)
				if rep.op(replyOK(r, err) && knnMatches(r.body, model, q, 10), "dirty kNN(%d): %s", q, describe(r, err)) {
					burst.add(r.start, r.end)
				}
			}
			rd.mergeBurst(&burst)
		}
		start := time.Now()
		ops := 0
		// At least tailBeyond+1 cycles, so that a slow machine still
		// yields a mutate tail.
		for c := 0; time.Since(start) < windowLen(cfg) || c <= tailBeyond; c, cycle = c+1, cycle+1 {
			req := int64(cycle)
			// Each mutation starts on a collected heap (untimed), as
			// cold-7d's phases do, so that its time is its own and not
			// that of a collection the last restage's garbage set off.
			runtime.GC()
			post, okP := postRows(rep, cl, name, model, chunk(stream, cycle, sz.batch), req)
			readDirty(req)
			last = restageOnce(rep, cl, restage, model, &rs, req, sz.minPts, eps[2], traced)
			runtime.GC()
			del, okD := deleteRows(rep, cl, name, model, sz.batch, req)
			addMutation(&muts, post, del, okP && okD)
			readDirty(req)
			last = restageOnce(rep, cl, restage, model, &rs, req, sz.minPts, eps[2], traced)
			ops += 5 + 2*sz.knn
		}
		rt1 := readRuntime()
		after, err := statsCounters(cl, name)
		cl.close()
		if err != nil {
			return err
		}
		if !traced {
			reads, restages = rd, rs
			continue
		}
		rep.set("trace.overhead_ms", median(rd.ms)-median(reads.ms))
		setEngineCounters(rep, before, after)
		setRuntime(rep, rt0, rt1, ops)
	}
	rep.note("cycles", cycle)
	if err := rep.setPeakRSS(); err != nil {
		return err
	}
	if !cfg.trace {
		if err := rep.setLatencies("query", &reads, readTailBlock, true); err != nil {
			return err
		}
		if err := rep.setLatencies("mutate", &muts, writeTailBlock, false); err != nil {
			return err
		}
		rep.set("hdbscan_s", median(restages.ms)/1000)
		if t, ok := restages.blockedTail(writeTailBlock); ok {
			rep.note("restage_p50_ms", median(restages.ms))
			rep.note("restage_tail", t)
		}
	}
	if err := checkFresh(cfg, rep, name, model, restage, last); err != nil {
		return err
	}
	if !cfg.trace {
		return nil
	}
	if err := serveLayers(rep, s, name, pts, chunk(stream, 0, sz.batch), ix, h, eps, []int{sz.minPts}, sz.minPts); err != nil {
		return err
	}
	return setSpeedup(rep, pts, sz.minPts)
}

// restageOnce sends the hdbscan request that follows a mutation and checks
// its labels cover the model's n points. On a traced cycle it also replays
// the pipeline layer by layer on the model's points and checks the replay's
// labels equal the reply's.
func restageOnce(rep *report, cl *client, x call, m *pointModel, lat *latencies, req int64, minPts int, eps float64, traced bool) []byte {
	r, err := cl.do(x, "write.restage", req)
	var got flatBody
	ok := replyOK(r, err) && json.Unmarshal(r.body, &got) == nil && len(got.Labels) == m.n()
	if !rep.op(ok, "restage hdbscan: %d labels for n=%d: %s", len(got.Labels), m.n(), describe(r, err)) {
		return nil
	}
	lat.add(r.start, r.end)
	if traced {
		pts := m.points()
		var labels []int32
		rep.tr.do("restage_replay", 0, req, func(id int64) {
			rp := replayHDBSCAN(rep.tr, id, req, pts, minPts)
			rep.tr.do("dendrogram.cut", id, req, func(int64) {
				labels = dendrogram.NewCutter(pts.N, rp.edges, rp.cd).CutAt(eps).Labels
			})
		})
		rep.op(equalInt32(labels, got.Labels), "replayed restage labels differ from the daemon's")
	}
	return bytes.Clone(r.body)
}

// knnMatches checks a kNN reply against a brute-force scan of the model:
// k neighbours whose distances are the k smallest, in order.
func knnMatches(body []byte, m *pointModel, q int32, k int) bool {
	var got struct {
		Neighbors []struct {
			ID   int32
			Dist float64
		}
	}
	if json.Unmarshal(body, &got) != nil || len(got.Neighbors) != k {
		return false
	}
	best := make([]float64, 0, k+1) // the k smallest distances so far, ascending
	qr := m.rows[int(q)*m.dim : (int(q)+1)*m.dim]
	for i := 0; i < m.n(); i++ {
		var s float64
		for j, v := range m.rows[i*m.dim : (i+1)*m.dim] {
			s += (v - qr[j]) * (v - qr[j])
		}
		d := math.Sqrt(s)
		if len(best) == k && d >= best[k-1] {
			continue
		}
		at := sort.SearchFloat64s(best, d)
		best = append(best, 0)
		copy(best[at+1:], best[at:])
		best[at] = d
		best = best[:min(len(best), k)]
	}
	for i, g := range got.Neighbors {
		if math.Abs(g.Dist-best[i]) > 1e-9*math.Max(1, best[i]) || int(g.ID) >= m.n() {
			return false
		}
	}
	return true
}

// checkFresh uploads the model's points to a fresh daemon and checks its
// reply to x is byte-identical to last, the mutated daemon's final reply.
func checkFresh(cfg config, rep *report, name string, m *pointModel, x call, last []byte) error {
	dir, err := workDir(cfg, name+"-fresh-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	h, err := startDaemon(dir, nil)
	if err != nil {
		return err
	}
	defer h.close()
	cl := newClient(h.ts.URL, nil)
	defer cl.close()
	r, err := cl.do(upload(name, m.points()), "fresh.upload", 0)
	if !replyOK(r, err) {
		return fmt.Errorf("fresh upload: %s", describe(r, err))
	}
	r, err = cl.do(x, "fresh.hdbscan", 0)
	rep.op(replyOK(r, err) && bytes.Equal(r.body, last), "final hdbscan reply differs from a fresh daemon's over the same points: %s", describe(r, err))
	return nil
}

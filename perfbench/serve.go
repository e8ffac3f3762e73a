package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"net/url"
	"os"
	"strconv"
	"time"

	"parclust"
	"parclust/internal/daemon"
	"parclust/internal/geometry"
)

// harness is an in-process parclustd behind a real loopback TCP listener.
type harness struct {
	ts      *httptest.Server
	handler http.Handler // the daemon's own handler, for in-process replays
}

// startDaemon starts a daemon that persists to dir. With a tracer, every
// request it serves is timed as a daemon span.
func startDaemon(dir string, tr *tracer) (*harness, error) {
	srv, err := daemon.New(daemon.Config{DataDir: dir})
	if err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	h := srv.Handler()
	return &harness{ts: httptest.NewServer(tr.wrap(h)), handler: h}, nil
}

func (h *harness) close() { h.ts.Close() }

// call is one HTTP request of a workload.
type call struct {
	route  string // routeOf name, for spans and per-route metrics
	method string
	path   string
	body   []byte
	ctype  string
	accept string
}

func get(route, path string) call { return call{route: route, method: http.MethodGet, path: path} }

// reply is a completed request: its status, body and client-side times.
type reply struct {
	status           int
	body             []byte
	start, ttfb, end time.Time
}

// client is one keep-alive HTTP client holding a single connection. It
// reads every reply into one reused buffer: the client shares the daemon's
// process and garbage collector, and a fresh buffer per reply would add
// the client's garbage to the collections the daemon's requests wait on.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
	rec  *tracer
	buf  bytes.Buffer
}

func newClient(base string, rec *tracer) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr}, rec: rec}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends x and reads the whole reply. The reply's body is valid until
// the client's next request; a caller that keeps it copies it. On a traced
// run the request is a root span named op; the daemon's handler span joins
// it as a child.
func (c *client) do(x call, op string, req int64) (reply, error) {
	id := c.rec.begin(op, 0, req)
	defer c.rec.end(id)
	var r reply
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotFirstResponseByte: func() { r.ttfb = time.Now() },
	})
	hr, err := http.NewRequestWithContext(ctx, x.method, c.base+x.path, bytes.NewReader(x.body))
	if err != nil {
		return r, err
	}
	if x.ctype != "" {
		hr.Header.Set("Content-Type", x.ctype)
	}
	if x.accept != "" {
		hr.Header.Set("Accept", x.accept)
	}
	if c.rec != nil {
		hr.Header.Set(reqHeader, fmt.Sprintf("%d/%d", req, id))
	}
	r.start = time.Now()
	resp, err := c.hc.Do(hr)
	if err != nil {
		return r, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	r.body = c.buf.Bytes()
	resp.Body.Close()
	r.end = time.Now()
	r.status = resp.StatusCode
	return r, err
}

// replyOK reports whether a request completed with a 2xx status.
func replyOK(r reply, err error) bool { return err == nil && r.status/100 == 2 }

// describe summarizes a reply for a failure message.
func describe(r reply, err error) string {
	if err != nil {
		return err.Error()
	}
	return fmt.Sprintf("status %d: %.120s", r.status, r.body)
}

func rowsJSON(key string, pts geometry.Points) []byte {
	rows := make([][]float64, pts.N)
	for i := range rows {
		rows[i] = pts.At(i)
	}
	b, _ := json.Marshal(map[string]any{key: rows}) // float64 rows always marshal
	return b
}

func upload(name string, pts geometry.Points) call {
	return call{route: "upload", method: http.MethodPut, path: "/v1/datasets/" + name, body: rowsJSON("points", pts), ctype: "application/json"}
}

func insertCall(name string, rows geometry.Points) call {
	return call{route: "points_post", method: http.MethodPost, path: "/v1/datasets/" + name + "/points", body: rowsJSON("points", rows), ctype: "application/json"}
}

func deleteCall(name string, ids []int64) call {
	b, _ := json.Marshal(map[string]any{"ids": ids})
	return call{route: "points_delete", method: http.MethodDelete, path: "/v1/datasets/" + name + "/points", body: b, ctype: "application/json"}
}

func hdbscanCall(name string, minPts int, eps float64, labels, ndjson bool) call {
	q := url.Values{"minpts": {strconv.Itoa(minPts)}, "eps": {strconv.FormatFloat(eps, 'g', -1, 64)}, "labels": {strconv.FormatBool(labels)}}
	c := get("hdbscan", "/v1/datasets/"+name+"/hdbscan?"+q.Encode())
	if ndjson {
		c.route, c.accept = "hdbscan_ndjson", "application/x-ndjson"
	}
	return c
}

func knnCall(name string, q int32, k int) call {
	return get("knn", fmt.Sprintf("/v1/datasets/%s/knn?q=%d&k=%d", name, q, k))
}

func rangeCall(name string, q int32, r float64) call {
	return get("range", fmt.Sprintf("/v1/datasets/%s/range?q=%d&r=%s", name, q, strconv.FormatFloat(r, 'g', -1, 64)))
}

func sweepCall(name string, minPts []int, eps []float64) call {
	b, _ := json.Marshal(map[string]any{"minpts": minPts, "eps": eps, "labels": false})
	return call{route: "sweep", method: http.MethodPost, path: "/v1/datasets/" + name + "/sweep", body: b, ctype: "application/json"}
}

// flatBody is the part of an hdbscan reply the checks read.
type flatBody struct {
	NumClusters int     `json:"num_clusters"`
	NumNoise    int     `json:"num_noise"`
	Labels      []int32 `json:"labels"`
}

// statsCounters reads one dataset's stage counters from /v1/stats.
func statsCounters(cl *client, name string) (parclust.IndexStats, error) {
	var c parclust.IndexStats
	r, err := cl.do(get("stats", "/v1/stats"), "stats", 0)
	if err != nil || r.status != http.StatusOK {
		return c, fmt.Errorf("GET /v1/stats: status %d, err %v", r.status, err)
	}
	var doc struct {
		Datasets map[string]struct {
			Counters struct {
				TreeBuilds       int64 `json:"tree_builds"`
				CoreDistBuilds   int64 `json:"core_dist_builds"`
				MSTBuilds        int64 `json:"mst_builds"`
				DendrogramBuilds int64 `json:"dendrogram_builds"`
				CutBuilds        int64 `json:"cut_builds"`
				CutHits          int64 `json:"cut_hits"`
				Coalesced        int64 `json:"coalesced_total"`
				TreePatches      int64 `json:"tree_patches"`
				Compactions      int64 `json:"compactions"`
			} `json:"counters"`
		} `json:"datasets"`
	}
	if err := json.Unmarshal(r.body, &doc); err != nil {
		return c, fmt.Errorf("decode /v1/stats: %w", err)
	}
	d, ok := doc.Datasets[name]
	if !ok {
		return c, fmt.Errorf("/v1/stats has no dataset %q", name)
	}
	k := d.Counters
	return parclust.IndexStats{
		TreeBuilds: k.TreeBuilds, CoreDistBuilds: k.CoreDistBuilds, MSTBuilds: k.MSTBuilds,
		DendrogramBuilds: k.DendrogramBuilds, CutBuilds: k.CutBuilds, CutHits: k.CutHits,
		TreeCoalesced: k.Coalesced, TreePatches: k.TreePatches, Compactions: k.Compactions,
	}, nil
}

// probeCalls are one warm request per read route against a dataset.
type probeCalls struct {
	hdbscan, ndjson, knn, rng, sweep call
}

// setDaemonLayers times each daemon route through Handler().ServeHTTP into
// a recorder, with no network: the read routes against the warm dataset
// that calls target, and upload, insert and delete against a scratch copy
// of pts. It also splits a buffered hdbscan request over loopback into
// time to first byte and body transfer. engine.cut_warm_us must already be
// set.
func setDaemonLayers(rep *report, h *harness, cl *client, name string, pts, batch geometry.Points, calls probeCalls) error {
	serve := func(x call) (time.Duration, *httptest.ResponseRecorder) {
		r := httptest.NewRequest(x.method, x.path, bytes.NewReader(x.body))
		if x.ctype != "" {
			r.Header.Set("Content-Type", x.ctype)
		}
		if x.accept != "" {
			r.Header.Set("Accept", x.accept)
		}
		w := httptest.NewRecorder()
		d := rep.tr.do("daemon."+x.route, 0, 0, func(int64) { h.handler.ServeHTTP(w, r) })
		rep.op(w.Code/100 == 2, "ServeHTTP %s %s: status %d", x.method, x.path, w.Code)
		return d, w
	}
	timeRoute := func(x call, reps int) float64 {
		serve(x) // warm: a first call may build stages or cut caches
		t := make([]float64, reps)
		for i := range t {
			d, _ := serve(x)
			t[i] = ms(d)
		}
		return median(t)
	}
	hd := timeRoute(calls.hdbscan, 15)
	rep.set("daemon.hdbscan_ms", hd)
	rep.set("daemon.hdbscan_ndjson_ms", timeRoute(calls.ndjson, 15))
	rep.set("daemon.knn_ms", timeRoute(calls.knn, 15))
	rep.set("daemon.range_ms", timeRoute(calls.rng, 15))
	rep.set("daemon.sweep_ms", timeRoute(calls.sweep, 5))
	rep.set("daemon.overhead_ms", hd-rep.metrics["engine.cut_warm_us"]/1000)

	scratch := name + "-scratch"
	up := make([]float64, 3)
	for i := range up {
		d, _ := serve(upload(scratch, pts))
		up[i] = ms(d)
	}
	rep.set("daemon.upload_ms", median(up))
	post, del := make([]float64, 5), make([]float64, 5)
	model := newModel(pts)
	for i := range post {
		model.insert(batch)
		d, _ := serve(insertCall(scratch, batch))
		post[i] = ms(d)
		d, w := serve(deleteCall(scratch, model.deleteOldest(batch.N)))
		del[i] = ms(d)
		var body struct{ N int }
		rep.op(json.Unmarshal(w.Body.Bytes(), &body) == nil && body.N == model.n(), "scratch delete: n in %.100s, want %d", w.Body.Bytes(), model.n())
	}
	rep.set("daemon.points_post_ms", median(post))
	rep.set("daemon.points_delete_ms", median(del))

	var ttfb, body []float64
	var size int
	for i := 0; i < 30; i++ {
		r, err := cl.do(calls.hdbscan, "probe.hdbscan", 0)
		if !rep.op(replyOK(r, err), "loopback hdbscan: %s", describe(r, err)) {
			continue
		}
		ttfb = append(ttfb, ms(r.ttfb.Sub(r.start)))
		body = append(body, ms(r.end.Sub(r.ttfb)))
		size = len(r.body)
	}
	rep.set("daemon.ttfb_ms", median(ttfb))
	rep.set("daemon.body_ms", median(body))
	rep.set("daemon.wait_ms", median(ttfb)-hd)
	rep.set("daemon.resp_bytes", float64(size))
	return nil
}

// workDir returns a fresh directory for a daemon's data under the run's
// output directory (the system temp directory when there is none).
func workDir(cfg config, prefix string) (string, error) {
	base := cfg.out
	if base != "" {
		if err := os.MkdirAll(base, 0o755); err != nil {
			return "", err
		}
	}
	return os.MkdirTemp(base, prefix)
}

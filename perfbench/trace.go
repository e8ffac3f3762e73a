package main

import (
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// layers are the program's modules a span can be attributed to. A span
// named "<layer>.<call>" times one call into that module, made from the
// benchmark's own code; any other span is a workload operation whose self
// time is the unattributed remainder.
var layers = []string{"kdtree", "wspd", "mst", "dendrogram", "engine", "daemon", "store"}

// span is one timed call. Parent is 0 for a root span; Req groups the spans
// of one request or iteration.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per span.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, req int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return id
}

// end closes the span opened as id.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs f inside a span and returns the span's wall time; it times f even
// on a nil tracer, so untraced and traced runs share one code path.
func (t *tracer) do(name string, parent, req int64, f func(id int64)) time.Duration {
	id := t.begin(name, parent, req)
	start := time.Now()
	f(id)
	d := time.Since(start)
	t.end(id)
	return d
}

// reqHeader carries a request id from the benchmark's client to its
// handler wrapper, so server-side spans join the client's request.
const reqHeader = "X-Perfbench-Req"

// wrap times every ServeHTTP call into h that carries the request header as
// a "daemon.<route>" span, child of the client span the header names.
func (t *tracer) wrap(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		v := r.Header.Get(reqHeader)
		if v == "" { // an untraced client
			h.ServeHTTP(w, r)
			return
		}
		var parent, req int64
		parts := strings.SplitN(v, "/", 2)
		req, _ = strconv.ParseInt(parts[0], 10, 64)
		if len(parts) == 2 {
			parent, _ = strconv.ParseInt(parts[1], 10, 64)
		}
		id := t.begin("daemon."+routeOf(r.Method, r.URL.Path, r.Header.Get("Accept")), parent, req)
		defer t.end(id)
		h.ServeHTTP(w, r)
	})
}

// routeOf names a daemon route for spans and per-route metrics.
func routeOf(method, path, accept string) string {
	last := path[strings.LastIndexByte(path, '/')+1:]
	switch {
	case strings.HasSuffix(path, "/points") && method == http.MethodPost:
		return "points_post"
	case strings.HasSuffix(path, "/points") && method == http.MethodDelete:
		return "points_delete"
	case strings.Count(path, "/") == 3 && (method == http.MethodPut || method == http.MethodPost):
		return "upload"
	case last == "hdbscan" && strings.Contains(accept, "ndjson"):
		return "hdbscan_ndjson"
	}
	return last
}

// selfTimes is the attribution of a set of spans: per-layer self time,
// the unattributed remainder (self time of workload-operation spans) and
// the total wall time of the root workload-operation spans.
type selfTimes struct {
	Layer        map[string]time.Duration
	Unattributed time.Duration
	Total        time.Duration
	// ByRoot is the attributed share of each root operation name's total
	// time, e.g. how much of "hdbscan" the layer spans cover.
	ByRoot map[string]float64
}

// layerOf returns the layer a span name belongs to, or "" for a workload
// operation.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		for _, l := range layers {
			if name[:i] == l {
				return l
			}
		}
	}
	return ""
}

// attribute computes self times: a span's self time is its duration minus
// the part of it that its children cover, with overlapping children counted
// once. Open spans (End < 0) are ignored.
func attribute(spans []span) selfTimes {
	children := map[int64][]span{}
	root := map[int64]int64{} // span id -> id of its root span
	byID := map[int64]span{}
	for _, s := range spans {
		if s.End >= 0 {
			byID[s.ID] = s
		}
	}
	for _, s := range byID {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var rootOf func(id int64) int64
	rootOf = func(id int64) int64 {
		if r, ok := root[id]; ok {
			return r
		}
		s := byID[id]
		r := id
		if p, ok := byID[s.Parent]; ok && s.Parent != 0 {
			r = rootOf(p.ID)
		}
		root[id] = r
		return r
	}
	st := selfTimes{Layer: map[string]time.Duration{}, ByRoot: map[string]float64{}}
	rootTotal := map[string]time.Duration{}
	rootAttr := map[string]time.Duration{}
	for _, s := range byID {
		self := time.Duration(s.End-s.Start) - covered(s, children[s.ID])
		r := byID[rootOf(s.ID)]
		l := layerOf(s.Name)
		if l == "" {
			st.Unattributed += self
		} else {
			st.Layer[l] += self
			rootAttr[r.Name] += self
		}
		if s.ID == r.ID && l == "" {
			st.Total += time.Duration(s.End - s.Start)
			rootTotal[s.Name] += time.Duration(s.End - s.Start)
		}
	}
	for name, tot := range rootTotal {
		if tot > 0 {
			st.ByRoot[name] = float64(rootAttr[name]) / float64(tot)
		}
	}
	return st
}

// covered returns how much of parent's interval the children cover.
func covered(parent span, kids []span) time.Duration {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	return time.Duration(mergedLen(iv))
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes the recorded spans as JSON to path.
func (t *tracer) writeSpans(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

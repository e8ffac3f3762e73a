package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestTailOfKeepsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted input
	}
	got, ok := tailOf(xs)
	if !ok || got.Value != 90 || got.Pct != 90 || got.N != 100 || got.Above != 10 {
		t.Fatalf("tailOf(1..100) = %+v, %v; want value 90 at p90 with 10 beyond", got, ok)
	}
	got, ok = tailOf(xs[:11])
	if !ok || got.Value != 90 || got.Above != 10 || got.N != 11 {
		t.Fatalf("tailOf(90..100) = %+v, %v; want the smallest sample with 10 beyond", got, ok)
	}
	if _, ok := tailOf(xs[:10]); ok {
		t.Fatal("tailOf with 10 samples reported a tail")
	}
}

func TestBlockedTailPerBlock(t *testing.T) {
	t0 := time.Unix(0, 0)
	var l latencies
	// 2500 samples in start order make two blocks of 1250; the second holds
	// the slow ones, each block's tail is its sample at rank 1240 (p99.2).
	for i := 0; i < 2500; i++ {
		d := time.Duration(i%1250+1) * time.Millisecond
		if i >= 1250 {
			d *= 2
		}
		s := t0.Add(time.Duration(i) * time.Second)
		l.add(s, s.Add(d))
	}
	got, ok := l.blockedTail(writeTailBlock)
	if !ok || got.Blocks != 2 || got.N != 2500 || got.Above != 10 || got.Value != (1240+2480)/2 || got.Pct != 99.2 {
		t.Fatalf("blockedTail = %+v, %v; want the mean of 1240 and 2480 at p99.2 over 2 blocks", got, ok)
	}
	// Fewer than two blocks' worth of samples is one block: the whole run.
	l = latencies{}
	for i := 0; i < 1999; i++ {
		s := t0.Add(time.Duration(i) * time.Second)
		l.add(s, s.Add(time.Duration(i+1)*time.Millisecond))
	}
	if got, ok := l.blockedTail(writeTailBlock); !ok || got.Blocks != 1 || got.Value != 1989 {
		t.Fatalf("blockedTail of 1999 = %+v, %v; want one block, value 1989", got, ok)
	}
	// The same samples in blocks of 100 give 19 blocks of 105 or 106, each
	// tail at its rank 95 or 96 (about p90).
	if got, ok := l.blockedTail(readTailBlock); !ok || got.Blocks != 19 || got.Above != 10 || math.Abs(got.Pct-90.5) > 0.1 {
		t.Fatalf("blockedTail(%d) of 1999 = %+v, %v; want 19 blocks at about p90", readTailBlock, got, ok)
	}
}

func TestMedianAndUnion(t *testing.T) {
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
	t0 := time.Unix(0, 0)
	at := func(s, e int) interval {
		return interval{t0.Add(time.Duration(s) * time.Second), t0.Add(time.Duration(e) * time.Second)}
	}
	if got := unionLen([]interval{at(5, 8), at(0, 2), at(1, 3), at(7, 9)}); got != 7*time.Second {
		t.Fatalf("unionLen = %v, want 7s", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "hdbscan", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "kdtree.build", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "mst.hdbscan", Start: 30, End: 60}, // overlaps span 2
		{ID: 4, Parent: 3, Name: "wspd.count", Start: 35, End: 45},
		{ID: 5, Parent: 1, Name: "dendrogram.build", Start: 90, End: 120}, // runs past its parent
		{ID: 6, Name: "daemon.upload", Start: 200, End: 210},              // a layer root
		{ID: 7, Name: "open", Start: 300, End: -1},                        // never closed
	}
	st := attribute(spans)
	// The children cover [10,60] and [90,100] of the parent: 60 of 100.
	if st.Unattributed != 40 {
		t.Fatalf("unattributed = %v, want 40", st.Unattributed)
	}
	want := map[string]time.Duration{"kdtree": 30, "mst": 20, "wspd": 10, "dendrogram": 30, "daemon": 10}
	for l, d := range want {
		if st.Layer[l] != d {
			t.Errorf("self[%s] = %v, want %v", l, st.Layer[l], d)
		}
	}
	if st.Total != 100 {
		t.Errorf("total = %v, want 100 (operation roots only)", st.Total)
	}
	if got := st.ByRoot["hdbscan"]; got != 0.9 {
		t.Errorf("layer share of hdbscan = %v, want 0.9", got)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndBenchmarkFile(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %q: unit %q / better %q", d.Name, d.Unit, d.Better)
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or repeated", w.Name)
		}
		seen[w.Name] = true
	}
	for _, bad := range []string{"", "-x", "a b", "a/b", strings.Repeat("a", 65)} {
		if nameRE.MatchString(bad) {
			t.Errorf("%q accepted as a name", bad)
		}
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDef                  `json:"end_to_end"`
		PerLayer  []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if !sameDefs(file.EndToEnd, endToEnd) || !sameDefs(file.PerLayer, perLayer) {
		t.Error("BENCHMARK.json metrics differ from the benchmark's own lists")
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].Name)
		}
	}
}

func sameDefs(a, b []metricDef) bool {
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

// TestSmoke runs every workload on tiny inputs, untraced and traced, and
// checks the result line carries exactly the expected metrics.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var out, errs bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "1", "--trace", trace, "--small", "--out", t.TempDir()}
				if code := run(args, &out, &errs); code != 0 {
					t.Fatalf("exit %d: %s", code, errs.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct           bool
					Attempted, Failed int64
					Metrics           map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(defs) {
					t.Fatalf("result %+v", res)
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: %+v, present %v", d.Name, m, ok)
					}
				}
			})
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{nil, {"--workload", "nope"}, {"--workload", "cold-7d", "--trace", "2"}} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q; want 2 and no result", args, code, out.String())
		}
	}
}

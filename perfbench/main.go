// Command perfbench is the repository's benchmark. It runs one named
// workload in-process at GOMAXPROCS=2, checks the program's outputs, and
// prints as its last line one JSON object with the end-to-end metrics
// (--trace 0) or the per-layer metrics of a traced run (--trace 1):
//
//	go build -o perfbench . && ./perfbench --workload cold-7d --seed 1 --seconds 40 --trace 0
//
// Workloads, metrics and the layer each per-layer metric should move are
// described in METRICS.md. The benchmark only calls the program's public
// functions and records its spans around those calls; it adds no code to
// the program.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// procs is the GOMAXPROCS every workload runs at.
const procs = 2

// metricDef is one reported metric. bound (end-to-end only) is the share of
// the parent's median by which it may worsen before a change is rejected.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists the metrics a user sees; every workload reports each one
// (see METRICS.md for what each measures on each workload).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"hdbscan_s", "s", "lower", 0.2},
	{"emst_s", "s", "lower", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_tail_ms", "ms", "lower", 0.25},
	{"query_per_s", "1/s", "higher", 0.25},
	{"mutate_p50_ms", "ms", "lower", 0.2},
	{"mutate_tail_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer lists the traced run's metrics, grouped by module.
var perLayer = []metricDef{
	{"kdtree.build_ms", "ms", "lower", 0},
	{"kdtree.coredist_ms", "ms", "lower", 0},
	{"kdtree.annotate_ms", "ms", "lower", 0},
	{"kdtree.knn_us", "us", "lower", 0},
	{"wspd.pairs", "count", "lower", 0},
	{"mst.hdbscan_ms", "ms", "lower", 0},
	{"mst.emst_ms", "ms", "lower", 0},
	{"mst.wspd_ms", "ms", "lower", 0},
	{"mst.kruskal_ms", "ms", "lower", 0},
	{"mst.rounds", "count", "lower", 0},
	{"mst.bccp_calls", "count", "lower", 0},
	{"mst.pairs_materialized", "count", "lower", 0},
	{"mst.peak_pairs_resident", "count", "lower", 0},
	{"mst.edges_per_bccp", "ratio", "higher", 0},
	{"mst.pairs_resident_frac", "ratio", "lower", 0},
	{"dendrogram.build_ms", "ms", "lower", 0},
	{"dendrogram.cutter_ms", "ms", "lower", 0},
	{"dendrogram.cut_us", "us", "lower", 0},
	{"engine.tree_builds", "count", "lower", 0},
	{"engine.coredist_builds", "count", "lower", 0},
	{"engine.mst_builds", "count", "lower", 0},
	{"engine.dendrogram_builds", "count", "lower", 0},
	{"engine.compactions", "count", "lower", 0},
	{"engine.tree_patches", "count", "lower", 0},
	{"engine.coalesced", "count", "higher", 0},
	{"engine.cut_hit_ratio", "ratio", "higher", 0},
	{"engine.insert_ms", "ms", "lower", 0},
	{"engine.delete_ms", "ms", "lower", 0},
	{"engine.compact_ms", "ms", "lower", 0},
	{"engine.cut_warm_us", "us", "lower", 0},
	{"daemon.hdbscan_ms", "ms", "lower", 0},
	{"daemon.hdbscan_ndjson_ms", "ms", "lower", 0},
	{"daemon.knn_ms", "ms", "lower", 0},
	{"daemon.range_ms", "ms", "lower", 0},
	{"daemon.sweep_ms", "ms", "lower", 0},
	{"daemon.points_post_ms", "ms", "lower", 0},
	{"daemon.points_delete_ms", "ms", "lower", 0},
	{"daemon.upload_ms", "ms", "lower", 0},
	{"daemon.overhead_ms", "ms", "lower", 0},
	{"daemon.ttfb_ms", "ms", "lower", 0},
	{"daemon.body_ms", "ms", "lower", 0},
	{"daemon.wait_ms", "ms", "lower", 0},
	{"daemon.resp_bytes", "bytes", "lower", 0},
	{"store.cold_snapshot_write_ms", "ms", "lower", 0},
	{"store.snapshot_read_ms", "ms", "lower", 0},
	{"go.alloc_kb_per_op", "KiB", "lower", 0},
	{"go.gc_cycles_per_kop", "count", "lower", 0},
	{"go.gc_pause_ms", "ms", "lower", 0},
	{"parallel.speedup", "x", "higher", 0},
	{"self.kdtree_ms", "ms", "lower", 0},
	{"self.wspd_ms", "ms", "lower", 0},
	{"self.mst_ms", "ms", "lower", 0},
	{"self.dendrogram_ms", "ms", "lower", 0},
	{"self.engine_ms", "ms", "lower", 0},
	{"self.daemon_ms", "ms", "lower", 0},
	{"self.store_ms", "ms", "lower", 0},
	{"trace.unattributed_ms", "ms", "lower", 0},
	{"trace.coverage", "ratio", "higher", 0},
	{"trace.overhead_ms", "ms", "lower", 0},
}

// workload is one named input set and traffic shape.
type workload struct {
	Name, Why, Loop string
	run             func(cfg config, rep *report) error
}

var workloads = []workload{
	{
		Name: "cold-7d",
		Why:  "the paper's regime: one-shot HDBSCAN* and EMST on 7-D Household-like data, where MemoGFK's WSPD traversals and BCCP do most of the work",
		Loop: "closed, sequential library calls",
		run:  runCold,
	},
	{
		Name: "serve-write",
		Why:  "inserts and deletes beside dirty-index kNN reads and the compaction plus restage they force, on 2-D SS-varden",
		Loop: "closed, keep-alive HTTP over loopback",
		run:  runServeWrite,
	},
}

// config is one run's settings.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	out     string // directory for the span file; "" writes none
	small   bool   // tiny inputs, for the package's own tests
}

// report accumulates one run's metrics, operation counts and run record.
type report struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	failures  []string
	record    map[string]any
	tr        *tracer
}

func newReport(trace bool) *report {
	rep := &report{metrics: map[string]float64{}, record: map[string]any{}}
	if trace {
		rep.tr = newTracer()
	}
	return rep
}

// op counts one attempted operation and, when ok is false, one failure with
// its reason. It returns ok.
func (r *report) op(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

func (r *report) set(name string, v float64) {
	r.metrics[name] = v
}

func (r *report) note(key string, v any) {
	r.record[key] = v
}

// setLatencies reports the p50 / tail / rate triple of one operation class
// under the given metric prefix, with the tail taken over blocks of block
// samples, and records the tail's percentile and sample count and a few
// whole-run quantiles. The rate is the median over the class's bursts. A
// class with too few samples for a tail is an error.
func (r *report) setLatencies(prefix string, l *latencies, block int, rate bool) error {
	t, ok := l.blockedTail(block)
	if !ok {
		return fmt.Errorf("%s: %d samples, need more than %d for a tail", prefix, len(l.ms), tailBeyond)
	}
	r.set(prefix+"_p50_ms", median(l.ms))
	r.set(prefix+"_tail_ms", t.Value)
	if rate {
		r.set(prefix+"_per_s", median(l.bursts))
	}
	r.note(prefix+"_tail", t)
	r.note(prefix+"_quantiles", quantiles(l.ms))
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the workload and prints the record and result. It
// returns 0 on success, 1 when an output check failed (after printing the
// result) and 2 when the workload could not run (nothing printed).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	out := fs.String("out", "", "directory for the traced run's span file")
	small := fs.Bool("small", false, "tiny inputs (smoke runs)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload %s, --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	runtime.GOMAXPROCS(procs)
	cfg := config{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, out: *out, small: *small}
	rep, err := runWorkload(w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.Name, err)
		return 2
	}
	for _, f := range rep.failures {
		fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", w.Name, f)
	}
	line, err := resultLine(rep, cfg.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.Name, err)
		return 2
	}
	rec, _ := json.Marshal(map[string]any{"run_record": runRecord(w, cfg), "details": rep.record})
	bw := bufio.NewWriter(stdout)
	fmt.Fprintf(bw, "%s\n%s\n", rec, line)
	if err := bw.Flush(); err != nil {
		return 2
	}
	if rep.failed > 0 {
		return 1
	}
	return 0
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, "|")
}

// runWorkload runs w, adds the process-level metrics and, on a traced run,
// the span attribution, and writes the spans out.
func runWorkload(w workload, cfg config) (*report, error) {
	rep := newReport(cfg.trace)
	if err := w.run(cfg, rep); err != nil {
		return nil, err
	}
	if rep.attempted > 0 {
		rep.note("error_rate", float64(rep.failed)/float64(rep.attempted))
	}
	if cfg.trace {
		st := attribute(rep.tr.snapshot())
		for _, l := range layers {
			rep.set("self."+l+"_ms", ms(st.Layer[l]))
		}
		rep.set("trace.unattributed_ms", ms(st.Unattributed))
		if st.Total > 0 {
			rep.set("trace.coverage", 1-float64(st.Unattributed)/float64(st.Total))
		}
		rep.note("coverage_by_op", st.ByRoot)
		rep.note("spans", len(rep.tr.snapshot()))
		if cfg.out != "" {
			if err := os.MkdirAll(cfg.out, 0o755); err != nil {
				return nil, err
			}
			path := filepath.Join(cfg.out, fmt.Sprintf("trace-%s-%d.json", w.Name, cfg.seed))
			if err := rep.tr.writeSpans(path); err != nil {
				return nil, fmt.Errorf("write spans: %w", err)
			}
			rep.note("span_file", path)
		}
	}
	return rep, nil
}

// resultLine renders the final JSON line: exactly the end-to-end metrics,
// or exactly the per-layer ones on a traced run. A missing metric is a bug
// in the workload, reported as an error.
func resultLine(rep *report, trace bool) ([]byte, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := rep.metrics[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		metrics[d.Name] = value{v, d.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return json.Marshal(map[string]any{
		"correct":   rep.failed == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   metrics,
	})
}

// runRecord describes the machine and the run, printed with every result.
func runRecord(w workload, cfg config) map[string]any {
	goamd64 := os.Getenv("GOAMD64")
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				goamd64 = s.Value
			}
		}
	}
	if goamd64 == "" {
		goamd64 = "v1"
	}
	return map[string]any{
		"workload":   w.Name,
		"why":        w.Why,
		"loop":       w.Loop,
		"clients":    1, // every workload runs one closed-loop client
		"seed":       cfg.seed,
		"seconds":    cfg.seconds.Seconds(),
		"trace":      cfg.trace,
		"small":      cfg.small,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"goamd64":    goamd64,
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// setPeakRSS reports the process's peak resident set so far as
// peak_rss_mb. serve-write calls it when its measured window ends,
// before the checks and probes that follow.
func (r *report) setPeakRSS() error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss)
	return nil
}

// resetPeakRSS sets the process's peak resident set (VmHWM) back to its
// current resident set, so that peakRSSMB reads the peak since the reset.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

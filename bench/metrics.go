package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// metricDef names one metric. BENCHMARK.json at the root of the
// repository lists the same names, units, directions and bounds; the
// smoke test fails when the two disagree.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the baseline it may worsen by
}

// layer is the module a metric belongs to: the prefix of its name for
// per-layer metrics, "end_to_end" otherwise.
func (m metricDef) layer(endToEnd bool) string {
	if endToEnd {
		return "end_to_end"
	}
	return m.Name[:strings.IndexByte(m.Name, '.')]
}

// endToEndMetrics are what a user of Stmt.Query or of a divserve
// request sees, and what a later change is held to. Every workload
// reports every one of them. Apart from set-up time, which the contract
// asks for, none is a wall-clock time: the sandbox runs a quarter slower
// for minutes at a time, and ten back-to-back runs that straddle such a
// change spread further than the widest bound the contract allows (see
// README.md). The timings are reported with the per-layer metrics, as
// bench.*, and are what a claim of a gain is made on, from paired runs.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"alloc_mb_per_round", "MB", "lower", 0.02},
	{"allocs_per_round", "count", "lower", 0.10},
	{"tuples_moved_per_round", "count", "lower", 0.03},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// The operation classes, in the order a round runs them.
var classNames = []string{"divide", "param_color", "divide_limit", "topk", "notexists", "scan_wide", "big_sort"}

// The operator classes of plan_exec, one exec.op.<class>_ms each.
var opClassNames = []string{
	"scan", "filter", "project", "hash-divide", "merge-divide", "great-divide", "topk", "sort",
	"union", "intersect", "diff", "hash-join", "semijoin", "product",
	"hash-divide-str", "hash-join-str", "join-emit",
}

// lawIDs are the scenarios of internal/scenarios, in paper order.
var lawIDs = []string{
	"law-01", "law-02", "law-02c1", "law-03", "law-04", "law-05", "law-06", "law-07", "law-08", "law-09",
	"law-10", "law-11", "law-12", "law-13", "law-14", "law-15", "law-16", "law-17", "example-1", "example-2",
}

// perLayerMetrics are the metrics of single modules, taken on the
// traced run. A workload that does not call a layer reports 0 for it.
var perLayerMetrics = buildPerLayer()

func buildPerLayer() []metricDef {
	ms := []metricDef{
		{Name: "bench.round_p05_ms", Unit: "ms", Better: "lower"},
		{Name: "bench.round_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "bench.round_p90_ms", Unit: "ms", Better: "lower"},
		{Name: "bench.first_row_p05_ms", Unit: "ms", Better: "lower"},
		{Name: "bench.first_row_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "bench.ops_per_s", Unit: "1/s", Better: "higher"},
		{Name: "sql.parse_ms", Unit: "ms", Better: "lower"},
		{Name: "sql.bind_ms", Unit: "ms", Better: "lower"},
		{Name: "sql.bind_alloc_mb", Unit: "MB", Better: "lower"},
		{Name: "sql.detect_hits", Unit: "count", Better: "higher"},
		{Name: "sql.share_pct", Unit: "%", Better: "lower"},
		{Name: "optimizer.optimize_ms", Unit: "ms", Better: "lower"},
		{Name: "optimizer.rules_applied", Unit: "count", Better: "higher"},
		{Name: "optimizer.share_pct", Unit: "%", Better: "lower"},
		{Name: "optimizer.pick_accuracy", Unit: "ratio", Better: "higher"},
		{Name: "exec.compile_ms", Unit: "ms", Better: "lower"},
		{Name: "exec.open_ms", Unit: "ms", Better: "lower"},
		{Name: "exec.drain_ms", Unit: "ms", Better: "lower"},
		{Name: "exec.open_alloc_mb", Unit: "MB", Better: "lower"},
		{Name: "exec.rows_out", Unit: "count", Better: "higher"},
		{Name: "exec.tuples_moved", Unit: "count", Better: "lower"},
		{Name: "exec.tuples_per_row", Unit: "ratio", Better: "lower"},
		{Name: "exec.share_pct", Unit: "%", Better: "lower"},
	}
	for _, c := range opClassNames {
		ms = append(ms, metricDef{Name: "exec.op." + c + "_ms", Unit: "ms", Better: "lower"})
	}
	ms = append(ms,
		metricDef{Name: "parallel.divide-w2_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "parallel.great-divide-w2_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "parallel.divide-w2_speedup", Unit: "ratio", Better: "higher"},
		metricDef{Name: "parallel.great-divide-w2_speedup", Unit: "ratio", Better: "higher"},
		metricDef{Name: "hashkey.sum64-str24_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "relation.insert_ns_per_row", Unit: "ns", Better: "lower"},
		metricDef{Name: "relation.probe_ns_per_row", Unit: "ns", Better: "lower"},
		metricDef{Name: "division.hash-divide_ns_per_row", Unit: "ns", Better: "lower"},
		metricDef{Name: "division.great-divide_ns_per_row", Unit: "ns", Better: "lower"},
	)
	for _, id := range lawIDs {
		ms = append(ms, metricDef{Name: "laws." + id + ".speedup", Unit: "ratio", Better: "higher"})
	}
	ms = append(ms,
		metricDef{Name: "laws.speedup_geomean", Unit: "ratio", Better: "higher"},
		metricDef{Name: "spill.spilled_mb", Unit: "MB", Better: "lower"},
		metricDef{Name: "spill.runs", Unit: "count", Better: "lower"},
		metricDef{Name: "spill.partitions", Unit: "count", Better: "lower"},
		metricDef{Name: "spill.peak_mb", Unit: "MB", Better: "lower"},
		metricDef{Name: "spill.slowdown", Unit: "ratio", Better: "lower"},
		metricDef{Name: "divlaws.query_call_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "divlaws.rows_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "divlaws.rows_us_per_row", Unit: "us", Better: "lower"},
		metricDef{Name: "server.ttfb_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "server.stream_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "server.elapsed_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "server.overhead_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "server.wire_us_per_row", Unit: "us", Better: "lower"},
		metricDef{Name: "server.bytes_per_row", Unit: "B", Better: "lower"},
		metricDef{Name: "server.stmt_cache_hit_pct", Unit: "%", Better: "higher"},
		metricDef{Name: "server.rejected", Unit: "count", Better: "lower"},
		metricDef{Name: "server.queued", Unit: "count", Better: "lower"},
	)
	for _, c := range classNames {
		ms = append(ms, metricDef{Name: "class." + c + "_p50_ms", Unit: "ms", Better: "lower"})
	}
	ms = append(ms,
		metricDef{Name: "trace.coverage_pct", Unit: "%", Better: "higher"},
		metricDef{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	)
	return ms
}

// row is one line of a results file: one metric of one workload, with
// the spread of the samples behind it.
type row struct {
	Workload string  `json:"workload"`
	Layer    string  `json:"layer"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Value    float64 `json:"value"`
	Samples  int     `json:"samples"`
	P25      float64 `json:"p25"`
	P75      float64 `json:"p75"`
}

// runMeta records what a results file was measured on.
type runMeta struct {
	Seed       int64   `json:"seed"`
	Size       float64 `json:"size"`
	Seconds    float64 `json:"seconds"`
	Rounds     int     `json:"rounds"`
	GoMaxProcs int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
}

type resultsFile struct {
	Meta    runMeta `json:"meta"`
	Results []row   `json:"results"`
}

func readResults(path string) (resultsFile, error) {
	var f resultsFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// sample is a metric's value with the samples it was taken from.
type sample struct {
	value    float64
	n        int
	p25, p75 float64
}

// scalar is a metric measured once.
func scalar(v float64) sample { return sample{value: v, n: 1, p25: v, p75: v} }

// median summarises samples by their median and quartiles; no samples
// give 0, the value of a layer the workload does not call.
func median(xs []float64) sample {
	if len(xs) == 0 {
		return sample{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sample{value: quantile(s, 0.5), n: len(s), p25: quantile(s, 0.25), p75: quantile(s, 0.75)}
}

// percentile is the q-quantile of samples, with their quartiles.
func percentile(xs []float64, q float64) sample {
	m := median(xs)
	if m.n > 0 {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		m.value = quantile(s, q)
	}
	return m
}

// p05 is the 5th percentile of samples taken in order of time. In
// place of quartiles it carries the same percentile of the first and of
// the second half of the samples, the lower and the higher: how far the
// figure drifted within the run.
func p05(xs []float64) sample {
	m := percentile(xs, 0.05)
	if m.n >= 2 {
		a, b := percentile(xs[:m.n/2], 0.05).value, percentile(xs[m.n/2:], 0.05).value
		m.p25, m.p75 = math.Min(a, b), math.Max(a, b)
	}
	return m
}

// quantile interpolates linearly in sorted samples.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio is a/b, and 0 where b is 0 because the layer did not run.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesMetrics holds BENCHMARK.json and the metric tables
// of this package to each other.
func TestManifestMatchesMetrics(t *testing.T) {
	m := readManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	same := func(kind string, got []manifestMetric, want []metricDef, bounds bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the package %d", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if !name.MatchString(g.Name) {
				t.Errorf("%s: bad metric name %q", kind, g.Name)
			}
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || (bounds && g.Bound != w.Bound) {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the package %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEndMetrics, true)
	same("per_layer", m.PerLayer, perLayerMetrics, false)
	if len(m.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the package %d", len(m.Workloads), len(workloadNames))
	}
	for i, w := range m.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json has %q, the package %q", i, w.Name, workloadNames[i])
		}
	}
}

// TestSmoke runs every workload, untraced and traced, for two rounds on
// a twentieth of its dataset, each in a process of its own as the
// driver does, and checks what it prints last.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	m := readManifest(t)
	dir := t.TempDir()
	bin := filepath.Join(dir, "divbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	// CI's forced-path legs set these; the benchmark refuses to run
	// under them, so its own runs go without.
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "DIVLAWS_FORCE_") {
			env = append(env, kv)
		}
	}
	for _, w := range workloadNames {
		for trace, defs := range [][]manifestMetric{m.EndToEnd, m.PerLayer} {
			cmd := exec.Command(bin, "--workload", w, "--seed", "3", "--rounds", "2", "--size", "0.05", "--trace", []string{"0", "1"}[trace])
			cmd.Dir, cmd.Env = dir, env
			start := time.Now()
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s trace %d: %v\n%s", w, trace, err, out)
			}
			t.Logf("%s trace %d: %v", w, trace, time.Since(start).Round(time.Millisecond))
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var last struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&last); err != nil {
				t.Fatalf("%s trace %d: last line is not the result: %v", w, trace, err)
			}
			if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", w, trace, last.Correct, last.Attempted, last.Failed)
			}
			if len(last.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics printed, BENCHMARK.json lists %d", w, trace, len(last.Metrics), len(defs))
			}
			for _, d := range defs {
				got, ok := last.Metrics[d.Name]
				if !ok || got.Value == nil {
					t.Errorf("%s trace %d: %s is missing", w, trace, d.Name)
					continue
				}
				v := *got.Value
				if got.Unit != d.Unit || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s trace %d: %s = %v %s", w, trace, d.Name, v, got.Unit)
				}
				// The tracing overhead is a difference of two timings,
				// and noise can take it below zero.
				if v < 0 && d.Name != "trace.overhead_pct" {
					t.Errorf("%s trace %d: %s = %v is negative", w, trace, d.Name, v)
				}
				if trace == 0 && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v must not be 0", w, d.Name, v)
				}
				// plan_exec calls neither the front end nor the server.
				front := strings.HasPrefix(d.Name, "sql.") || strings.HasPrefix(d.Name, "server.") ||
					strings.HasPrefix(d.Name, "optimizer.") && d.Name != "optimizer.pick_accuracy"
				if w == "plan_exec" && front && v != 0 {
					t.Errorf("plan_exec: %s = %v, want 0", d.Name, v)
				}
			}
			if trace == 1 {
				if c := last.Metrics["trace.coverage_pct"]; c.Value == nil || *c.Value <= 0 {
					t.Errorf("%s: trace.coverage_pct was not computed", w)
				}
				if _, err := os.Stat(filepath.Join(dir, outDir, "trace-"+w+".json")); err != nil {
					t.Errorf("%s: %v", w, err)
				}
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, outDir, "spill-*")); len(left) > 0 {
		t.Errorf("spill directories left behind: %v", left)
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer(time.Now(), 0)
	tr.beginRound()
	tr.spans = []span{
		{ID: 0, Parent: -1, Round: 0, Name: "query", Layer: "bench", Start: 0, End: 100e6},
		{ID: 1, Parent: 0, Round: 0, Name: "sql.bind", Layer: "sql", Start: 10e6, End: 40e6},
		{ID: 2, Parent: 0, Round: 0, Name: "exec.open", Layer: "exec", Start: 40e6, End: 90e6},
		{ID: 3, Parent: 2, Round: 0, Name: "inner", Layer: "sql", Start: 50e6, End: 60e6},
	}
	for layer, want := range map[string]float64{"bench": 20, "sql": 40, "exec": 40} {
		if got := tr.layerSelfMs(layer)[0]; got != want {
			t.Errorf("self time of %s = %v ms, want %v", layer, got, want)
		}
	}
	if got := tr.spanMs("sql.bind")[0]; got != 30 {
		t.Errorf("sql.bind = %v ms, want 30", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "peak_rss_mb", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "hits", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d            metricDef
		a, b, spread float64
		want         string
	}{
		{lower, 100, 105, 0.04, "same"},
		{lower, 100, 115, 0.04, "worse"},
		{lower, 100, 85, 0.04, "better"},
		{lower, 100, 105, 0.20, "unresolved"},
		{higher, 100, 85, 0.04, "worse"},
		{higher, 100, 115, 0.04, "better"},
	} {
		if got := judge(c.d, c.a, c.b, c.spread); got != c.want {
			t.Errorf("judge(%s, %v -> %v, spread %v) = %s, want %s", c.d.Name, c.a, c.b, c.spread, got, c.want)
		}
	}
}

// TestSummary checks that repeated runs are summarised by their median
// and the distance between their quartiles, one run by its own row.
func TestSummary(t *testing.T) {
	if v, s := summary([]row{{Value: 100, P25: 95, P75: 105}}); v != 100 || s != 0.10 {
		t.Errorf("one run: value %v spread %v", v, s)
	}
	var runs []row
	for _, v := range []float64{90, 100, 110, 120, 130} {
		runs = append(runs, row{Value: v, P25: v, P75: v})
	}
	if v, s := summary(runs); v != 110 || math.Abs(s-20.0/110) > 1e-12 {
		t.Errorf("five runs: value %v spread %v", v, s)
	}
}

func TestQuantiles(t *testing.T) {
	s := median([]float64{4, 1, 3, 2, 5})
	if s.value != 3 || s.p25 != 2 || s.p75 != 4 || s.n != 5 {
		t.Errorf("median = %+v", s)
	}
	if got := median(nil); got != (sample{}) {
		t.Errorf("median of nothing = %+v", got)
	}
}

func TestLawIDs(t *testing.T) {
	for name, want := range map[string]string{"Law 1": "law-01", "Law 2 (c1)": "law-02c1", "Law 17": "law-17", "Example 2": "example-2"} {
		if got := lawID(name); got != want {
			t.Errorf("lawID(%q) = %q, want %q", name, got, want)
		}
	}
}

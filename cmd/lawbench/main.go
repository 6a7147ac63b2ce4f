// Command lawbench measures, for every rewrite law, the evaluation
// time of the left-hand-side plan versus the rewritten right-hand-
// side plan over synthetic workloads — the per-law optimization
// effect the paper argues for qualitatively.
//
// Usage:
//
//	lawbench                  # all laws at the default scale
//	lawbench -scale 20000     # bigger workload
//	lawbench -law "Law 9"     # one law
//	lawbench -json -          # machine-readable results on stdout
//	lawbench -json BENCH.json # ... or into a file
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"divlaws/internal/datagen"
	"divlaws/internal/exec"
	"divlaws/internal/optimizer"
	"divlaws/internal/plan"
	"divlaws/internal/relation"
	"divlaws/internal/scenarios"
	"divlaws/internal/schema"
	"divlaws/internal/spill"
	"divlaws/internal/value"
)

// result is one measured plan side, the unit of the committed
// BENCH_<n>.json trajectory files.
type result struct {
	Scenario    string  `json:"scenario"`
	Side        string  `json:"side"` // "lhs" or "rhs"
	Scale       int     `json:"scale"`
	Workers     int     `json:"workers"`
	NsPerOp     int64   `json:"ns_op"`
	AllocsPerOp int64   `json:"allocs_op"`
	BytesPerOp  int64   `json:"bytes_op"`
	Rows        int     `json:"rows"`
	Speedup     float64 `json:"speedup,omitempty"` // lhs/rhs, on the rhs entry
	// SpilledBytes reports the out-of-core volume of a "spill" side.
	SpilledBytes int64 `json:"spilled_bytes,omitempty"`
	// Error is set on "rejected" sides: the typed refusal of a budget
	// smaller than the query's irreducible state.
	Error string `json:"error,omitempty"`
}

type report struct {
	Tool        string   `json:"tool"`
	Scale       int      `json:"scale"`
	Workers     int      `json:"workers"`
	Reps        int      `json:"reps"`
	MemoryLimit int64    `json:"memory_limit,omitempty"`
	Results     []result `json:"results"`
}

func main() {
	var (
		scale    = flag.Int("scale", 8000, "approximate dividend size")
		law      = flag.String("law", "", "benchmark a single law by name")
		reps     = flag.Int("reps", 3, "repetitions (minimum time, mean allocs)")
		seed     = flag.Int64("seed", 1, "workload seed")
		workers  = flag.Int("workers", 1, "parallelize divisions in both plan sides across this many goroutines")
		spillSw  = flag.Bool("spill", true, "append the in-memory vs out-of-core sweep over the blocking operator classes")
		memLimit = flag.Int64("memory-limit", 64<<10, "memory budget in bytes for the spill sweep's out-of-core side")
		jsonDest = flag.String("json", "", `emit machine-readable results to this file ("-" for stdout) instead of the table`)
	)
	flag.Parse()
	if *reps < 1 {
		*reps = 1
	}

	list := scenarios.All()
	if *law != "" {
		s, ok := scenarios.ByName(*law)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown law %q\n", *law)
			os.Exit(1)
		}
		list = []scenarios.Scenario{s}
	}

	rep := report{Tool: "lawbench", Scale: *scale, Workers: *workers, Reps: *reps}
	if *jsonDest == "" {
		fmt.Printf("%-12s %12s %12s %8s  %s\n", "law", "lhs", "rhs", "speedup", "result-rows")
	}
	for _, s := range list {
		lhs := s.Build(*scale, *seed)
		rhs := s.MustApply(lhs)
		if *workers >= 2 {
			// Parallelize every division in both sides so the per-law
			// comparison reflects the intra-operator parallel engine.
			popts := optimizer.ParallelOptions{Workers: *workers, Threshold: 1}
			lhs, _ = optimizer.Parallelize(lhs, popts)
			rhs, _ = optimizer.Parallelize(rhs, popts)
		}
		lhsM := measure(lhs, *reps)
		rhsM := measure(rhs, *reps)
		if lhsM.rows != rhsM.rows {
			fmt.Fprintf(os.Stderr, "%s: REWRITE CHANGED RESULT (%d vs %d rows)\n", s.Name, lhsM.rows, rhsM.rows)
			os.Exit(1)
		}
		speedup := float64(lhsM.best) / float64(rhsM.best)
		rep.Results = append(rep.Results,
			result{Scenario: s.Name, Side: "lhs", Scale: *scale, Workers: *workers,
				NsPerOp: lhsM.best.Nanoseconds(), AllocsPerOp: lhsM.allocs, BytesPerOp: lhsM.bytes, Rows: lhsM.rows},
			result{Scenario: s.Name, Side: "rhs", Scale: *scale, Workers: *workers,
				NsPerOp: rhsM.best.Nanoseconds(), AllocsPerOp: rhsM.allocs, BytesPerOp: rhsM.bytes, Rows: rhsM.rows,
				Speedup: speedup})
		if *jsonDest == "" {
			fmt.Printf("%-12s %12v %12v %7.2fx  %d\n",
				s.Name, lhsM.best.Round(time.Microsecond), rhsM.best.Round(time.Microsecond),
				speedup, lhsM.rows)
		}
	}

	if *spillSw && *law == "" && *memLimit > 0 {
		rep.MemoryLimit = *memLimit
		if *jsonDest == "" {
			fmt.Printf("\n%-20s %12s %12s %8s %10s  %s\n",
				"blocking operator", "in-memory", "spilling", "slowdown", "spilled", "result-rows")
		}
		for _, c := range spillClasses(*scale, *seed) {
			mem, spl, spilled := measureSpillPair(c.name, c.node, *reps, *memLimit)
			if mem.rows != spl.rows {
				fmt.Fprintf(os.Stderr, "%s: SPILL PATH CHANGED RESULT (%d vs %d rows)\n", c.name, mem.rows, spl.rows)
				os.Exit(1)
			}
			slowdown := float64(spl.best) / float64(mem.best)
			rep.Results = append(rep.Results,
				result{Scenario: c.name, Side: "memory", Scale: *scale, Workers: *workers,
					NsPerOp: mem.best.Nanoseconds(), AllocsPerOp: mem.allocs, BytesPerOp: mem.bytes, Rows: mem.rows},
				result{Scenario: c.name, Side: "spill", Scale: *scale, Workers: *workers,
					NsPerOp: spl.best.Nanoseconds(), AllocsPerOp: spl.allocs, BytesPerOp: spl.bytes, Rows: spl.rows,
					Speedup: slowdown, SpilledBytes: spilled})
			if *jsonDest == "" {
				fmt.Printf("%-20s %12v %12v %7.2fx %9dK  %d\n",
					c.name, mem.best.Round(time.Microsecond), spl.best.Round(time.Microsecond),
					slowdown, spilled>>10, mem.rows)
			}
		}
		// One budget-rejected probe: a budget below the divisor's own
		// footprint cannot be saved by spilling; the engine must refuse
		// with the typed budget error, not crash or loop.
		if rej := rejectedProbe(*scale, *seed); rej != "" {
			rep.Results = append(rep.Results,
				result{Scenario: "spill divide", Side: "rejected", Scale: *scale, Workers: *workers, Error: rej})
			if *jsonDest == "" {
				fmt.Printf("%-20s %12s: %s\n", "spill divide", "rejected", rej)
			}
		}
	}

	if *jsonDest != "" {
		out := os.Stdout
		if *jsonDest != "-" {
			f, err := os.Create(*jsonDest)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// measurement aggregates reps runs of one plan: minimum wall time,
// mean allocations and bytes per run.
type measurement struct {
	best   time.Duration
	allocs int64
	bytes  int64
	rows   int
}

func measure(n plan.Node, reps int) measurement {
	m := measurement{best: time.Duration(1<<62 - 1)}
	var ms0, ms1 runtime.MemStats
	for i := 0; i < reps; i++ {
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		out := plan.Eval(n)
		d := time.Since(start)
		runtime.ReadMemStats(&ms1)
		if d < m.best {
			m.best = d
		}
		m.allocs += int64(ms1.Mallocs - ms0.Mallocs)
		m.bytes += int64(ms1.TotalAlloc - ms0.TotalAlloc)
		m.rows = out.Len()
	}
	m.allocs /= int64(reps)
	m.bytes /= int64(reps)
	return m
}

// measureSpillPair times one blocking-operator plan with an unlimited
// budget against the same plan under budget bytes, paired per rep so
// machine drift hits both sides equally. A single drain can be below
// single-shot timer resolution on a noisy host, so each round runs
// enough inner drains to fill a few milliseconds and reports per-drain
// amortized figures; unmeasured warmup drains size that inner loop and
// absorb first-run effects (cold caches, pool population). A final
// instrumented drain reports how many bytes the budgeted side spilled;
// zero means the budget never forced the operator out of core and the
// pair is not measuring what it claims, so that is reported for the
// caller's sanity check rather than silently dropped.
func measureSpillPair(name string, n plan.Node, reps int, budget int64) (mem, spl measurement, spilled int64) {
	memOpts := exec.CompileOptions{MemoryLimit: -1}
	splOpts := exec.CompileOptions{MemoryLimit: budget}
	drain := func(opts exec.CompileOptions) int64 {
		rows, err := exec.Drain(context.Background(), exec.CompileWith(n, nil, opts))
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		return rows
	}
	start := time.Now()
	drain(memOpts)
	drain(splOpts)
	warm := time.Since(start) / 2
	iters := int(5 * time.Millisecond / (warm + 1))
	if iters < 1 {
		iters = 1
	}
	round := func(opts exec.CompileOptions, m *measurement) {
		var rows int64
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for j := 0; j < iters; j++ {
			rows = drain(opts)
		}
		d := time.Since(start) / time.Duration(iters)
		runtime.ReadMemStats(&ms1)
		if d < m.best {
			m.best = d
		}
		m.allocs += int64(ms1.Mallocs-ms0.Mallocs) / int64(iters)
		m.bytes += int64(ms1.TotalAlloc-ms0.TotalAlloc) / int64(iters)
		m.rows = int(rows)
	}
	mem = measurement{best: time.Duration(1<<62 - 1)}
	spl = measurement{best: time.Duration(1<<62 - 1)}
	for i := 0; i < reps; i++ {
		round(memOpts, &mem)
		round(splOpts, &spl)
	}
	mem.allocs /= int64(reps)
	mem.bytes /= int64(reps)
	spl.allocs /= int64(reps)
	spl.bytes /= int64(reps)

	tr := spill.NewTracker(budget)
	drain(exec.CompileOptions{MemoryLimit: budget, Spill: tr})
	spilled = tr.Snapshot().Spilled
	tr.Close()
	return mem, spl, spilled
}

// spillClasses builds one workload per blocking operator class whose
// working set at the default scale is several times the default
// sweep budget: external sort, the two grace-hash divisions, the
// grace-hash join, and the budgeted parallel exchange.
func spillClasses(scale int, seed int64) []struct {
	name string
	node plan.Node
} {
	groups := scale / 5
	if groups < 10 {
		groups = 10
	}
	r1, r2 := datagen.DividePair{
		Groups: groups, GroupSize: 4, DivisorSize: 4,
		Domain: 40, HitRate: 0.9, Seed: seed,
	}.Generate()
	g1, g2 := datagen.GreatDividePair{
		Groups: groups, GroupSize: 4, DivisorGroups: 4, DivisorGroupSize: 4,
		Domain: 40, HitRate: 0.9, Seed: seed,
	}.Generate()
	r1s := plan.NewScan("r1", r1)
	r2s := plan.NewScan("r2", r2)
	// Join build side: one unique b per row, far larger than the sweep
	// budget, so the join graces while each probe row matches at most
	// once and the output stays comparable to the input.
	jr := relation.New(schema.New("b", "c"))
	for i := 0; i < groups; i++ {
		jr.Insert(relation.Tuple{value.Int(int64(i)), value.Int(int64(i % 7))})
	}
	jrs := plan.NewScan("jr", jr)
	return []struct {
		name string
		node plan.Node
	}{
		{"spill sort", &plan.Sort{Input: r1s, Keys: []plan.SortKey{{Attr: "b"}, {Attr: "a", Desc: true}}}},
		{"spill divide", &plan.Divide{Dividend: r1s, Divisor: r2s}},
		{"spill great-divide", &plan.GreatDivide{Dividend: plan.NewScan("g1", g1), Divisor: plan.NewScan("g2", g2)}},
		{"spill hash-join", &plan.Join{Left: r1s, Right: jrs}},
		{"spill parallel-divide", &plan.ParallelDivide{Dividend: r1s, Divisor: r2s, Workers: 4}},
	}
}

// rejectedProbe runs a division under a budget smaller than its
// divisor's footprint and returns the typed error message the engine
// refused with; an empty return means the probe unexpectedly ran.
func rejectedProbe(scale int, seed int64) string {
	groups := scale / 5
	if groups < 10 {
		groups = 10
	}
	r1, r2 := datagen.DividePair{
		Groups: groups, GroupSize: 4, DivisorSize: 4,
		Domain: 40, HitRate: 0.9, Seed: seed,
	}.Generate()
	node := &plan.Divide{Dividend: plan.NewScan("r1", r1), Divisor: plan.NewScan("r2", r2)}
	_, err := exec.Drain(context.Background(), exec.CompileWith(node, nil, exec.CompileOptions{MemoryLimit: 64}))
	if err == nil {
		fmt.Fprintln(os.Stderr, "spill divide: 64-byte budget unexpectedly succeeded")
		os.Exit(1)
	}
	if !errors.Is(err, spill.ErrBudget) {
		fmt.Fprintf(os.Stderr, "spill divide: want a typed budget error, got: %v\n", err)
		os.Exit(1)
	}
	return err.Error()
}

// Benchmarks regenerating the paper's efficiency claims:
//
//   - BenchmarkLaw*/lhs vs /rhs: evaluation cost of each law's two
//     sides (the paper's per-law optimization argument, §5).
//   - BenchmarkSmallDivideAlgos: the physical algorithm ablation the
//     paper cites from Graefe [14] and Graefe & Cole [16].
//   - BenchmarkGreatDivideDefs: Theorem 1's three definitions plus
//     the hash operator.
//   - BenchmarkFirstClassVsSimulated: the quadratic-intermediate
//     result of Leinders & Van den Bussche [25].
//   - BenchmarkQ1DivideVsQ3NotExists: the §4 SQL comparison.
//   - BenchmarkFIM: the §3 frequent itemset application.
package divlaws

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"divlaws/internal/datagen"
	"divlaws/internal/division"
	"divlaws/internal/exec"
	"divlaws/internal/fim"
	"divlaws/internal/laws"
	"divlaws/internal/optimizer"
	"divlaws/internal/plan"
	"divlaws/internal/relation"
	"divlaws/internal/scenarios"
	"divlaws/internal/schema"
	"divlaws/internal/sql"
	"divlaws/internal/value"
)

// benchScale keeps the default `go test -bench=.` run fast; use
// -benchtime and the cmd/lawbench tool for larger sweeps.
const benchScale = 2000

// BenchmarkLaws times both sides of every law over the shared
// scenario workloads.
func BenchmarkLaws(b *testing.B) {
	for _, s := range scenarios.All() {
		lhs := s.Build(benchScale, 1)
		rhs := s.MustApply(lhs)
		b.Run(s.Name+"/lhs", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				plan.Eval(lhs)
			}
		})
		b.Run(s.Name+"/rhs", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				plan.Eval(rhs)
			}
		})
	}
}

// BenchmarkSmallDivideAlgos ablates the physical small-divide
// algorithms across group counts.
func BenchmarkSmallDivideAlgos(b *testing.B) {
	for _, groups := range []int{100, 1000} {
		r1, r2 := datagen.DividePair{
			Groups: groups, GroupSize: 10, DivisorSize: 10,
			Domain: 100, HitRate: 0.3, Seed: 1,
		}.Generate()
		for _, algo := range division.Algorithms() {
			b.Run(fmt.Sprintf("%s/groups=%d", algo, groups), func(b *testing.B) {
				b.ReportAllocs()
				b.ReportMetric(float64(r1.Len()), "dividend-rows")
				for i := 0; i < b.N; i++ {
					division.DivideWith(algo, r1, r2)
				}
			})
		}
	}
}

// BenchmarkGreatDivideDefs times the three equivalent definitions of
// Theorem 1 and the hash operator.
func BenchmarkGreatDivideDefs(b *testing.B) {
	r1, r2 := datagen.GreatDividePair{
		Groups: 400, GroupSize: 8,
		DivisorGroups: 10, DivisorGroupSize: 5,
		Domain: 80, HitRate: 0.3, Seed: 1,
	}.Generate()
	for _, algo := range division.GreatAlgorithms() {
		b.Run(string(algo), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				division.GreatDivideWith(algo, r1, r2)
			}
		})
	}
}

// BenchmarkFirstClassVsSimulated contrasts the first-class operator
// with Healy's basic-algebra simulation as the dividend grows; the
// simulation's intermediate is quadratic in |quotient candidates| ×
// |divisor|.
func BenchmarkFirstClassVsSimulated(b *testing.B) {
	for _, groups := range []int{100, 400, 1600} {
		r1, r2 := datagen.DividePair{
			Groups: groups, GroupSize: 6, DivisorSize: 8,
			Domain: 64, HitRate: 0.3, Seed: 1,
		}.Generate()
		direct := &plan.Divide{Dividend: plan.NewScan("r1", r1), Divisor: plan.NewScan("r2", r2)}
		simulated := exec.SimulatedDividePlan("r1", r1, "r2", r2)
		b.Run(fmt.Sprintf("first-class/groups=%d", groups), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := exec.Run(context.Background(), exec.Compile(direct, nil)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("simulated/groups=%d", groups), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := exec.Run(context.Background(), exec.Compile(simulated, nil)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQ1DivideVsQ3NotExists reproduces the §4 comparison: the
// DIVIDE BY formulation against the double-NOT-EXISTS simulation.
func BenchmarkQ1DivideVsQ3NotExists(b *testing.B) {
	supplies, parts := datagen.SuppliersParts{
		Suppliers: 15, Parts: 12, Colors: 3, AvgSupplied: 6, Seed: 1,
	}.Generate()
	db := sql.NewDB()
	db.Register("supplies", supplies)
	db.Register("parts", parts)
	const q1 = `SELECT s#, color
FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p#`
	const q3 = `SELECT DISTINCT s#, color
FROM supplies AS s1, parts AS p1
WHERE NOT EXISTS (
  SELECT * FROM parts AS p2
  WHERE p2.color = p1.color AND NOT EXISTS (
    SELECT * FROM supplies AS s2
    WHERE s2.p# = p2.p# AND s2.s# = s1.s#))`

	var want *relation.Relation
	b.Run("q1-divide", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			node, err := db.Plan(q1)
			if err != nil {
				b.Fatal(err)
			}
			want = plan.Eval(node)
		}
	})
	b.Run("q3-not-exists", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			node, err := db.Plan(q3)
			if err != nil {
				b.Fatal(err)
			}
			if res := plan.Eval(node); want != nil && !res.EquivalentTo(want) {
				b.Fatal("Q3 disagrees with Q1")
			}
		}
	})
}

// BenchmarkFIM compares the great-divide Apriori against the
// classical hash-counting baseline (§3).
func BenchmarkFIM(b *testing.B) {
	gen := datagen.Baskets{
		Transactions: 400, Items: 30, AvgSize: 5, Skew: 0.8, Seed: 1,
	}
	lists := make(map[int64][]int64)
	for _, tx := range gen.Generate() {
		lists[tx.ID] = tx.Items
	}
	trans := fim.FromLists(lists)
	const minSupport = 60
	b.Run("apriori-great-divide", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fim.DivideMiner{}.Mine(trans, minSupport)
		}
	})
	b.Run("apriori-hash-count", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fim.HashMiner{}.Mine(trans, minSupport)
		}
	})
}

// BenchmarkMergeGroupPipelining contrasts the blocking hash-division
// with the group-preserving merge operator on a pre-grouped
// dividend, the execution property behind Law 1's pipeline argument.
func BenchmarkMergeGroupPipelining(b *testing.B) {
	r1, r2 := datagen.DividePair{
		Groups: 2000, GroupSize: 8, DivisorSize: 8,
		Domain: 64, HitRate: 0.3, Seed: 1,
	}.Generate()
	for _, algo := range []division.Algorithm{division.AlgoHash, division.AlgoMergeSort} {
		node := &plan.Divide{
			Dividend: plan.NewScan("r1", r1),
			Divisor:  plan.NewScan("r2", r2),
			Algo:     algo,
		}
		b.Run(string(algo), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := exec.Run(context.Background(), exec.Compile(node, nil)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNotExistsDetection measures the §4 detection win: the
// same Q3 text executed as the undetected anti-semi-join plan
// (fallback) vs the detected first-class division plan.
func BenchmarkNotExistsDetection(b *testing.B) {
	supplies, parts := datagen.SuppliersParts{
		Suppliers: 15, Parts: 12, Colors: 3, AvgSupplied: 6, Seed: 1,
	}.Generate()
	db := sql.NewDB()
	db.Register("supplies", supplies)
	db.Register("parts", parts)
	const q3 = `SELECT DISTINCT s#, color
FROM supplies AS s1, parts AS p1
WHERE NOT EXISTS (
  SELECT * FROM parts AS p2
  WHERE p2.color = p1.color AND NOT EXISTS (
    SELECT * FROM supplies AS s2
    WHERE s2.p# = p2.p# AND s2.s# = s1.s#))`

	detected, wasDetected, err := db.PlanWithDetection(q3)
	if err != nil || !wasDetected {
		b.Fatalf("detection failed: %v", err)
	}
	fallback, err := db.Plan(q3)
	if err != nil {
		b.Fatal(err)
	}
	want := plan.Eval(fallback)
	if !plan.Eval(detected).EquivalentTo(want) {
		b.Fatal("detected plan wrong")
	}
	b.Run("detected-divide", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			plan.Eval(detected)
		}
	})
	b.Run("anti-join", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			plan.Eval(fallback)
		}
	})
}

// BenchmarkParallelDivideExec measures the Law 2 exchange operator:
// plan.ParallelDivide compiled to the fan-out iterator across worker
// counts, hash division in every partition. Hash division is already
// linear, so the paper's §5.2.1 proviso — the division must dominate
// the partition/merge cost — fails and the overhead wins. The hash/
// prefix keeps the sub-benchmark names comparable across versions.
func BenchmarkParallelDivideExec(b *testing.B) {
	r1, r2 := datagen.DividePair{
		Groups: 4000, GroupSize: 10, DivisorSize: 12,
		Domain: 200, HitRate: 0.25, Seed: 1,
	}.Generate()
	for _, workers := range []int{1, 2, 4, 8} {
		node := &plan.ParallelDivide{
			Dividend: plan.NewScan("r1", r1),
			Divisor:  plan.NewScan("r2", r2),
			Workers:  workers,
		}
		b.Run(fmt.Sprintf("hash/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := exec.Run(context.Background(), exec.Compile(node, nil)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelGreatDivideExec is the great divide exchange
// through the compiled iterator across worker counts. Each worker
// divides its dividend partition against the replicated divisor;
// wall-clock gains require the per-group work to dominate the
// partitioning, as the paper's proviso states.
func BenchmarkParallelGreatDivideExec(b *testing.B) {
	g1, g2 := datagen.GreatDividePair{
		Groups: 1500, GroupSize: 10,
		DivisorGroups: 32, DivisorGroupSize: 6,
		Domain: 200, HitRate: 0.25, Seed: 1,
	}.Generate()
	for _, workers := range []int{1, 2, 4, 8} {
		node := &plan.ParallelGreatDivide{
			Dividend: plan.NewScan("g1", g1),
			Divisor:  plan.NewScan("g2", g2),
			Workers:  workers,
		}
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := exec.Run(context.Background(), exec.Compile(node, nil)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBudgetedDivideWorkers runs ÷ and ÷* under a 1 MiB memory
// budget at one and two workers. Both dividends outgrow the budget, so
// each division spills its dividend to partition runs; at two workers
// the runs are divided on two goroutines at once.
func BenchmarkBudgetedDivideWorkers(b *testing.B) {
	r1, r2 := datagen.DividePair{
		Groups: 4000, GroupSize: 10, DivisorSize: 12,
		Domain: 200, HitRate: 0.25, Seed: 1,
	}.Generate()
	g1, g2 := datagen.GreatDividePair{
		Groups: 4000, GroupSize: 10,
		DivisorGroups: 32, DivisorGroupSize: 6,
		Domain: 200, HitRate: 0.25, Seed: 1,
	}.Generate()
	for _, workers := range []int{1, 2} {
		for _, tc := range []struct {
			name string
			node plan.Node
		}{
			{"divide", &plan.ParallelDivide{Dividend: plan.NewScan("r1", r1), Divisor: plan.NewScan("r2", r2), Workers: workers}},
			{"great", &plan.ParallelGreatDivide{Dividend: plan.NewScan("g1", g1), Divisor: plan.NewScan("g2", g2), Workers: workers}},
		} {
			b.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					it := exec.CompileWith(tc.node, nil, exec.CompileOptions{MemoryLimit: 1 << 20})
					if _, err := exec.Drain(context.Background(), it); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPreconditionC1VsC2 quantifies §5.1.1's remark that
// "testing condition c1 can be expensive, an RDBMS may use a
// stricter condition c2": the cost of deciding Law 2's two
// preconditions as the partitions grow.
func BenchmarkPreconditionC1VsC2(b *testing.B) {
	for _, groups := range []int{500, 5000} {
		r1, r2 := datagen.DividePair{
			Groups: groups, GroupSize: 8, DivisorSize: 8,
			Domain: 64, HitRate: 0.25, Seed: 1,
		}.Generate()
		// Split with a shared boundary group so c2 fails and c1 must
		// do real work.
		sorted := r1.Sorted()
		half := len(sorted) / 2
		lo := relation.New(r1.Schema())
		hi := relation.New(r1.Schema())
		for i, t := range sorted {
			if i <= half {
				lo.Insert(t)
			}
			if i >= half {
				hi.Insert(t)
			}
		}
		b.Run(fmt.Sprintf("c2/groups=%d", groups), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				laws.C2(lo, hi, r2)
			}
		})
		b.Run(fmt.Sprintf("c1/groups=%d", groups), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				laws.C1(lo, hi, r2)
			}
		})
	}
}

// BenchmarkOptimizer measures the rewriter itself: plan traversal
// with schema-only rules vs with data-dependent preconditions
// enabled.
func BenchmarkOptimizer(b *testing.B) {
	s, _ := scenarios.ByName("Law 9")
	inner := s.Build(4000, 3)
	for name, allow := range map[string]bool{"catalog-only": false, "data-dependent": true} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				optimizer.Optimize(inner, optimizer.Options{AllowDataDependent: allow})
			}
		})
	}
}

// BenchmarkTupleKey contrasts the two tuple-identity encodings: the
// allocating injective string key and the incremental 64-bit hash
// the engine's hash operators now run on.
func BenchmarkTupleKey(b *testing.B) {
	t := relation.Tuple{
		value.Int(123456), value.String("supplier-42"),
		value.Float(3.25), value.Bool(true),
	}
	b.Run("string-key", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = t.Key()
		}
	})
	b.Run("hash64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = t.Hash64()
		}
	})
	pos := []int{0, 2}
	b.Run("string-key-proj", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = t.Project(pos).Key()
		}
	})
	b.Run("hash64-proj", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = t.Hash64Proj(pos)
		}
	})
}

// BenchmarkRelationInsert measures set-semantics insertion through
// the hashkey dedup table: fresh tuples (cloned and owned) and the
// duplicate-heavy re-insert path that allocates nothing.
func BenchmarkRelationInsert(b *testing.B) {
	const rows = 4096
	sch := schema.New("a", "b", "c")
	tuples := make([]relation.Tuple, rows)
	for i := range tuples {
		tuples[i] = relation.Tuple{
			value.Int(int64(i)), value.String("grp"), value.Int(int64(i % 7)),
		}
	}
	b.Run("insert", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := relation.New(sch)
			for _, t := range tuples {
				r.Insert(t)
			}
		}
	})
	b.Run("insert-owned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := relation.New(sch)
			for _, t := range tuples {
				r.InsertOwned(t)
			}
		}
	})
	b.Run("insert-dup", func(b *testing.B) {
		b.ReportAllocs()
		r := relation.New(sch)
		for _, t := range tuples {
			r.InsertOwned(t)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Insert(tuples[i%rows])
		}
	})
	b.Run("contains", func(b *testing.B) {
		b.ReportAllocs()
		r := relation.New(sch)
		for _, t := range tuples {
			r.InsertOwned(t)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !r.Contains(tuples[i%rows]) {
				b.Fatal("missing tuple")
			}
		}
	})
}

// BenchmarkParallelDivideFirstRow measures time-to-first-row of the
// streaming exchange: compile, Open (which materializes the inputs,
// partitions, and launches the workers), and one Next. Before the
// pipelined exchange this paid for the full quotient of every
// partition inside Open; now it returns as soon as the first
// partition resolves, with the other workers parked on the bounded
// channel and torn down by Close.
func BenchmarkParallelDivideFirstRow(b *testing.B) {
	r1, r2 := datagen.DividePair{
		Groups: 4000, GroupSize: 10, DivisorSize: 12,
		Domain: 200, HitRate: 0.25, Seed: 1,
	}.Generate()
	for _, workers := range []int{1, 2, 4, 8} {
		node := &plan.ParallelDivide{
			Dividend: plan.NewScan("r1", r1),
			Divisor:  plan.NewScan("r2", r2),
			Workers:  workers,
		}
		b.Run(fmt.Sprintf("hash/workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				it := exec.CompileWith(node, nil, exec.CompileOptions{ExchangeBuffer: 1})
				if err := it.Open(context.Background()); err != nil {
					b.Fatal(err)
				}
				if _, ok, err := it.Next(); err != nil || !ok {
					b.Fatalf("Next = (%t, %v)", ok, err)
				}
				if err := it.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelGreatDivideFirstRow is the great divide
// exchange's time-to-first-row; see BenchmarkParallelDivideFirstRow.
func BenchmarkParallelGreatDivideFirstRow(b *testing.B) {
	g1, g2 := datagen.GreatDividePair{
		Groups: 1500, GroupSize: 10,
		DivisorGroups: 32, DivisorGroupSize: 6,
		Domain: 200, HitRate: 0.25, Seed: 1,
	}.Generate()
	for _, workers := range []int{1, 2, 4, 8} {
		node := &plan.ParallelGreatDivide{
			Dividend: plan.NewScan("g1", g1),
			Divisor:  plan.NewScan("g2", g2),
			Workers:  workers,
		}
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				it := exec.CompileWith(node, nil, exec.CompileOptions{ExchangeBuffer: 1})
				if err := it.Open(context.Background()); err != nil {
					b.Fatal(err)
				}
				if _, ok, err := it.Next(); err != nil || !ok {
					b.Fatalf("Next = (%t, %v)", ok, err)
				}
				if err := it.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelDividePeakAlloc reports the live heap held while
// a parallel division is mid-stream (after the first row, GC
// forced): the streaming exchange holds the partitioned inputs plus
// one bounded buffer, where the materializing exchange additionally
// held every partition's quotient and the merged copy.
func BenchmarkParallelDividePeakAlloc(b *testing.B) {
	r1, r2 := datagen.DividePair{
		Groups: 4000, GroupSize: 10, DivisorSize: 12,
		Domain: 200, HitRate: 0.25, Seed: 1,
	}.Generate()
	node := &plan.ParallelDivide{
		Dividend: plan.NewScan("r1", r1),
		Divisor:  plan.NewScan("r2", r2),
		Workers:  4,
	}
	var ms runtime.MemStats
	var total float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		it := exec.CompileWith(node, nil, exec.CompileOptions{ExchangeBuffer: 1})
		if err := it.Open(context.Background()); err != nil {
			b.Fatal(err)
		}
		if _, ok, err := it.Next(); err != nil || !ok {
			b.Fatalf("Next = (%t, %v)", ok, err)
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		total += float64(ms.HeapAlloc)
		if err := it.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(total/float64(b.N), "live-B")
}

// BenchmarkTopK contrasts the fused TopK operator with the unfused
// Limit-over-Sort pipeline it replaces: same input, same keys, same
// k — the bounded heap touches every tuple once and holds k live,
// where the sort materializes and orders the whole input.
func BenchmarkTopK(b *testing.B) {
	r1, r2 := datagen.DividePair{
		Groups: 4000, GroupSize: 10, DivisorSize: 12,
		Domain: 200, HitRate: 0.25, Seed: 1,
	}.Generate()
	div := &plan.Divide{Dividend: plan.NewScan("r1", r1), Divisor: plan.NewScan("r2", r2)}
	keys := []plan.SortKey{{Attr: div.Schema().Attrs()[0], Desc: true}}
	for _, k := range []int64{1, 10, 100} {
		fused := &plan.TopK{Input: div, Keys: keys, K: k}
		unfused := &plan.Limit{Input: &plan.Sort{Input: div, Keys: keys}, N: k}
		b.Run(fmt.Sprintf("topk/k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := exec.Drain(context.Background(), exec.Compile(fused, nil)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("sort-limit/k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := exec.Drain(context.Background(), exec.Compile(unfused, nil)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOrderByLimitFirstRow measures first-row latency of
// ORDER BY + LIMIT 1 over a parallel division across worker counts:
// the order-aware exchange runs one bounded top-1 heap per partition
// and merges, so the first (and only) row costs the division itself
// plus an O(workers) merge — never a quotient materialization.
func BenchmarkOrderByLimitFirstRow(b *testing.B) {
	r1, r2 := datagen.DividePair{
		Groups: 4000, GroupSize: 10, DivisorSize: 12,
		Domain: 200, HitRate: 0.25, Seed: 1,
	}.Generate()
	div := &plan.Divide{Dividend: plan.NewScan("r1", r1), Divisor: plan.NewScan("r2", r2)}
	keys := []plan.SortKey{{Attr: div.Schema().Attrs()[0]}}
	for _, workers := range []int{1, 2, 4, 8} {
		var node plan.Node = &plan.TopK{Input: div, Keys: keys, K: 1}
		if workers >= 2 {
			node = &plan.TopK{
				Input: &plan.ParallelDivide{
					Dividend: div.Dividend, Divisor: div.Divisor, Workers: workers,
				},
				Keys: keys, K: 1,
			}
		}
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				it := exec.CompileWith(node, nil, exec.CompileOptions{ExchangeBuffer: 1})
				if err := it.Open(context.Background()); err != nil {
					b.Fatal(err)
				}
				if _, ok, err := it.Next(); err != nil || !ok {
					b.Fatalf("Next = (%t, %v)", ok, err)
				}
				if err := it.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTopKPeakAlloc reports the live heap held mid-stream
// (after the first row, GC forced) by the order-aware exchange: the
// partitioned inputs plus O(k·workers) retained tuples — the
// acceptance measurement that the per-partition bound keeps the
// quotient unmaterialized. Compare against
// BenchmarkParallelDividePeakAlloc, the unordered exchange on the
// same inputs.
func BenchmarkTopKPeakAlloc(b *testing.B) {
	r1, r2 := datagen.DividePair{
		Groups: 4000, GroupSize: 10, DivisorSize: 12,
		Domain: 200, HitRate: 0.25, Seed: 1,
	}.Generate()
	div := &plan.Divide{Dividend: plan.NewScan("r1", r1), Divisor: plan.NewScan("r2", r2)}
	node := &plan.TopK{
		Input: &plan.ParallelDivide{
			Dividend: div.Dividend, Divisor: div.Divisor, Workers: 4,
		},
		Keys: []plan.SortKey{{Attr: div.Schema().Attrs()[0]}},
		K:    10,
	}
	var ms runtime.MemStats
	var total float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		it := exec.CompileWith(node, nil, exec.CompileOptions{ExchangeBuffer: 1})
		if err := it.Open(context.Background()); err != nil {
			b.Fatal(err)
		}
		if _, ok, err := it.Next(); err != nil || !ok {
			b.Fatalf("Next = (%t, %v)", ok, err)
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		total += float64(ms.HeapAlloc)
		if err := it.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(total/float64(b.N), "live-B")
}

// BenchmarkQueryLimitOne measures the end-to-end early-exit path
// through the public API: SELECT … LIMIT 1 over a parallel division,
// parse to teardown. The limited query must not pay for the full
// quotient.
func BenchmarkQueryLimitOne(b *testing.B) {
	supplies, parts := datagen.SuppliersParts{
		Suppliers: 2000, Parts: 60, Colors: 5, AvgSupplied: 30, Seed: 3,
	}.Generate()
	db := Open(WithWorkers(4), WithParallelThreshold(1), WithExchangeBuffer(1))
	db.MustRegister("supplies", MustNewRelation(supplies.Schema().Attrs(), supplies.Rows()))
	db.MustRegister("parts", MustNewRelation(parts.Schema().Attrs(), parts.Rows()))
	q := `SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p#`
	for _, tc := range []struct{ name, text string }{
		{"limit-1", q + " LIMIT 1"},
		{"full", q},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows, err := db.Query(context.Background(), tc.text)
				if err != nil {
					b.Fatal(err)
				}
				for rows.Next() {
				}
				if err := rows.Close(); err != nil {
					b.Fatal(err)
				}
				if err := rows.Err(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStmtQueryBind runs a prepared, aliased DIVIDE BY through
// Stmt.Query to the last row, at the two dataset sizes of the
// layered benchmark (bench/: embed_small, embed_large). It is the
// committed Go benchmark that crosses the bind layer: every call
// binds both table references again, so a bind whose cost grows with
// the tables — the per-reference copy that rename views removed —
// shows here as allocated bytes, not only in bench/'s numbers.
func BenchmarkStmtQueryBind(b *testing.B) {
	for _, size := range []struct{ suppliers, parts, avg int }{
		{2000, 40, 20},
		{10000, 200, 40},
	} {
		b.Run(fmt.Sprintf("%dx%d", size.suppliers, size.parts), func(b *testing.B) {
			supplies, parts := datagen.SuppliersParts{
				Suppliers: size.suppliers, Parts: size.parts, Colors: 8, AvgSupplied: size.avg, Seed: 1,
			}.Generate()
			db := Open()
			db.MustRegister("supplies", MustNewRelation(supplies.Schema().Attrs(), supplies.Rows()))
			db.MustRegister("parts", MustNewRelation(parts.Schema().Attrs(), parts.Rows()))
			stmt, err := db.Prepare(`SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p#`)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, err := stmt.Query(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				for rows.Next() {
				}
				if err := rows.Close(); err != nil {
					b.Fatal(err)
				}
				if err := rows.Err(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package optimizer

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"divlaws/internal/datagen"
	"divlaws/internal/division"
	"divlaws/internal/exec"
	"divlaws/internal/plan"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/value"
)

func dividePlan(seed int64) (*plan.Divide, *relation.Relation, *relation.Relation) {
	r1, r2 := datagen.DividePair{
		Groups: 300, GroupSize: 6, DivisorSize: 6,
		Domain: 60, HitRate: 0.3, Seed: seed,
	}.Generate()
	return &plan.Divide{
		Dividend: plan.NewScan("r1", r1),
		Divisor:  plan.NewScan("r2", r2),
	}, r1, r2
}

func TestParallelizeThreshold(t *testing.T) {
	node, r1, _ := dividePlan(1)
	dividendRows := float64(r1.Len())

	// Above the threshold: rewritten.
	got, trace := Parallelize(node, ParallelOptions{Workers: 4, Threshold: dividendRows / 2})
	pd, ok := got.(*plan.ParallelDivide)
	if !ok {
		t.Fatalf("above threshold: got %T, want *plan.ParallelDivide", got)
	}
	if pd.Workers != 4 {
		t.Errorf("Workers = %d, want 4", pd.Workers)
	}
	if len(trace) != 1 || !strings.Contains(trace[0].Rule, "Law 2/c2") {
		t.Errorf("trace = %+v, want one Law 2/c2 application", trace)
	}

	// Below the threshold: untouched.
	got, trace = Parallelize(node, ParallelOptions{Workers: 4, Threshold: dividendRows * 10})
	if _, ok := got.(*plan.Divide); !ok {
		t.Errorf("below threshold: got %T, want *plan.Divide", got)
	}
	if len(trace) != 0 {
		t.Errorf("below threshold: unexpected trace %+v", trace)
	}

	// Workers < 2 disables the pass regardless of cardinality.
	got, _ = Parallelize(node, ParallelOptions{Workers: 1, Threshold: 1})
	if _, ok := got.(*plan.Divide); !ok {
		t.Errorf("workers=1: got %T, want *plan.Divide", got)
	}
}

func TestParallelizeGreatDivide(t *testing.T) {
	r1, r2 := datagen.GreatDividePair{
		Groups: 200, GroupSize: 6,
		DivisorGroups: 16, DivisorGroupSize: 4,
		Domain: 60, HitRate: 0.3, Seed: 2,
	}.Generate()
	node := &plan.GreatDivide{
		Dividend: plan.NewScan("r1", r1),
		Divisor:  plan.NewScan("r2", r2),
	}
	got, trace := Parallelize(node, ParallelOptions{Workers: 4, Threshold: 1})
	pgd, ok := got.(*plan.ParallelGreatDivide)
	if !ok {
		t.Fatalf("got %T, want *plan.ParallelGreatDivide", got)
	}
	if len(trace) != 1 || !strings.Contains(trace[0].Rule, "Law 2/c2") {
		t.Errorf("trace = %+v, want one Law 2/c2 application", trace)
	}
	if !plan.Eval(pgd).EquivalentTo(plan.Eval(node)) {
		t.Error("parallelized great divide changed the result")
	}
	// The dividend is what gets partitioned, so a divisor with fewer
	// tuples than workers does not hold the rewrite back.
	one := &plan.GreatDivide{Dividend: node.Dividend, Divisor: plan.NewScan("one", relation.Ints([]string{"b", "c"}, [][]int64{{1, 1}}))}
	got, _ = Parallelize(one, ParallelOptions{Workers: 4, Threshold: 1})
	if _, ok := got.(*plan.ParallelGreatDivide); !ok {
		t.Errorf("one-tuple divisor: got %T, want *plan.ParallelGreatDivide", got)
	}
}

// TestOptimizeWithParallelOptions checks the end-to-end pipeline:
// Optimize applies the laws, then parallelizes, and the trace shows
// both stages.
func TestOptimizeWithParallelOptions(t *testing.T) {
	node, _, _ := dividePlan(3)
	res := Optimize(node, Options{
		Parallel: ParallelOptions{Workers: 8, Threshold: 1},
	})
	found := false
	plan.Transform(res.Plan, func(n plan.Node) plan.Node {
		if _, ok := n.(*plan.ParallelDivide); ok {
			found = true
		}
		return n
	})
	if !found {
		t.Fatalf("optimized plan has no ParallelDivide:\n%s", plan.Format(res.Plan))
	}
	if !plan.Eval(res.Plan).Equal(plan.Eval(node)) {
		t.Error("optimized parallel plan changed the result")
	}
}

// TestParallelPlanCompilesSetEqual is the acceptance property: a
// plan containing Divide over a dividend above the threshold
// compiles to a parallel iterator whose results are set-equal to the
// sequential ones, across all division algorithms and random inputs.
func TestParallelPlanCompilesSetEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		r1 := relation.New(schema.New("a", "b"))
		for i := 0; i < 40+rng.Intn(120); i++ {
			r1.Insert(relation.Tuple{
				value.Int(int64(rng.Intn(20))), value.Int(int64(rng.Intn(8))),
			})
		}
		r2 := relation.New(schema.New("b"))
		for i := 0; i < 1+rng.Intn(4); i++ {
			r2.Insert(relation.Tuple{value.Int(int64(rng.Intn(8)))})
		}
		workers := 2 + rng.Intn(7)
		for _, algo := range []division.Algorithm{division.AlgoHash, division.AlgoMergeSort} {
			seq := &plan.Divide{
				Dividend: plan.NewScan("r1", r1),
				Divisor:  plan.NewScan("r2", r2),
				Algo:     algo,
			}
			par, _ := Parallelize(seq, ParallelOptions{Workers: workers, Threshold: 1})
			if _, ok := par.(*plan.ParallelDivide); !ok {
				t.Fatalf("trial %d: got %T, want *plan.ParallelDivide", trial, par)
			}
			want, err := exec.Run(context.Background(), exec.Compile(seq, nil))
			if err != nil {
				t.Fatalf("trial %d (%s): sequential: %v", trial, algo, err)
			}
			got, err := exec.Run(context.Background(), exec.Compile(par, exec.NewStats()))
			if err != nil {
				t.Fatalf("trial %d (%s): parallel: %v", trial, algo, err)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d (%s, workers=%d): %d vs %d rows",
					trial, algo, workers, got.Len(), want.Len())
			}
		}
	}
}

// TestParallelizeUnderLimit proves the pass is limit-aware: a
// division beneath a plan.Limit is still parallelized (the streaming
// exchange plus early exit make the parallel form strictly better
// under LIMIT), and the Limit node itself survives on top.
func TestParallelizeUnderLimit(t *testing.T) {
	node, r1, _ := dividePlan(5)
	limited := &plan.Limit{Input: node, N: 1}
	got, trace := Parallelize(limited, ParallelOptions{Workers: 4, Threshold: float64(r1.Len()) / 2})
	lim, ok := got.(*plan.Limit)
	if !ok {
		t.Fatalf("root = %T, want *plan.Limit", got)
	}
	if _, ok := lim.Input.(*plan.ParallelDivide); !ok {
		t.Fatalf("Limit input = %T, want *plan.ParallelDivide", lim.Input)
	}
	if len(trace) != 1 {
		t.Fatalf("trace = %v", trace)
	}
	// The limit caps the cardinality estimate above the exchange.
	if rows := Rows(got); rows != 1 {
		t.Errorf("Rows(Limit[1]) = %g, want 1", rows)
	}
	if rows := Rows(lim.Input); rows <= 1 {
		t.Errorf("Rows under the limit should stay the division estimate, got %g", rows)
	}
}

package exec

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"divlaws/internal/division"
	"divlaws/internal/hashkey"
	"divlaws/internal/plan"
	"divlaws/internal/pred"
	"divlaws/internal/relation"
)

// These tests pin the tentpole invariant: the vectorized batch path
// is an exact drop-in for the tuple path. Every plan is compiled
// twice — BatchOff (the tuple-at-a-time oracle) and BatchForce — and
// compared tuple-for-tuple: ordered plans by sequence, unordered by
// multiset-free set equality. Both drain styles are exercised: the
// Iterator surface (Next, through FromBatch where the root is
// batch-only) and the raw BatchIterator surface (NextBatch).

// drainSeq collects the full output sequence through the Iterator
// surface.
func drainSeq(t *testing.T, it Iterator) []relation.Tuple {
	t.Helper()
	if err := it.Open(context.Background()); err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer it.Close()
	var out []relation.Tuple
	for {
		tup, ok, err := it.Next()
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if !ok {
			return out
		}
		out = append(out, tup)
	}
}

// drainBatchSeq collects the full output sequence through NextBatch,
// copying each batch before the next call (the ownership contract:
// a batch is valid only until the producer's next call).
func drainBatchSeq(t *testing.T, b BatchIterator) []relation.Tuple {
	t.Helper()
	if err := b.OpenBatch(context.Background()); err != nil {
		t.Fatalf("OpenBatch: %v", err)
	}
	defer b.Close()
	var out []relation.Tuple
	for {
		batch, err := b.NextBatch()
		if err != nil {
			t.Fatalf("NextBatch: %v", err)
		}
		if batch == nil {
			return out
		}
		if batch.Len() == 0 {
			t.Fatal("NextBatch returned an empty non-nil batch")
		}
		for _, tup := range batch.Tuples() {
			if tup == nil {
				t.Fatal("NextBatch returned a batch containing a nil tuple")
			}
			out = append(out, tup)
		}
	}
}

func seqKeys(ts []relation.Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Key()
	}
	return out
}

func sameSeq(a, b []string) bool {
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

// equivPlans is the operator-pair matrix: one entry per physical
// operator with a batch counterpart or batch drain — including the
// probe-side operators batched in PR 7 (joins, set ops, products,
// merge division) — plus mixed trees crossing build/probe region
// boundaries (division over a join, set ops feeding divisions).
func equivPlans(rng *rand.Rand) []equivPlan {
	return equivPlansGen(rng, randRelation)
}

type equivPlan struct {
	name    string
	node    plan.Node
	ordered bool
}

// equivPlansGen is equivPlans over an arbitrary relation generator,
// so the sweeps can run the same matrix with string-keyed inputs
// (randWideRelation) against the wide hash kernels.
func equivPlansGen(rng *rand.Rand, gen func(*rand.Rand, []string, int, int) *relation.Relation) []equivPlan {
	r1 := plan.NewScan("r1", gen(rng, []string{"a", "b"}, 5+rng.Intn(60), 6))
	r2 := plan.NewScan("r2", gen(rng, []string{"b"}, 1+rng.Intn(4), 6))
	r2g := plan.NewScan("r2g", gen(rng, []string{"b", "c"}, 1+rng.Intn(8), 6))
	u := plan.NewScan("u", gen(rng, []string{"a", "b"}, 5+rng.Intn(40), 6))
	rc := plan.NewScan("rc", gen(rng, []string{"c"}, rng.Intn(5), 6))
	p := pred.Compare(pred.Attr("a"), pred.Gt, pred.ConstInt(int64(rng.Intn(6))))
	div := &plan.Divide{Dividend: r1, Divisor: r2}
	join := &plan.Join{Left: r1, Right: r2g}
	keysA := []plan.SortKey{{Attr: "a"}, {Attr: "b", Desc: true}}
	return append(projectShapes(rng, r1, r2g), []equivPlan{
		{"scan", r1, false},
		{"filter", &plan.Select{Input: r1, Pred: p}, false},
		{"project", &plan.Project{Input: r1, Attrs: []string{"a"}}, false},
		{"rename", &plan.Rename{Input: r1, From: "a", To: "x"}, false},
		{"limit", &plan.Limit{Input: r1, N: int64(rng.Intn(12))}, false},
		{"divide", div, false},
		{"greatdivide", &plan.GreatDivide{Dividend: r1, Divisor: r2g}, false},
		{"group", &plan.Group{Input: r1, By: []string{"a"}}, false},
		{"sort", &plan.Sort{Input: r1, Keys: keysA}, true},
		{"topk", &plan.TopK{Input: r1, Keys: keysA, K: int64(1 + rng.Intn(10))}, true},
		{"paralleldivide", &plan.ParallelDivide{Dividend: r1, Divisor: r2, Workers: 3}, false},
		{"parallelgreatdivide", &plan.ParallelGreatDivide{Dividend: r1, Divisor: r2g, Workers: 3}, false},
		{"topk-over-parallel", &plan.TopK{
			Input: &plan.ParallelDivide{Dividend: r1, Divisor: r2, Workers: 3},
			Keys:  []plan.SortKey{{Attr: "a"}}, K: 3,
		}, true},
		{"pipeline-over-divide", &plan.Limit{
			Input: &plan.Project{Input: &plan.Select{Input: div, Pred: p}, Attrs: []string{"a"}},
			N:     int64(1 + rng.Intn(6)),
		}, false},
		// The probe-side operators batched in PR 7.
		{"union", plan.Union(r1, u), false},
		{"intersect", plan.Intersect(r1, u), false},
		{"diff", plan.Diff(r1, u), false},
		{"join", join, false},
		{"join-degenerate-product", &plan.Join{Left: r2, Right: rc}, false},
		{"product", &plan.Product{Left: r1, Right: rc}, false},
		{"thetajoin", &plan.ThetaJoin{
			Left: r1, Right: rc,
			Pred: pred.Compare(pred.Attr("a"), pred.Lt, pred.Attr("c")),
		}, false},
		{"semijoin", &plan.SemiJoin{Left: r1, Right: r2g}, false},
		{"antisemijoin", &plan.AntiSemiJoin{Left: r1, Right: r2g}, false},
		{"mergedivide", &plan.Divide{Dividend: r1, Divisor: r2, Algo: division.AlgoMergeSort}, false},
		// Mixed trees: probe pipelines feeding and fed by divisions.
		{"divide-over-join", &plan.Divide{Dividend: join, Divisor: r2}, false},
		{"divide-over-union", &plan.Divide{Dividend: plan.Union(r1, u), Divisor: r2}, false},
		{"mergedivide-over-union", &plan.Divide{
			Dividend: plan.Union(r1, u), Divisor: r2, Algo: division.AlgoMergeSort,
		}, false},
		{"limit-over-join", &plan.Limit{Input: join, N: int64(1 + rng.Intn(8))}, false},
		{"filter-over-union", &plan.Select{Input: plan.Union(r1, u), Pred: p}, false},
		{"sort-over-union", &plan.Sort{Input: plan.Union(r1, u), Keys: keysA}, true},
		{"project-over-semijoin", &plan.Project{
			Input: &plan.SemiJoin{Left: r1, Right: r2g}, Attrs: []string{"a"},
		}, false},
	}...)
}

// projectShapes is the projection corner of the matrix. A Project
// that keeps every column of its input runs without a dedup index —
// the identity forwards its child's batches, a permutation only
// reorders columns — so each appears over a scan, over a division
// quotient, under Limit and under Sort; the narrowing projections
// beside them prove dedup still runs where it must. ordered here
// means "emits in a defined order": the order of the scan, of the
// first-seen dedup, or of the sort — which is also the order of the
// reference plan.Eval, so TestProjectShapesMatchOracle compares
// these by sequence.
func projectShapes(rng *rand.Rand, r1, r2g plan.Node) []equivPlan {
	ab, ba := []string{"a", "b"}, []string{"b", "a"}
	quotient := &plan.GreatDivide{Dividend: r1, Divisor: r2g} // over (a, c)
	keys := []plan.SortKey{{Attr: "a"}, {Attr: "b", Desc: true}}
	n := int64(rng.Intn(12))
	return []equivPlan{
		{"project-identity", &plan.Project{Input: r1, Attrs: ab}, true},
		{"project-permute", &plan.Project{Input: r1, Attrs: ba}, true},
		{"project-identity-over-quotient", &plan.Project{Input: quotient, Attrs: []string{"a", "c"}}, false},
		{"project-permute-over-quotient", &plan.Project{Input: quotient, Attrs: []string{"c", "a"}}, false},
		{"limit-over-project-identity", &plan.Limit{Input: &plan.Project{Input: r1, Attrs: ab}, N: n}, true},
		{"limit-over-project-permute", &plan.Limit{Input: &plan.Project{Input: r1, Attrs: ba}, N: n}, true},
		{"sort-over-project-identity", &plan.Sort{Input: &plan.Project{Input: r1, Attrs: ab}, Keys: keys}, true},
		{"sort-over-project-permute", &plan.Sort{Input: &plan.Project{Input: r1, Attrs: ba}, Keys: keys}, true},
		{"project-narrow", &plan.Project{Input: r1, Attrs: []string{"b"}}, true},
		{"project-narrow-over-permute", &plan.Project{
			Input: &plan.Project{Input: r1, Attrs: ba}, Attrs: []string{"a"},
		}, true},
		{"limit-over-project-narrow", &plan.Limit{Input: &plan.Project{Input: r1, Attrs: []string{"a"}}, N: n}, true},
	}
}

// TestProjectShapesMatchOracle checks the projection shapes against
// the independent reference evaluator (plan.Eval: algebra.Project,
// which always dedups) rather than against the other execution
// path, since both paths share the no-dedup decision: tuple and
// forced-batch compiles x batch sizes 1/7/64 x both drain styles,
// with full hashes and with 3-bit hashes.
func TestProjectShapesMatchOracle(t *testing.T) {
	for _, mask := range []uint64{0, 0x7} {
		restore := hashkey.SetMaskForTesting(mask)
		rng := rand.New(rand.NewSource(67))
		for trial := 0; trial < 12; trial++ {
			gen := randRelation
			if trial%2 == 1 {
				gen = randWideRelation
			}
			r1 := plan.NewScan("r1", gen(rng, []string{"a", "b"}, 5+rng.Intn(150), 6))
			r2g := plan.NewScan("r2g", gen(rng, []string{"b", "c"}, 1+rng.Intn(8), 6))
			for _, c := range projectShapes(rng, r1, r2g) {
				want := seqKeys(plan.Eval(c.node).Tuples())
				check := func(got []string, via string) {
					t.Helper()
					same := sameSeq(got, want)
					if !c.ordered {
						same = sortedKeys(append([]string(nil), got...)) == sortedKeys(append([]string(nil), want...))
					}
					if !same {
						t.Fatalf("mask %d trial %d %s (%s): diverges from plan.Eval\ngot  %v\nwant %v",
							mask, trial, c.name, via, got, want)
					}
				}
				check(seqKeys(drainSeq(t, CompileWith(c.node, nil, CompileOptions{Batch: BatchOff}))), "tuple path")
				for _, size := range []int{1, 7, 64} {
					opts := CompileOptions{Batch: BatchForce, BatchSize: size}
					check(seqKeys(drainSeq(t, CompileWith(c.node, nil, opts))), "batch path, Next")
					b, ok := CompileWith(c.node, nil, opts).(BatchIterator)
					if !ok {
						t.Fatalf("%s: forced batch compile is not a BatchIterator", c.name)
					}
					check(seqKeys(drainBatchSeq(t, b)), "batch path, NextBatch")
				}
			}
		}
		restore()
	}
}

// TestBatchMatchesTuplePath is the per-operator-pair equivalence
// sweep: for every plan shape, the forced batch path must produce
// exactly what the tuple path produces — the same sequence for
// ordered plans, the same set otherwise — through both drain styles,
// across batch sizes chosen to hit window boundaries (1, a prime
// smaller than most outputs, and the default).
func TestBatchMatchesTuplePath(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		for _, c := range equivPlans(rng) {
			want := seqKeys(drainSeq(t, CompileWith(c.node, nil, CompileOptions{Batch: BatchOff})))
			for _, size := range []int{1, 7, 0} {
				opts := CompileOptions{Batch: BatchForce, BatchSize: size}
				got := seqKeys(drainSeq(t, CompileWith(c.node, nil, opts)))
				check := func(got []string, via string) {
					t.Helper()
					if c.ordered && !sameSeq(got, want) {
						t.Fatalf("trial %d %s (size %d, %s): sequence diverges\ngot  %v\nwant %v",
							trial, c.name, size, via, got, want)
					}
					if !c.ordered && sortedKeys(append([]string(nil), got...)) != sortedKeys(append([]string(nil), want...)) {
						t.Fatalf("trial %d %s (size %d, %s): set diverges\ngot  %v\nwant %v",
							trial, c.name, size, via, got, want)
					}
				}
				check(got, "Next")
				if b, ok := CompileWith(c.node, nil, opts).(BatchIterator); ok {
					check(seqKeys(drainBatchSeq(t, b)), "NextBatch")
				}
			}
		}
	}
}

// TestBatchMatchesTupleUnderForcedCollisions repeats the sweep with
// 3-bit hashes, so every hash-table probe in the batch drains and the
// batch projection dedup runs its collision-verification logic.
func TestBatchMatchesTupleUnderForcedCollisions(t *testing.T) {
	restore := hashkey.SetMaskForTesting(0x7)
	defer restore()
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 15; trial++ {
		// Alternate kinds: even trials probe with single-mix integer
		// hashes, odd trials with the wide string kernel.
		plans := equivPlans(rng)
		if trial%2 == 1 {
			plans = equivPlansGen(rng, randWideRelation)
		}
		for _, c := range plans {
			want := seqKeys(drainSeq(t, CompileWith(c.node, nil, CompileOptions{Batch: BatchOff})))
			got := seqKeys(drainSeq(t, CompileWith(c.node, nil, CompileOptions{Batch: BatchForce, BatchSize: 3})))
			if c.ordered && !sameSeq(got, want) {
				t.Fatalf("trial %d %s: sequence diverges under collisions\ngot  %v\nwant %v",
					trial, c.name, got, want)
			}
			if !c.ordered && sortedKeys(append([]string(nil), got...)) != sortedKeys(append([]string(nil), want...)) {
				t.Fatalf("trial %d %s: set diverges under collisions\ngot  %v\nwant %v",
					trial, c.name, got, want)
			}
		}
	}
}

// TestBatchStatsParity: both paths label operators identically, so a
// compiled plan reports the same per-operator tuple counts whichever
// path ran it.
func TestBatchStatsParity(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	r1 := plan.NewScan("r1", randRelation(rng, []string{"a", "b"}, 50, 6))
	r2 := plan.NewScan("r2", randRelation(rng, []string{"b"}, 3, 6))
	node := &plan.Project{
		Input: &plan.Select{
			Input: &plan.Divide{Dividend: r1, Divisor: r2},
			Pred:  pred.Compare(pred.Attr("a"), pred.Ge, pred.ConstInt(0)),
		},
		Attrs: []string{"a"},
	}
	tupleStats, batchStats := NewStats(), NewStats()
	drainSeq(t, CompileWith(node, tupleStats, CompileOptions{Batch: BatchOff}))
	drainSeq(t, CompileWith(node, batchStats, CompileOptions{Batch: BatchForce}))
	want := tupleStats.Snapshot()
	got := batchStats.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("label sets diverge:\nbatch %v\ntuple %v", got, want)
	}
	for label, n := range want {
		if got[label] != n {
			t.Errorf("stats[%q] = %d on the batch path, %d on the tuple path", label, got[label], n)
		}
	}
}

// TestProjectFullWidthStatsParity: a projection that skips its dedup
// index still counts every row it passes on under its own label, on
// both paths — the plan keeps its nodes, only the copies go.
func TestProjectFullWidthStatsParity(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	rel := randRelation(rng, []string{"a", "b"}, 150, 40)
	r1 := plan.NewScan("r1", rel)
	r2g := plan.NewScan("r2g", randRelation(rng, []string{"b", "c"}, 6, 4))
	quotient := &plan.GreatDivide{Dividend: r1, Divisor: r2g}
	for _, c := range []struct {
		name string
		node plan.Node
		rows int64
	}{
		{"identity over scan", &plan.Project{Input: r1, Attrs: []string{"a", "b"}}, int64(rel.Len())},
		{"permutation over scan", &plan.Project{Input: r1, Attrs: []string{"b", "a"}}, int64(rel.Len())},
		{"identity over quotient", &plan.Project{Input: quotient, Attrs: []string{"a", "c"}}, int64(plan.Eval(quotient).Len())},
		{"permutation over quotient", &plan.Project{Input: quotient, Attrs: []string{"c", "a"}}, int64(plan.Eval(quotient).Len())},
	} {
		tupleStats := NewStats()
		drainSeq(t, CompileWith(c.node, tupleStats, CompileOptions{Batch: BatchOff}))
		want := tupleStats.Snapshot()
		if want["root/project"] != c.rows {
			t.Errorf("%s: tuple path counted %d rows under root/project, want %d", c.name, want["root/project"], c.rows)
		}
		for _, size := range []int{1, 7, 64} {
			batchStats := NewStats()
			drainSeq(t, CompileWith(c.node, batchStats, CompileOptions{Batch: BatchForce, BatchSize: size}))
			got := batchStats.Snapshot()
			if len(got) != len(want) {
				t.Fatalf("%s size %d: label sets diverge:\nbatch %v\ntuple %v", c.name, size, got, want)
			}
			for label, n := range want {
				if got[label] != n {
					t.Errorf("%s size %d: stats[%q] = %d on the batch path, %d on the tuple path", c.name, size, label, got[label], n)
				}
			}
		}
	}
}

// TestBatchMixedNextThenBatch pins the dual-mode shared-cursor
// contract: consuming a few tuples via Next and then switching to
// NextBatch continues from the same cursor without loss or repeats.
func TestBatchMixedNextThenBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	rel := randRelation(rng, []string{"a", "b"}, 100, 25)
	node := plan.NewScan("r", rel)
	want := seqKeys(drainSeq(t, CompileWith(node, nil, CompileOptions{Batch: BatchOff})))

	it := CompileWith(node, nil, CompileOptions{Batch: BatchForce, BatchSize: 8})
	b, ok := it.(BatchIterator)
	if !ok {
		t.Fatalf("forced batch compile of a scan is %T, want a dual-mode BatchIterator", it)
	}
	if err := it.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var got []string
	for i := 0; i < 5; i++ {
		tup, ok, err := it.Next()
		if err != nil || !ok {
			t.Fatalf("Next %d = (%t, %v)", i, ok, err)
		}
		got = append(got, tup.Key())
	}
	for {
		batch, err := b.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if batch == nil {
			break
		}
		got = append(got, seqKeys(batch.Tuples())...)
	}
	if !sameSeq(got, want) {
		t.Fatalf("mixed Next/NextBatch lost or repeated tuples:\ngot  %v\nwant %v", got, want)
	}
}

// TestBatchGoroutineLeaks mirrors TestExchangeGoroutineLeaks for the
// batch surface: the exchange workers behind a parallel division
// must die on every teardown path when the consumer drives NextBatch
// instead of Next.
func TestBatchGoroutineLeaks(t *testing.T) {
	node, _ := streamFixture()
	opts := CompileOptions{ExchangeBuffer: 2, Batch: BatchForce}

	openBatchRoot := func(t *testing.T, ctx context.Context) BatchIterator {
		t.Helper()
		b, ok := CompileWith(node, nil, opts).(BatchIterator)
		if !ok {
			t.Fatal("forced batch compile of a parallel divide must be a BatchIterator")
		}
		if err := b.OpenBatch(ctx); err != nil {
			t.Fatal(err)
		}
		return b
	}

	t.Run("CloseMidStream", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		b := openBatchRoot(t, context.Background())
		for i := 0; i < 3; i++ {
			if batch, err := b.NextBatch(); err != nil || batch == nil {
				t.Fatalf("NextBatch %d = (%v, %v)", i, batch, err)
			}
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, baseline)
	})

	t.Run("CancelMidBatch", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		b := openBatchRoot(t, ctx)
		if batch, err := b.NextBatch(); err != nil || batch == nil {
			t.Fatalf("NextBatch = (%v, %v)", batch, err)
		}
		cancel()
		// Drain to the cancellation error or end of stream; the
		// workers must die either way.
		for {
			batch, err := b.NextBatch()
			if err != nil || batch == nil {
				break
			}
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, baseline)
	})

	t.Run("JoinOverExchangeCloseMidStream", func(t *testing.T) {
		// A hash join probing a batch exchange natively: Close after the
		// first probe batch must kill the workers even though the join's
		// feed still holds a retained exchange window.
		baseline := runtime.NumGoroutine()
		rng := rand.New(rand.NewSource(61))
		join := &plan.Join{Left: node, Right: plan.NewScan("w", randRelation(rng, []string{"a", "c"}, 120, 50))}
		b, ok := CompileWith(join, nil, opts).(BatchIterator)
		if !ok {
			t.Fatal("forced batch compile of join-over-parallel must be a BatchIterator")
		}
		if err := b.OpenBatch(context.Background()); err != nil {
			t.Fatal(err)
		}
		if batch, err := b.NextBatch(); err != nil || batch == nil {
			t.Fatalf("NextBatch = (%v, %v), want a first batch of join matches", batch, err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, baseline)
	})

	t.Run("LimitOverBatchExchange", func(t *testing.T) {
		// The LIMIT early-exit above a batch exchange: the limit closes
		// the subtree after the first batch; no workers may survive,
		// and the served batch must stay intact past the child Close.
		baseline := runtime.NumGoroutine()
		lim := &plan.Limit{Input: node, N: 1}
		b, ok := CompileWith(lim, nil, opts).(BatchIterator)
		if !ok {
			t.Fatal("forced batch compile of limit-over-parallel must be a BatchIterator")
		}
		if err := b.OpenBatch(context.Background()); err != nil {
			t.Fatal(err)
		}
		batch, err := b.NextBatch()
		if err != nil || batch == nil || batch.Len() != 1 {
			t.Fatalf("NextBatch = (%v, %v), want one surviving tuple", batch, err)
		}
		if batch.Tuple(0) == nil {
			t.Fatal("limit served a recycled (nil) tuple after closing its child")
		}
		if batch, err := b.NextBatch(); err != nil || batch != nil {
			t.Fatalf("second NextBatch = (%v, %v), want end of stream", batch, err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, baseline)
	})
}

// TestBatchLimitNoOvershoot pins the row-budget protocol: LIMIT on
// the batch path must not drain a full slab past the limit. Before
// PR 7, LIMIT 1 over a 64-tuple batch scan pulled all 64 rows and
// truncated after the fact; with budgets threaded through NextBatch,
// the child serves a partial window and stops at row N — the same
// consumption the tuple-path LimitIter has always had.
func TestBatchLimitNoOvershoot(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	scan := plan.NewScan("r", randRelation(rng, []string{"a", "b"}, 200, 50))

	t.Run("LimitOneReadsOneRow", func(t *testing.T) {
		for _, size := range []int{1, 7, 0} {
			stats := NewStats()
			out := drainSeq(t, CompileWith(&plan.Limit{Input: scan, N: 1}, stats,
				CompileOptions{Batch: BatchForce, BatchSize: size}))
			if len(out) != 1 {
				t.Fatalf("size %d: LIMIT 1 returned %d tuples", size, len(out))
			}
			if n := stats.Get("root.0/scan(r)"); n != 1 {
				t.Errorf("size %d: scan emitted %d rows under LIMIT 1, want exactly 1", size, n)
			}
		}
	})

	t.Run("LimitOneOverFullWidthProjectReadsOneRow", func(t *testing.T) {
		// The identity projection forwards its child's batches, so it
		// must forward the row budget too; the permutation likewise.
		for _, attrs := range [][]string{{"a", "b"}, {"b", "a"}} {
			node := &plan.Limit{Input: &plan.Project{Input: scan, Attrs: attrs}, N: 1}
			for _, opts := range []CompileOptions{
				{Batch: BatchOff},
				{Batch: BatchForce, BatchSize: 1}, {Batch: BatchForce, BatchSize: 7}, {Batch: BatchForce},
			} {
				stats := NewStats()
				if out := drainSeq(t, CompileWith(node, stats, opts)); len(out) != 1 {
					t.Fatalf("%v %+v: LIMIT 1 returned %d tuples", attrs, opts, len(out))
				}
				if scanned, projected := stats.Get("root.0.0/scan(r)"), stats.Get("root.0/project"); scanned != 1 || projected != 1 {
					t.Errorf("%v %+v: scan emitted %d rows and project %d under LIMIT 1, want exactly 1 each",
						attrs, opts, scanned, projected)
				}
			}
		}
	})

	t.Run("LimitNOverScanReadsNRows", func(t *testing.T) {
		stats := NewStats()
		out := drainSeq(t, CompileWith(&plan.Limit{Input: scan, N: 5}, stats,
			CompileOptions{Batch: BatchForce}))
		if len(out) != 5 {
			t.Fatalf("LIMIT 5 returned %d tuples", len(out))
		}
		if n := stats.Get("root.0/scan(r)"); n != 5 {
			t.Errorf("scan emitted %d rows under LIMIT 5, want exactly 5", n)
		}
	})

	t.Run("StatsMatchTuplePathUnderLimitOne", func(t *testing.T) {
		// With a budget of 1 every window is one row, so child
		// consumption matches the tuple path exactly — even through a
		// selective filter, where larger budgets may legitimately
		// overscan inside the final window.
		p := pred.Compare(pred.Attr("a"), pred.Gt, pred.ConstInt(30))
		node := &plan.Limit{Input: &plan.Select{Input: scan, Pred: p}, N: 1}
		tupleStats := NewStats()
		drainSeq(t, CompileWith(node, tupleStats, CompileOptions{Batch: BatchOff}))
		for _, size := range []int{1, 7, 0} {
			batchStats := NewStats()
			drainSeq(t, CompileWith(node, batchStats, CompileOptions{Batch: BatchForce, BatchSize: size}))
			want, got := tupleStats.Snapshot(), batchStats.Snapshot()
			for label, n := range want {
				if got[label] != n {
					t.Errorf("size %d: stats[%q] = %d on the batch path, %d on the tuple path",
						size, label, got[label], n)
				}
			}
		}
	})

	t.Run("BatchDrainServesTruncatedBatch", func(t *testing.T) {
		// The raw NextBatch surface under LIMIT 1: one single-tuple
		// batch, then end of stream — not a truncated 64-row slab.
		stats := NewStats()
		b, ok := CompileWith(&plan.Limit{Input: scan, N: 1}, stats,
			CompileOptions{Batch: BatchForce}).(BatchIterator)
		if !ok {
			t.Fatal("forced batch compile of a limit must be a BatchIterator")
		}
		out := drainBatchSeq(t, b)
		if len(out) != 1 {
			t.Fatalf("NextBatch drain of LIMIT 1 yielded %d tuples", len(out))
		}
		if n := stats.Get("root.0/scan(r)"); n != 1 {
			t.Errorf("scan emitted %d rows under batch-drained LIMIT 1, want exactly 1", n)
		}
	})
}

package exec

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"testing"

	"divlaws/internal/division"
	"divlaws/internal/hashkey"
	"divlaws/internal/plan"
	"divlaws/internal/pred"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/value"
)

// These tests pin the executor to the reference evaluator: every plan
// shape is compiled across batch sizes chosen to hit window boundaries
// and compared with plan.Eval, which shares no code with this package
// — Sort/TopK-rooted plans by exact sequence, a bare Limit by row
// count plus membership in the unlimited result, everything else by
// set equality. Both surfaces are exercised: the root cursor (Next)
// and the raw operator protocol beneath it (NextBatch).

// drainSeq collects the full output sequence through the root cursor.
func drainSeq(t *testing.T, it *FromBatch) []relation.Tuple {
	t.Helper()
	out, err := drainSeqErr(context.Background(), it)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	return out
}

// drainBatchSeq collects the full output sequence of the root operator
// through NextBatch, copying each batch before the next call (the
// ownership contract: a batch is valid only until the producer's next
// call).
func drainBatchSeq(t *testing.T, it *FromBatch) []relation.Tuple {
	t.Helper()
	if err := it.Open(context.Background()); err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer it.Close()
	var out []relation.Tuple
	for {
		batch, err := it.Input.NextBatch()
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

// equivPlans is the operator matrix: one entry per physical operator,
// plus mixed trees crossing build/probe boundaries (division over a
// join, set ops feeding divisions).
func equivPlans(rng *rand.Rand) []equivPlan {
	return equivPlansGen(rng, randRelation)
}

type equivPlan struct {
	name string
	node plan.Node
	// ordered plans emit in a defined order — that of a sort, a scan or
	// a first-seen dedup — which is also plan.Eval's.
	ordered bool
}

// diverges compares an execution's output with the reference
// evaluator by the rule the plan's shape calls for, returning a
// description of the first difference ("" when they agree).
func (c equivPlan) diverges(out []relation.Tuple) string {
	got := seqKeys(out)
	lim, bare := c.node.(*plan.Limit)
	switch {
	case c.ordered:
		if want := seqKeys(plan.Eval(c.node).Tuples()); !sameSeq(got, want) {
			return fmt.Sprintf("sequence diverges from plan.Eval\ngot  %v\nwant %v", got, want)
		}
	case bare:
		// Which N rows an unordered input yields is the executor's
		// choice: any N distinct rows of the unlimited result are right.
		in := map[string]bool{}
		for _, k := range seqKeys(plan.Eval(lim.Input).Tuples()) {
			in[k] = true
		}
		if want := min(int(lim.N), len(in)); len(got) != want {
			return fmt.Sprintf("LIMIT %d of %d rows returned %d, want %d", lim.N, len(in), len(got), want)
		}
		for _, k := range got {
			if !in[k] {
				return fmt.Sprintf("row %s is repeated or not in the unlimited result", k)
			}
			delete(in, k)
		}
	default:
		if want := seqKeys(plan.Eval(c.node).Tuples()); sortedKeys(got) != sortedKeys(want) {
			return fmt.Sprintf("set diverges from plan.Eval\ngot  %v\nwant %v", got, want)
		}
	}
	return ""
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
	wide := plan.NewScan("wide", gen(rng, []string{"a", "b"}, 100+rng.Intn(100), 12))
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
		// wide overflows the replicated dividend under the 4 KiB spill
		// sweep: the exchange's top-k grace fallback.
		{"topk-over-parallelgreatdivide", &plan.TopK{
			Input: &plan.ParallelGreatDivide{Dividend: wide, Divisor: r2g, Workers: 3},
			Keys:  []plan.SortKey{{Attr: "a"}, {Attr: "c", Desc: true}}, K: 3,
		}, true},
		{"pipeline-over-divide", &plan.Limit{
			Input: &plan.Project{Input: &plan.Select{Input: div, Pred: p}, Attrs: []string{"a"}},
			N:     int64(1 + rng.Intn(6)),
		}, false},
		// The probe-side operators.
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

// checkBothSurfaces runs the plan at batch sizes 1/7/64 through the
// root cursor and through the raw NextBatch surface, failing on the
// first divergence from the reference evaluator.
func (c equivPlan) checkBothSurfaces(t *testing.T, where string) {
	t.Helper()
	for _, size := range []int{1, 7, 64} {
		opts := CompileOptions{BatchSize: size}
		if d := c.diverges(drainSeq(t, CompileWith(c.node, nil, opts))); d != "" {
			t.Fatalf("%s %s (size %d, Next): %s", where, c.name, size, d)
		}
		if d := c.diverges(drainBatchSeq(t, CompileWith(c.node, nil, opts))); d != "" {
			t.Fatalf("%s %s (size %d, NextBatch): %s", where, c.name, size, d)
		}
	}
}

// TestProjectShapesMatchOracle checks the projection shapes against
// the reference evaluator (algebra.Project, which always dedups):
// batch sizes 1/7/64 x both surfaces, with full hashes and with 3-bit
// hashes.
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
				c.checkBothSurfaces(t, fmt.Sprintf("mask %d trial %d", mask, trial))
			}
		}
		restore()
	}
}

// TestBatchMatchesTuplePath is the per-operator equivalence sweep:
// for every plan shape the executor must produce what plan.Eval
// produces, on both surfaces, across batch sizes chosen to hit window
// boundaries (1, a prime smaller than most outputs, and the default).
func TestBatchMatchesTuplePath(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		for _, c := range equivPlans(rng) {
			c.checkBothSurfaces(t, fmt.Sprintf("trial %d", trial))
		}
	}
}

// TestBatchMatchesTupleUnderForcedCollisions repeats the sweep with
// 3-bit hashes, so every hash-table probe in the drains and the
// projection dedup runs its collision-verification logic.
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
			for _, size := range []int{1, 7, 64} {
				if d := c.diverges(drainSeq(t, CompileWith(c.node, nil, CompileOptions{BatchSize: size}))); d != "" {
					t.Fatalf("trial %d %s (size %d) under collisions: %s", trial, c.name, size, d)
				}
			}
		}
	}
}

// statsAcrossSizes drains node at batch sizes 1/7/64 and fails unless
// every run leaves the same per-operator counts, which it returns:
// operators are labelled by plan position and count rows, not
// batches, so the batch size must not show in Stats.
func statsAcrossSizes(t *testing.T, name string, node plan.Node) map[string]int64 {
	t.Helper()
	var want map[string]int64
	for _, size := range []int{1, 7, 64} {
		stats := NewStats()
		drainSeq(t, CompileWith(node, stats, CompileOptions{BatchSize: size}))
		got := stats.Snapshot()
		if want == nil {
			want = got
		} else if !maps.Equal(got, want) {
			t.Fatalf("%s: stats at batch size %d diverge from size 1:\ngot  %v\nwant %v", name, size, got, want)
		}
	}
	return want
}

// TestBatchStatsParity: a fully drained plan reports the same
// per-operator tuple counts whatever the batch size.
func TestBatchStatsParity(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	r1 := plan.NewScan("r1", randRelation(rng, []string{"a", "b"}, 50, 6))
	r2 := plan.NewScan("r2", randRelation(rng, []string{"b"}, 3, 6))
	div := &plan.Divide{Dividend: r1, Divisor: r2}
	node := &plan.Project{
		Input: &plan.Select{
			Input: div,
			Pred:  pred.Compare(pred.Attr("a"), pred.Ge, pred.ConstInt(0)),
		},
		Attrs: []string{"a"},
	}
	got := statsAcrossSizes(t, "project-over-filter-over-divide", node)
	quotient := int64(plan.Eval(div).Len())
	for label, want := range map[string]int64{
		"root.0.0.0/scan(r1)": int64(r1.Rel.Len()),
		"root.0.0.1/scan(r2)": int64(r2.Rel.Len()),
		"root.0.0/hashdivide": quotient,
		"root.0/filter":       quotient,
		"root/project":        quotient,
	} {
		if got[label] != want {
			t.Errorf("stats[%q] = %d, want %d (all: %v)", label, got[label], want, got)
		}
	}
}

// TestProjectFullWidthStatsParity: a projection that skips its dedup
// index still counts every row it passes on under its own label — the
// plan keeps its nodes, only the copies go.
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
		if got := statsAcrossSizes(t, c.name, c.node)["root/project"]; got != c.rows {
			t.Errorf("%s: counted %d rows under root/project, want %d", c.name, got, c.rows)
		}
	}
}

// TestBatchGoroutineLeaks mirrors TestExchangeGoroutineLeaks for the
// operator protocol: the exchange workers behind a parallel division
// must die on every teardown path when the consumer drives NextBatch
// directly instead of the root cursor.
func TestBatchGoroutineLeaks(t *testing.T) {
	node, _ := streamFixture()
	opts := CompileOptions{ExchangeBuffer: 2}

	openBatchRoot := func(t *testing.T, ctx context.Context) BatchIterator {
		t.Helper()
		b := compile(node, nil, "root", opts)
		if err := b.Open(ctx); err != nil {
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
		// A hash join probing an exchange: Close after the first probe
		// batch must kill the workers even though the join still holds
		// a retained exchange window.
		baseline := runtime.NumGoroutine()
		rng := rand.New(rand.NewSource(61))
		join := &plan.Join{Left: node, Right: plan.NewScan("w", randRelation(rng, []string{"a", "c"}, 120, 50))}
		b := compile(join, nil, "root", opts)
		if err := b.Open(context.Background()); err != nil {
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
		// The LIMIT early-exit above an exchange: the limit closes
		// the subtree after the first batch; no workers may survive,
		// and the served batch must stay intact past the child Close.
		baseline := runtime.NumGoroutine()
		lim := &plan.Limit{Input: node, N: 1}
		b := compile(lim, nil, "root", opts)
		if err := b.Open(context.Background()); err != nil {
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

// TestBatchLimitNoOvershoot pins the row-budget protocol: LIMIT must
// not drain a full slab past the limit. Before PR 7, LIMIT 1 over a
// 64-tuple batch scan pulled all 64 rows and truncated after the fact;
// with budgets threaded through NextBatch, the child serves a partial
// window and stops at row N.
func TestBatchLimitNoOvershoot(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	rel := randRelation(rng, []string{"a", "b"}, 200, 50)
	scan := plan.NewScan("r", rel)

	t.Run("LimitOneReadsOneRow", func(t *testing.T) {
		for _, size := range []int{1, 7, 0} {
			stats := NewStats()
			out := drainSeq(t, CompileWith(&plan.Limit{Input: scan, N: 1}, stats,
				CompileOptions{BatchSize: size}))
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
			for _, size := range []int{1, 7, 0} {
				stats := NewStats()
				if out := drainSeq(t, CompileWith(node, stats, CompileOptions{BatchSize: size})); len(out) != 1 {
					t.Fatalf("%v size %d: LIMIT 1 returned %d tuples", attrs, size, len(out))
				}
				if scanned, projected := stats.Get("root.0.0/scan(r)"), stats.Get("root.0/project"); scanned != 1 || projected != 1 {
					t.Errorf("%v size %d: scan emitted %d rows and project %d under LIMIT 1, want exactly 1 each",
						attrs, size, scanned, projected)
				}
			}
		}
	})

	t.Run("LimitNOverScanReadsNRows", func(t *testing.T) {
		stats := NewStats()
		out := drainSeq(t, CompileWith(&plan.Limit{Input: scan, N: 5}, stats, CompileOptions{}))
		if len(out) != 5 {
			t.Fatalf("LIMIT 5 returned %d tuples", len(out))
		}
		if n := stats.Get("root.0/scan(r)"); n != 5 {
			t.Errorf("scan emitted %d rows under LIMIT 5, want exactly 5", n)
		}
	})

	t.Run("StatsMatchTuplePathUnderLimitOne", func(t *testing.T) {
		// With a budget of 1 every window is one row, so the scan stops
		// at the first row the filter passes — what a tuple-at-a-time
		// executor reads — at every batch size, even through a selective
		// filter, where larger budgets may legitimately overscan inside
		// the final window.
		p := pred.Compare(pred.Attr("a"), pred.Gt, pred.ConstInt(30))
		node := &plan.Limit{Input: &plan.Select{Input: scan, Pred: p}, N: 1}
		firstHit := int64(1)
		for _, tup := range rel.Tuples() {
			if p.Eval(tup, rel.Schema()) {
				break
			}
			firstHit++
		}
		want := map[string]int64{"root.0.0/scan(r)": firstHit, "root.0/filter": 1, "root/limit": 1}
		for _, size := range []int{1, 7, 0} {
			stats := NewStats()
			drainSeq(t, CompileWith(node, stats, CompileOptions{BatchSize: size}))
			if got := stats.Snapshot(); !maps.Equal(got, want) {
				t.Errorf("size %d: stats = %v, want %v", size, got, want)
			}
		}
	})

	t.Run("BatchDrainServesTruncatedBatch", func(t *testing.T) {
		// The raw NextBatch surface under LIMIT 1: one single-tuple
		// batch, then end of stream — not a truncated 64-row slab.
		stats := NewStats()
		out := drainBatchSeq(t, CompileWith(&plan.Limit{Input: scan, N: 1}, stats, CompileOptions{}))
		if len(out) != 1 {
			t.Fatalf("NextBatch drain of LIMIT 1 yielded %d tuples", len(out))
		}
		if n := stats.Get("root.0/scan(r)"); n != 1 {
			t.Errorf("scan emitted %d rows under batch-drained LIMIT 1, want exactly 1", n)
		}
	})
}

// TestRootCursorReadAhead pins what the root cursor costs an early
// exit: Next pulls one batch of the root operator's output, so a plan
// rooted at a streaming join reads its probe side ahead by at most one
// batch (every probe row here has exactly one partner, so one probe
// batch fills one output batch), while a LIMIT on top still bounds the
// pull to the rows it needs through the row budget.
func TestRootCursorReadAhead(t *testing.T) {
	probe := relation.New(schema.New("a", "b"))
	for i := int64(0); i < 1000; i++ {
		probe.Insert(relation.Tuple{value.Int(i), value.Int(i % 8)})
	}
	build := relation.New(schema.New("b", "c"))
	for i := int64(0); i < 8; i++ {
		build.Insert(relation.Tuple{value.Int(i), value.Int(-i)})
	}
	join := &plan.Join{Left: plan.NewScan("probe", probe), Right: plan.NewScan("build", build)}
	opts := CompileOptions{BatchSize: 64}

	baseline := runtime.NumGoroutine()
	stats := NewStats()
	it := CompileWith(join, stats, opts)
	if err := it.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := it.Next(); err != nil || !ok {
		t.Fatalf("Next = (%t, %v)", ok, err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if n := stats.Get("root.0/scan(probe)"); n < 1 || n > 64 {
		t.Errorf("one Next over a join read %d probe rows, want between 1 and one batch (64)", n)
	}
	waitGoroutines(t, baseline)

	stats = NewStats()
	if out := drainSeq(t, CompileWith(&plan.Limit{Input: join, N: 1}, stats, opts)); len(out) != 1 {
		t.Fatalf("LIMIT 1 returned %d tuples", len(out))
	}
	if n := stats.Get("root.0.0/scan(probe)"); n != 1 {
		t.Errorf("LIMIT 1 over a join read %d probe rows, want exactly 1", n)
	}
}

package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"divlaws/internal/agg"
	"divlaws/internal/datagen"
	"divlaws/internal/hashkey"
	"divlaws/internal/plan"
	"divlaws/internal/pred"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/spill"
)

// These tests pin the out-of-core invariant: execution under a memory
// budget is an exact drop-in for unlimited execution. Every plan
// shape from the equivalence matrix is compiled under budgets small
// enough to force sorts into external merge runs and the hash
// operators into grace partitioning, and compared with the reference
// evaluator by the same rules as the unlimited sweep (see
// equivPlan.diverges). Teardown hygiene (no leaked runs, no
// leaked goroutines) and fault injection (spill write/read failures
// surfacing as query errors) ride the same fixtures.

// drainSeqErr is drainSeq without the t.Fatal on pipeline errors,
// for paths where an error is the expected outcome. The root cursor's
// tuple is borrowed — valid only until the next Next or Close — so
// every tuple kept is cloned.
func drainSeqErr(ctx context.Context, it *FromBatch) ([]relation.Tuple, error) {
	if err := it.Open(ctx); err != nil {
		it.Close()
		return nil, err
	}
	defer it.Close()
	var out []relation.Tuple
	for {
		tup, ok, err := it.Next()
		if err != nil {
			return out, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, tup.Clone())
	}
}

// TestSpillMatchesUnlimited is the equivalence sweep: every plan
// shape, drained under budgets that force out-of-core execution, must
// produce what the reference evaluator produces — the same sequence
// for ordered plans (external merge preserves the canonical tie-broken
// sort order), the same set otherwise — at a batch size that splits
// the outputs and at the default.
func TestSpillMatchesUnlimited(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	var totalSpilled int64
	spilledAt4K := map[string]int64{}
	for trial := 0; trial < 10; trial++ {
		for _, c := range equivPlans(rng) {
			for _, budget := range []int64{4 << 10, 32 << 10} {
				for _, size := range []int{7, 0} {
					tr := spill.NewTracker(budget)
					out := drainSeq(t, CompileWith(c.node, nil, CompileOptions{BatchSize: size, Spill: tr}))
					totalSpilled += tr.Snapshot().Spilled
					if budget == 4<<10 {
						spilledAt4K[c.name] += tr.Snapshot().Spilled
					}
					if n := tr.LiveRuns(); n != 0 {
						t.Errorf("trial %d %s (budget %d): %d runs leaked", trial, c.name, budget, n)
					}
					tr.Close()
					if d := c.diverges(out); d != "" {
						t.Fatalf("trial %d %s (budget %d, size %d): %s", trial, c.name, budget, size, d)
					}
				}
			}
		}
	}
	if totalSpilled == 0 {
		t.Fatal("no plan in the sweep ever spilled — the budgets are not forcing out-of-core execution")
	}
	for _, name := range []string{"semijoin-spill", "antisemijoin-spill", "intersect-spill", "diff-spill", "group-spill"} {
		if spilledAt4K[name] == 0 {
			t.Errorf("%s never spilled under 4 KiB", name)
		}
	}
}

// TestSpillBudgetSweep runs every shape of the equivalence matrix
// through budgets from 64 B to 24 KiB in ~12% steps at batch size 7,
// with the hash tables' collision mask off and narrowed. A run may
// fail only with a typed spill.ErrBudget (one key group, or the ÷
// divisor, larger than the budget); otherwise it must match
// plan.Eval. Either way no run may outlive the query and the tracked
// peak may not exceed the budget. Under -short it runs two seeds at
// masks off and 3-bit; the full form runs six seeds and adds a 1-bit
// mask.
func TestSpillBudgetSweep(t *testing.T) {
	seeds, masks := 6, []uint64{0, 0x7, 0x1}
	if testing.Short() {
		seeds, masks = 2, masks[:2]
	}
	var runs, spilled, refused int
	defer hashkey.SetMaskForTesting(0)() // the caller's mask again, even after a Fatal
	for _, mask := range masks {
		hashkey.SetMaskForTesting(mask)
		for seed := 1; seed <= seeds; seed++ {
			for _, c := range equivPlans(rand.New(rand.NewSource(int64(seed)))) {
				for b := 64.0; b <= 24<<10; b *= 1.12 {
					budget := int64(b)
					tr := spill.NewTracker(budget)
					out, err := drainSeqErr(context.Background(), CompileWith(c.node, nil, CompileOptions{BatchSize: 7, Spill: tr}))
					st := tr.Snapshot()
					leaked := tr.LiveRuns()
					tr.Close()
					runs++
					where := fmt.Sprintf("mask %#x seed %d %s (budget %d)", mask, seed, c.name, budget)
					if leaked != 0 {
						t.Errorf("%s: %d runs leaked", where, leaked)
					}
					if st.Peak > budget {
						t.Errorf("%s: tracked peak %d exceeds the budget", where, st.Peak)
					}
					switch {
					case errors.Is(err, spill.ErrBudget):
						refused++
					case err != nil:
						t.Fatalf("%s: %v", where, err)
					default:
						if st.Spilled > 0 {
							spilled++
						}
						if d := c.diverges(out); d != "" {
							t.Fatalf("%s: %s", where, d)
						}
					}
				}
			}
		}
	}
	t.Logf("%d runs: %d spilled, %d refused with spill.ErrBudget", runs, spilled, refused)
	if spilled == 0 {
		t.Fatal("no run spilled: the budgets are not forcing out-of-core execution")
	}
}

// TestSpillReadModesUnderForcedCollisions runs the four consumers of
// spilled runs — division states and repartitioning on borrowed
// tuples, the join's borrowed probe and owned build side, the sort's
// owned merge heads — on string-keyed inputs under 3-bit hashes, which
// also squeeze the readers' string caches into colliding slots.
// Each must still equal the reference evaluator: a borrowed tuple that
// leaked into retained state, or a cache slot trusted without
// comparing bytes, would show here.
func TestSpillReadModesUnderForcedCollisions(t *testing.T) {
	defer hashkey.SetMaskForTesting(0x7)()
	rng := rand.New(rand.NewSource(89))
	r1 := plan.NewScan("r1", randWideRelation(rng, []string{"a", "b"}, 900, 3))
	r2 := plan.NewScan("r2", randWideRelation(rng, []string{"b"}, 2, 3))
	r2g := plan.NewScan("r2g", randWideRelation(rng, []string{"b", "c"}, 12, 3))
	for _, c := range []equivPlan{
		{"divide", &plan.Divide{Dividend: r1, Divisor: r2}, false},
		{"greatdivide", &plan.GreatDivide{Dividend: r1, Divisor: r2g}, false},
		{"join", &plan.Join{Left: r2g, Right: r1}, false},
		{"sort", &plan.Sort{Input: r1, Keys: []plan.SortKey{{Attr: "b"}, {Attr: "a", Desc: true}}}, true},
	} {
		if plan.Eval(c.node).Empty() {
			t.Fatalf("%s: the fixture's result is empty", c.name)
		}
		for _, size := range []int{7, 0} {
			tr := spill.NewTracker(8 << 10)
			out := drainSeq(t, CompileWith(c.node, nil, CompileOptions{BatchSize: size, Spill: tr}))
			st := tr.Snapshot()
			tr.Close()
			if st.Spilled == 0 {
				t.Fatalf("%s: the fixture did not spill", c.name)
			}
			if st.Used != 0 {
				t.Errorf("%s: %d bytes still charged after Close", c.name, st.Used)
			}
			if d := c.diverges(out); d != "" {
				t.Fatalf("%s (size %d): budgeted result under forced collisions: %s", c.name, size, d)
			}
		}
	}
}

// spillAcceptanceData builds a dividend whose in-memory footprint is
// more than 10x the 1MB acceptance budget.
func spillAcceptanceData() (r1, r2 *relation.Relation) {
	r1, r2 = datagen.DividePair{
		Groups: 30000, GroupSize: 5, DivisorSize: 5,
		Domain: 40, HitRate: 0.9, Seed: 21,
	}.Generate()
	return r1, r2
}

// TestSpillAcceptanceOneMegabyte is the issue's acceptance check:
// with a 1MB budget, a sort and a hash division whose working set is
// more than 10x the budget complete with results identical to
// unlimited execution, the charged high-water mark never exceeds the
// budget, and the spill volume is the working set, not a token.
func TestSpillAcceptanceOneMegabyte(t *testing.T) {
	const budget = 1 << 20
	r1, r2 := spillAcceptanceData()
	var working int64
	for _, tup := range r1.Tuples() {
		working += tup.Footprint()
	}
	if working < 10*budget {
		t.Fatalf("fixture working set %d bytes, need > %d", working, 10*budget)
	}
	r1s := plan.NewScan("r1", r1)
	for _, c := range []equivPlan{
		{"sort", &plan.Sort{Input: r1s, Keys: []plan.SortKey{{Attr: "b"}, {Attr: "a", Desc: true}}}, true},
		{"divide", &plan.Divide{Dividend: r1s, Divisor: plan.NewScan("r2", r2)}, false},
	} {
		tr := spill.NewTracker(budget)
		out := drainSeq(t, CompileWith(c.node, nil, CompileOptions{Spill: tr}))
		st := tr.Snapshot()
		tr.Close()
		if d := c.diverges(out); d != "" {
			t.Fatalf("%s: budgeted result: %.200s", c.name, d)
		}
		if st.Peak > budget {
			t.Errorf("%s: charged peak %d exceeds the %d budget", c.name, st.Peak, budget)
		}
		// Spilled counts encoded on-disk bytes (varint-packed, several
		// times smaller than the in-memory footprint); many multiples
		// of the budget still proves the bulk of the input went out of
		// core rather than a token run.
		if st.Spilled < 2*budget {
			t.Errorf("%s: only %d bytes spilled for a %d-byte working set", c.name, st.Spilled, working)
		}
	}
}

// TestSpillTempFileHygiene asserts the leak invariant on every
// teardown path: after a full drain, an early Close, or a mid-merge
// cancellation, no run is left open, and the temp dir holds no entry
// while the query spills or after it is torn down — the spill file is
// unlinked as soon as it is made.
func TestSpillTempFileHygiene(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	noEntries := func(t *testing.T, when string) {
		t.Helper()
		ents, err := os.ReadDir(tmp)
		if err != nil {
			t.Fatalf("temp dir unreadable: %v", err)
		}
		if len(ents) != 0 {
			t.Errorf("%s: %d entries in the temp dir, want none", when, len(ents))
		}
	}
	rng := rand.New(rand.NewSource(71))
	rel := randRelation(rng, []string{"a", "b"}, 2000, 500)
	node := &plan.Sort{Input: plan.NewScan("r", rel), Keys: []plan.SortKey{{Attr: "a"}}}
	hashes := hashShapes(rng, rel)
	const budget = 8 << 10

	check := func(t *testing.T, tr *spill.Tracker) {
		t.Helper()
		if n := tr.LiveRuns(); n != 0 {
			t.Errorf("%d runs still open", n)
		}
		noEntries(t, "after the plan closed")
		if err := tr.Close(); err != nil {
			t.Errorf("tracker Close: %v", err)
		}
		noEntries(t, "after tracker Close")
	}

	t.Run("FullDrain", func(t *testing.T) {
		tr := spill.NewTracker(budget)
		out, err := drainSeqErr(context.Background(), CompileWith(node, nil, CompileOptions{Spill: tr}))
		if err != nil || len(out) != rel.Len() {
			t.Fatalf("drain = (%d rows, %v), want %d", len(out), err, rel.Len())
		}
		if tr.Snapshot().Spilled == 0 {
			t.Fatal("fixture did not spill")
		}
		check(t, tr)
	})

	t.Run("CloseMidStream", func(t *testing.T) {
		tr := spill.NewTracker(budget)
		it := CompileWith(node, nil, CompileOptions{Spill: tr})
		if err := it.Open(context.Background()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if _, ok, err := it.Next(); !ok || err != nil {
				t.Fatalf("Next %d = (%t, %v)", i, ok, err)
			}
		}
		if tr.Snapshot().Spilled == 0 {
			t.Fatal("fixture did not spill")
		}
		noEntries(t, "mid-merge")
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		check(t, tr)
	})

	t.Run("CancelMidMerge", func(t *testing.T) {
		tr := spill.NewTracker(budget)
		it := CompileWith(node, nil, CompileOptions{Spill: tr})
		ctx, cancel := context.WithCancel(context.Background())
		if err := it.Open(ctx); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := it.Next(); !ok || err != nil {
			t.Fatalf("first Next = (%t, %v)", ok, err)
		}
		noEntries(t, "mid-merge")
		cancel()
		// The merge polls the context every Every tuples; it must stop
		// with the cancellation error, not run to completion.
		var err error
		for i := 0; i < rel.Len(); i++ {
			var ok bool
			if _, ok, err = it.Next(); err != nil || !ok {
				break
			}
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled merge ended with %v, want context.Canceled", err)
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		check(t, tr)
	})

	for _, c := range hashes {
		t.Run(c.name+"CloseMidStream", func(t *testing.T) {
			tr := spill.NewTracker(budget)
			it := CompileWith(c.node, nil, CompileOptions{Spill: tr})
			if err := it.Open(context.Background()); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if _, ok, err := it.Next(); !ok || err != nil {
					t.Fatalf("Next %d = (%t, %v)", i, ok, err)
				}
			}
			if tr.Snapshot().Spilled == 0 {
				t.Fatal("fixture did not spill")
			}
			noEntries(t, "mid-spill")
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
			check(t, tr)
		})

		t.Run(c.name+"CancelMidProbe", func(t *testing.T) {
			// Cancelled between the first spilled partition pair's output
			// and the rest: the probe and the later pairs' builds poll the
			// context, so the drain must stop with the cancellation error.
			tr := spill.NewTracker(budget)
			it := CompileWith(c.node, nil, CompileOptions{Spill: tr})
			ctx, cancel := context.WithCancel(context.Background())
			if err := it.Open(ctx); err != nil {
				t.Fatal(err)
			}
			if _, ok, err := it.Next(); !ok || err != nil {
				t.Fatalf("first Next = (%t, %v)", ok, err)
			}
			if tr.Snapshot().Spilled == 0 {
				t.Fatal("fixture did not spill")
			}
			noEntries(t, "mid-spill")
			cancel()
			var err error
			for {
				var ok bool
				if _, ok, err = it.Next(); err != nil || !ok {
					break
				}
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled %s ended with %v, want context.Canceled", c.name, err)
			}
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
			check(t, tr)
		})
	}

	t.Run("GraceDivideWorkerError", func(t *testing.T) {
		// A budgeted parallel divide that overflows into the inline
		// grace fallback, then cancelled mid-output: runs and
		// exchange goroutines must both die.
		baseline := runtime.NumGoroutine()
		fixture, _ := streamFixture()
		tr := spill.NewTracker(16 << 10)
		it := CompileWith(fixture, nil, CompileOptions{Spill: tr})
		ctx, cancel := context.WithCancel(context.Background())
		if err := it.Open(ctx); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := it.Next(); !ok || err != nil {
			t.Fatalf("first Next = (%t, %v)", ok, err)
		}
		noEntries(t, "mid-spill")
		cancel()
		for {
			if _, ok, err := it.Next(); err != nil || !ok {
				break
			}
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		check(t, tr)
		waitGoroutines(t, baseline)
	})
}

// TestSpillBudgetedExchangeTeardown mirrors the exchange leak tests
// for the budgeted partitioned path (budget large enough that the
// exchange runs partitioned, with its inputs charged): workers must
// die and charges drain on every teardown path.
func TestSpillBudgetedExchangeTeardown(t *testing.T) {
	fixture, quotientLen := streamFixture()
	const budget = 8 << 20 // roomy: the partitioned exchange, not the fallback

	t.Run("FullDrain", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		tr := spill.NewTracker(budget)
		out, err := drainSeqErr(context.Background(), CompileWith(fixture, nil, CompileOptions{Spill: tr}))
		if err != nil || len(out) != quotientLen {
			t.Fatalf("drain = (%d rows, %v), want %d", len(out), err, quotientLen)
		}
		if st := tr.Snapshot(); st.Used != 0 {
			t.Errorf("%d bytes still charged after Close", st.Used)
		}
		tr.Close()
		waitGoroutines(t, baseline)
	})

	t.Run("CloseMidStream", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		tr := spill.NewTracker(budget)
		it := CompileWith(fixture, nil, CompileOptions{Spill: tr})
		if err := it.Open(context.Background()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, ok, err := it.Next(); !ok || err != nil {
				t.Fatalf("Next %d = (%t, %v)", i, ok, err)
			}
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		if st := tr.Snapshot(); st.Used != 0 {
			t.Errorf("%d bytes still charged after Close", st.Used)
		}
		tr.Close()
		waitGoroutines(t, baseline)
	})
}

// TestSpillIOErrorsSurface injects temp-file write and read failures
// and asserts they surface as query errors wrapping spill.ErrIO — on
// the operator that spilled, promptly, never as a hang or a panic —
// and that teardown still leaves no run behind.
func TestSpillIOErrorsSurface(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	rel := randRelation(rng, []string{"a", "b"}, 2000, 500)
	sortNode := &plan.Sort{Input: plan.NewScan("r", rel), Keys: []plan.SortKey{{Attr: "a"}}}
	divNode := &plan.Divide{
		Dividend: plan.NewScan("r1", rel),
		Divisor:  plan.NewScan("r2", randRelation(rng, []string{"b"}, 2, 500)),
	}
	hashes := hashShapes(rng, rel)
	const budget = 8 << 10

	expectIO := func(t *testing.T, node plan.Node, arm func(*spill.Tracker)) {
		t.Helper()
		tr := spill.NewTracker(budget)
		arm(tr)
		_, err := drainSeqErr(context.Background(), CompileWith(node, nil, CompileOptions{Spill: tr}))
		if !errors.Is(err, spill.ErrIO) {
			t.Fatalf("injected spill I/O fault surfaced as %v, want spill.ErrIO", err)
		}
		if n := tr.LiveRuns(); n != 0 {
			t.Errorf("%d runs leaked after the injected failure", n)
		}
		tr.Close()
	}

	t.Run("SortWriteFails", func(t *testing.T) {
		expectIO(t, sortNode, func(tr *spill.Tracker) { tr.FailWriteAfter(10) })
	})
	t.Run("SortReadFails", func(t *testing.T) {
		expectIO(t, sortNode, func(tr *spill.Tracker) { tr.FailReadAfter(10) })
	})
	t.Run("DivideWriteFails", func(t *testing.T) {
		expectIO(t, divNode, func(tr *spill.Tracker) { tr.FailWriteAfter(10) })
	})
	t.Run("DivideReadFails", func(t *testing.T) {
		expectIO(t, divNode, func(tr *spill.Tracker) { tr.FailReadAfter(10) })
	})
	for _, c := range hashes {
		t.Run(c.name+"WriteFails", func(t *testing.T) {
			expectIO(t, c.node, func(tr *spill.Tracker) { tr.FailWriteAfter(10) })
		})
		t.Run(c.name+"ReadFails", func(t *testing.T) {
			expectIO(t, c.node, func(tr *spill.Tracker) { tr.FailReadAfter(10) })
		})
	}
}

// hashShapes is the hash family over a spill fixture r over (a, b),
// named as the fault and hygiene subtests are: ⋈, ⋉ and ▷ build on a
// random s over (b, c), ∩ and − on every other row of r, and γ groups
// r on a. Each build, and the group's table, is larger than 8 KiB.
func hashShapes(rng *rand.Rand, r *relation.Relation) []equivPlan {
	rs := plan.NewScan("r", r)
	s := plan.NewScan("s", randRelation(rng, []string{"b", "c"}, r.Len(), 500))
	half := relation.New(r.Schema())
	for i, t := range r.Tuples() {
		if i%2 == 0 {
			half.Insert(t)
		}
	}
	hs := plan.NewScan("half", half)
	return []equivPlan{
		{"Join", &plan.Join{Left: rs, Right: s}, false},
		{"SemiJoin", &plan.SemiJoin{Left: rs, Right: s}, false},
		{"AntiSemiJoin", &plan.AntiSemiJoin{Left: rs, Right: s}, false},
		{"Intersect", plan.Intersect(rs, hs), false},
		{"Diff", plan.Diff(rs, hs), false},
		{"Group", &plan.Group{Input: rs, By: []string{"a"}, Aggs: []agg.AggSpec{
			{Func: agg.Count, As: "n"}, {Func: agg.Sum, Attr: "b", As: "sum"},
		}}, false},
	}
}

// TestSpillBudgetErrorTyped: a budget below the irreducible state
// must fail with an error wrapping spill.ErrBudget, never succeed
// quietly or hang. For the division that state is the divisor itself;
// for the hash family it is one key group larger than the budget,
// which no split can separate. γ fails at its first refusal without a
// partitioning pass; the join family partitions once, since only the
// probe side tells whether the key matters, and fails at the pair
// whose probe run holds it (see TestSpillOversizedKeyAbsentFromProbe).
func TestSpillBudgetErrorTyped(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	divNode := &plan.Divide{
		Dividend: plan.NewScan("r1", randRelation(rng, []string{"a", "b"}, 500, 50)),
		Divisor:  plan.NewScan("r2", randRelation(rng, []string{"b"}, 4, 50)),
	}
	oneKey := make([][]int64, 1000)
	for i := range oneKey {
		oneKey[i] = []int64{1, int64(i)}
	}
	joinNode := &plan.Join{
		Left:  plan.NewScan("l", relation.Ints([]string{"a", "b"}, [][]int64{{0, 1}, {1, 1}, {2, 2}})),
		Right: plan.NewScan("r", relation.Ints([]string{"b", "c"}, oneKey)),
	}
	// A semi mode indexes each key once, so its irreducible state is one
	// key larger than the budget, present on both sides.
	big := strings.Repeat("k", 16<<10)
	probe := plan.NewScan("l", relation.FromRows(schema.New("a", "b"), [][]any{{"x", big}, {"y", "z"}}))
	build := plan.NewScan("r", relation.FromRows(schema.New("b", "c"), [][]any{{big, "w"}}))
	bigKey := plan.NewScan("k", relation.FromRows(schema.New("b"), [][]any{{big}}))
	bigGroup := &plan.Group{Input: probe, By: []string{"b"}, Aggs: []agg.AggSpec{{Func: agg.Count, As: "n"}}}
	for _, c := range []struct {
		name   string
		node   plan.Node
		budget int64
		// splits is the partitioning passes before the error: none
		// beyond the join family's first, since splitting never shrinks
		// the divisor or one key group.
		splits int64
	}{
		{"divide", divNode, 64, 0},
		{"join", joinNode, 8 << 10, 1},
		{"semijoin", &plan.SemiJoin{Left: probe, Right: build}, 8 << 10, 1},
		{"antisemijoin", &plan.AntiSemiJoin{Left: probe, Right: build}, 8 << 10, 1},
		{"intersect", plan.Intersect(bigKey, bigKey), 8 << 10, 1},
		{"diff", plan.Diff(bigKey, bigKey), 8 << 10, 1},
		{"group", bigGroup, 8 << 10, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr := spill.NewTracker(c.budget)
			defer tr.Close()
			_, err := drainSeqErr(context.Background(), CompileWith(c.node, nil, CompileOptions{Spill: tr}))
			if !errors.Is(err, spill.ErrBudget) {
				t.Fatalf("%d-byte budget produced %v, want spill.ErrBudget", c.budget, err)
			}
			if n := tr.Snapshot().Partitions; n != c.splits {
				t.Errorf("%d partitioning passes before the budget error, want %d", n, c.splits)
			}
			if n := tr.LiveRuns(); n != 0 {
				t.Errorf("%d runs leaked after the budget error", n)
			}
		})
	}
}

// TestSpillOversizedKeyAbsentFromProbe: a build key whose rows alone
// exceed the budget matches nothing when no probe row holds it, so
// every mode of the hash join family must still return the unlimited
// result under that budget, after partitioning: when the key shares its
// partition with keys that do match, and when the probe side is empty.
func TestSpillOversizedKeyAbsentFromProbe(t *testing.T) {
	// Ints, for the join: key b = 1 has 1,000 build rows, b = 2..59 one
	// each, and the probe side holds b = 2..119 but not 1.
	var build, probe [][]int64
	for i := 0; i < 1000; i++ {
		build = append(build, []int64{1, int64(i)})
	}
	for k := 2; k < 60; k++ {
		build = append(build, []int64{int64(k), -1})
	}
	for k := 2; k < 120; k++ {
		probe = append(probe, []int64{int64(k % 7), int64(k)})
	}
	r := plan.NewScan("r", relation.Ints([]string{"b", "c"}, build))
	l := plan.NewScan("l", relation.Ints([]string{"a", "b"}, probe))
	empty := plan.NewScan("e", relation.Ints([]string{"a", "b"}, nil))
	// Strings, for every mode (a semi mode keeps each key once): one
	// 16 KiB key on the build side only, beside 40 small keys of which
	// the probe side holds every other one.
	big := strings.Repeat("k", 16<<10)
	keys, rows, sbuild := [][]any{{big}}, [][]any{}, [][]any{{big, "w"}}
	for k := 0; k < 80; k++ {
		if k < 40 {
			keys = append(keys, []any{fmt.Sprint("s", k)})
			sbuild = append(sbuild, []any{fmt.Sprint("s", k), "w"})
		}
		if k%2 == 0 {
			rows = append(rows, []any{fmt.Sprint("s", k)})
		}
	}
	sr := plan.NewScan("sr", relation.FromRows(schema.New("b", "c"), sbuild))
	sl := plan.NewScan("sl", relation.FromRows(schema.New("b"), rows))
	sk := plan.NewScan("sk", relation.FromRows(schema.New("b"), keys))
	sEmpty := plan.NewScan("se", relation.FromRows(schema.New("b"), nil))
	for _, c := range []equivPlan{
		{"join", &plan.Join{Left: l, Right: r}, false},
		{"join-empty-probe", &plan.Join{Left: empty, Right: r}, false},
		{"string-join", &plan.Join{Left: sl, Right: sr}, false},
		{"string-semijoin", &plan.SemiJoin{Left: sl, Right: sr}, false},
		{"string-antisemijoin", &plan.AntiSemiJoin{Left: sl, Right: sr}, false},
		{"string-antisemijoin-empty-probe", &plan.AntiSemiJoin{Left: sEmpty, Right: sr}, false},
		{"intersect", plan.Intersect(sl, sk), false},
		{"diff", plan.Diff(sl, sk), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			const budget = 8 << 10
			tr := spill.NewTracker(budget)
			defer tr.Close()
			out, err := drainSeqErr(context.Background(), CompileWith(c.node, nil, CompileOptions{BatchSize: 7, Spill: tr}))
			if err != nil {
				t.Fatalf("%d-byte budget: %v", budget, err)
			}
			if d := c.diverges(out); d != "" {
				t.Fatal(d)
			}
			st := tr.Snapshot()
			if st.Partitions == 0 {
				t.Error("the oversized key never made the build partition")
			}
			if st.Peak > budget {
				t.Errorf("tracked peak %d exceeds the budget", st.Peak)
			}
			if n := tr.LiveRuns(); n != 0 {
				t.Errorf("%d runs leaked", n)
			}
		})
	}
}

// TestSortHalvesOnlyOverBudgetedProducers: compile caps a budgeted
// sort's buffer at half the budget exactly when its input holds an
// operator that charges the budget for its own state, so a sort over a
// scan or a union keeps the whole budget, and nothing is capped
// unbudgeted.
func TestSortHalvesOnlyOverBudgetedProducers(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	r := plan.NewScan("r", randRelation(rng, []string{"a", "b"}, 20, 6))
	s := plan.NewScan("s", randRelation(rng, []string{"b", "c"}, 20, 6))
	c := plan.NewScan("c", randRelation(rng, []string{"c"}, 3, 6))
	tr := spill.NewTracker(64 << 10)
	defer tr.Close()
	for _, in := range []struct {
		name  string
		input plan.Node
		half  bool
	}{
		{"scan", r, false},
		{"union", plan.Union(r, r), false},
		{"product", &plan.Join{Left: r, Right: c}, false},
		{"join", &plan.Join{Left: r, Right: s}, true},
		{"diff", plan.Diff(r, r), true},
		{"divide-under-filter", &plan.Select{
			Input: &plan.Divide{Dividend: r, Divisor: plan.NewScan("d", randRelation(rng, []string{"b"}, 2, 6))},
			Pred:  pred.Compare(pred.Attr("a"), pred.Gt, pred.ConstInt(0)),
		}, true},
		{"group", &plan.Group{Input: r, By: []string{"a"}}, true},
	} {
		node := &plan.Sort{Input: in.input, Keys: []plan.SortKey{{Attr: in.input.Schema().Attrs()[0]}}}
		if got := compile(node, nil, "root", CompileOptions{Spill: tr}, true).(*SortIter).half; got != in.half {
			t.Errorf("sort over %s: half = %t under a budget, want %t", in.name, got, in.half)
		}
		if compile(node, nil, "root", CompileOptions{}, true).(*SortIter).half {
			t.Errorf("sort over %s: half set without a budget", in.name)
		}
	}
}

// TestSpillOwnedTrackerClosedByRoot: when CompileWith builds the
// tracker itself (MemoryLimit set, no caller tracker), the root
// cursor's Close must remove the temp directory — the caller never
// sees the tracker, so nobody else can.
func TestSpillOwnedTrackerClosedByRoot(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	rel := randRelation(rng, []string{"a", "b"}, 2000, 500)
	node := &plan.Sort{Input: plan.NewScan("r", rel), Keys: []plan.SortKey{{Attr: "a"}}}
	it := CompileWith(node, nil, CompileOptions{MemoryLimit: 8 << 10})
	if err := it.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := it.Next(); !ok || err != nil {
		t.Fatalf("Next = (%t, %v)", ok, err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	// The tracker is unreachable; the observable invariant is that no
	// divlaws spill directory accumulates entries. Weak but honest:
	// Close is also exercised with a visible tracker in
	// TestSpillTempFileHygiene; here we assert Close is idempotent
	// with an owned tracker.
	if err := it.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// BenchmarkSpillPeakAlloc reports the live-heap high-water mark of a
// budgeted external sort over a working set ~13x its 1MB budget,
// alongside the run time. The charged peak is asserted (≤ budget) in
// TestSpillAcceptanceOneMegabyte; here the benchmark surfaces what
// the Go heap actually does — sampled post-GC, so the number is live
// bytes, not allocation churn.
func BenchmarkSpillPeakAlloc(b *testing.B) {
	r1, _ := spillAcceptanceData()
	node := &plan.Sort{Input: plan.NewScan("r1", r1), Keys: []plan.SortKey{{Attr: "b"}}}
	const budget = 1 << 20
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	var peak uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := CompileWith(node, nil, CompileOptions{MemoryLimit: budget})
		if err := it.Open(context.Background()); err != nil {
			b.Fatal(err)
		}
		rows := 0
		for {
			_, ok, err := it.Next()
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
			rows++
			if rows%50000 == 0 {
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				if d := ms.HeapAlloc - base.HeapAlloc; ms.HeapAlloc > base.HeapAlloc && d > peak {
					peak = d
				}
			}
		}
		it.Close()
	}
	b.StopTimer()
	b.ReportMetric(float64(peak), "peak-heap-B")
	b.ReportMetric(float64(budget), "budget-B")
}

// TestBudgetedJoinBuildAllocs: a hash join whose build side fits
// indexes each build row without a heap allocation of its own, budgeted
// or not, so ten times the build rows over the same eight keys cost
// only the slice and slab growth — not one allocation per row.
func TestBudgetedJoinBuildAllocs(t *testing.T) {
	for _, in := range []struct {
		name  string
		limit int64 // passed as a tracker when positive, else as MemoryLimit
	}{
		{"budgeted", 64 << 20},
		{"unbudgeted", -1},
	} {
		t.Run(in.name, func(t *testing.T) {
			allocs := func(n int) float64 {
				rows := make([][]int64, n)
				for i := range rows {
					rows[i] = []int64{int64(i % 8), int64(i)}
				}
				node := &plan.Join{
					Left:  plan.NewScan("probe", relation.Ints([]string{"k", "x"}, [][]int64{{99, 0}})),
					Right: plan.NewScan("build", relation.Ints([]string{"k", "p"}, rows)),
				}
				opts := CompileOptions{MemoryLimit: in.limit}
				if in.limit > 0 {
					tr := spill.NewTracker(in.limit)
					defer tr.Close()
					opts = CompileOptions{Spill: tr}
				}
				return testing.AllocsPerRun(3, func() {
					if _, err := Drain(context.Background(), CompileWith(node, nil, opts)); err != nil {
						t.Fatal(err)
					}
				})
			}
			small, large := allocs(1000), allocs(10000)
			t.Logf("1k -> 10k build rows: %.0f -> %.0f allocations", small, large)
			if grew := large - small; grew > 200 {
				t.Errorf("1k -> 10k build rows adds %.0f allocations, want at most 200", grew)
			}
		})
	}
}

// TestSpilledJoinBorrowsEmission: a budgeted join that spills runs
// every partition pair through the join's own build and probe loop, so
// under the root cursor it emits borrowed like the in-memory join: ten
// times the output rows may not cost more heap per extra row than a
// few bytes of slice growth.
func TestSpilledJoinBorrowsEmission(t *testing.T) {
	const budget = 64 << 10
	build := make([][]int64, 4000)
	for i := range build {
		build[i] = []int64{int64(i % 400), int64(i)}
	}
	right := plan.NewScan("build", relation.Ints([]string{"k", "p"}, build))
	heapBytes := func(probeRows int) (uint64, int64) {
		probe := make([][]int64, probeRows)
		for i := range probe {
			probe[i] = []int64{int64(i % 400), int64(i)}
		}
		node := &plan.Join{Left: plan.NewScan("probe", relation.Ints([]string{"k", "x"}, probe)), Right: right}
		tr := spill.NewTracker(budget)
		defer tr.Close()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n, err := Drain(context.Background(), CompileWith(node, nil, CompileOptions{Spill: tr}))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Snapshot().Spilled == 0 {
			t.Fatal("the fixture did not spill")
		}
		return after.TotalAlloc - before.TotalAlloc, n
	}
	smallB, smallN := heapBytes(400)
	largeB, largeN := heapBytes(4000)
	if smallN != 4000 || largeN != 40000 {
		t.Fatalf("output rows %d and %d, want 4000 and 40000", smallN, largeN)
	}
	perRow := (float64(largeB) - float64(smallB)) / float64(largeN-smallN)
	t.Logf("%d -> %d output rows: %d -> %d heap bytes, %.1f B per extra row", smallN, largeN, smallB, largeB, perRow)
	if perRow > 16 {
		t.Errorf("a spilled join costs %.1f heap bytes per extra output row, want at most 16", perRow)
	}
}

// TestSpilledSortMergeAllocatesPerBatch: under the root cursor a
// spilled sort's merge copies the rows it takes from runs into one
// slab chunk that it rewinds every batch, so once Open has written the
// runs, draining the merge allocates per batch, not per row, at any
// arity. An owned merge would carve a fresh chunk for every batch: 32
// bytes per value. String rows must make their distinct strings, but
// the runs' string cache cuts them from shared chunks: far fewer than
// one heap object per row.
func TestSpilledSortMergeAllocatesPerBatch(t *testing.T) {
	const rows = 20000
	ints := func(arity int) *relation.Relation {
		attrs := make([]string, arity)
		for j := range attrs {
			attrs[j] = fmt.Sprintf("c%d", j)
		}
		data := make([][]int64, rows)
		for i := range data {
			data[i] = make([]int64, arity)
			data[i][0] = int64(i * 7919 % rows) // a permutation of 0..rows-1
			for j := 1; j < arity; j++ {
				data[i][j] = int64(i % (10 * j))
			}
		}
		return relation.Ints(attrs, data)
	}
	strs := make([][]any, rows)
	for i := range strs {
		strs[i] = []any{fmt.Sprintf("s%05d", i*7919%rows), fmt.Sprintf("p%d", i%40)}
	}
	cases := []struct {
		name  string
		input *relation.Relation
		keys  []plan.SortKey
		bytes float64 // heap bytes per row drained, at most
	}{
		{"ints arity 2", ints(2), []plan.SortKey{{Attr: "c0"}}, 4},
		{"ints arity 4", ints(4), []plan.SortKey{{Attr: "c0"}}, 4},
		// Six bytes of every row are a distinct string.
		{"strings", relation.FromRows(schema.New("c0", "c1"), strs), []plan.SortKey{{Attr: "c1"}, {Attr: "c0"}}, 8},
	}
	for _, c := range cases {
		tr := spill.NewTracker(64 << 10)
		it := CompileWith(&plan.Sort{Input: plan.NewScan("r", c.input), Keys: c.keys}, nil, CompileOptions{Spill: tr})
		if err := it.Open(context.Background()); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n := 0
		for {
			_, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			n++
		}
		runtime.ReadMemStats(&after)
		it.Close()
		tr.Close()
		if tr.Snapshot().Runs < 2 {
			t.Fatalf("%s: the sort wrote %d runs, want a merge of several", c.name, tr.Snapshot().Runs)
		}
		if n != rows {
			t.Fatalf("%s: %d rows emitted, want %d", c.name, n, rows)
		}
		perRow := float64(after.TotalAlloc-before.TotalAlloc) / rows
		mallocs := float64(after.Mallocs-before.Mallocs) / rows
		t.Logf("%s: the merge of %d runs allocated %.2f B and %.4f objects per row", c.name, tr.Snapshot().Runs, perRow, mallocs)
		if perRow > c.bytes {
			t.Errorf("%s: the merge allocated %.2f B per row, want at most %.0f", c.name, perRow, c.bytes)
		}
		if mallocs > 1.0/64 {
			t.Errorf("%s: the merge made %.4f heap objects per row, want at most 1/64", c.name, mallocs)
		}
	}
}

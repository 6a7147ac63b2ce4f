package exec

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"divlaws/internal/datagen"
	"divlaws/internal/hashkey"
	"divlaws/internal/plan"
	"divlaws/internal/relation"
	"divlaws/internal/spill"
)

// These tests pin the out-of-core invariant: execution under a memory
// budget is an exact drop-in for unlimited execution. Every plan
// shape from the equivalence matrix is compiled under budgets small
// enough to force sorts into external merge runs and the hash
// operators into grace partitioning, and compared with the reference
// evaluator by the same rules as the unlimited sweep (see
// equivPlan.diverges). Teardown hygiene (no leaked run files, no
// leaked goroutines) and fault injection (spill write/read failures
// surfacing as query errors) ride the same fixtures.

// drainSeqErr is drainSeq without the t.Fatal on pipeline errors,
// for paths where an error is the expected outcome.
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
		out = append(out, tup)
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
	for trial := 0; trial < 10; trial++ {
		for _, c := range equivPlans(rng) {
			for _, budget := range []int64{4 << 10, 32 << 10} {
				for _, size := range []int{7, 0} {
					tr := spill.NewTracker(budget)
					out := drainSeq(t, CompileWith(c.node, nil, CompileOptions{BatchSize: size, Spill: tr}))
					totalSpilled += tr.Snapshot().Spilled
					if n := tr.LiveRuns(); n != 0 {
						t.Errorf("trial %d %s (budget %d): %d run files leaked", trial, c.name, budget, n)
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
// cancellation, no run files survive in the spill directory, and
// closing the tracker removes the directory itself.
func TestSpillTempFileHygiene(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	rel := randRelation(rng, []string{"a", "b"}, 2000, 500)
	node := &plan.Sort{Input: plan.NewScan("r", rel), Keys: []plan.SortKey{{Attr: "a"}}}
	const budget = 8 << 10

	check := func(t *testing.T, tr *spill.Tracker) {
		t.Helper()
		if n := tr.LiveRuns(); n != 0 {
			t.Errorf("%d run files still open", n)
		}
		dir := tr.Dir()
		if dir != "" {
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatalf("spill dir unreadable: %v", err)
			}
			if len(ents) != 0 {
				t.Errorf("%d files left in the spill dir after teardown", len(ents))
			}
		}
		if err := tr.Close(); err != nil {
			t.Errorf("tracker Close: %v", err)
		}
		if dir != "" {
			if _, err := os.Stat(dir); !os.IsNotExist(err) {
				t.Errorf("spill dir %s survives tracker Close", dir)
			}
		}
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

	t.Run("GraceDivideWorkerError", func(t *testing.T) {
		// A budgeted parallel divide that overflows into the inline
		// grace fallback, then cancelled mid-output: run files and
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
// and that teardown still leaves no run files behind.
func TestSpillIOErrorsSurface(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	rel := randRelation(rng, []string{"a", "b"}, 2000, 500)
	sortNode := &plan.Sort{Input: plan.NewScan("r", rel), Keys: []plan.SortKey{{Attr: "a"}}}
	divNode := &plan.Divide{
		Dividend: plan.NewScan("r1", rel),
		Divisor:  plan.NewScan("r2", randRelation(rng, []string{"b"}, 2, 500)),
	}
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
			t.Errorf("%d run files leaked after the injected failure", n)
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
}

// TestSpillBudgetErrorTyped: a budget below the irreducible state —
// here, smaller than the divisor itself — must fail with an error
// wrapping spill.ErrBudget, never succeed quietly or hang.
func TestSpillBudgetErrorTyped(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	node := &plan.Divide{
		Dividend: plan.NewScan("r1", randRelation(rng, []string{"a", "b"}, 500, 50)),
		Divisor:  plan.NewScan("r2", randRelation(rng, []string{"b"}, 4, 50)),
	}
	tr := spill.NewTracker(64)
	defer tr.Close()
	_, err := drainSeqErr(context.Background(), CompileWith(node, nil, CompileOptions{Spill: tr}))
	if !errors.Is(err, spill.ErrBudget) {
		t.Fatalf("64-byte budget produced %v, want spill.ErrBudget", err)
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

package exec

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"divlaws/internal/datagen"
	"divlaws/internal/division"
	"divlaws/internal/plan"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/value"
)

func sortInput() *relation.Relation {
	r := relation.New(schema.New("a", "b"))
	for _, row := range [][2]int64{{3, 1}, {1, 2}, {2, 0}, {5, 9}, {4, 4}} {
		r.Insert(relation.Tuple{value.Int(row[0]), value.Int(row[1])})
	}
	return r
}

// drainAll collects a hand-built operator's output through a root
// cursor.
func drainAll(t *testing.T, op BatchIterator) []relation.Tuple {
	t.Helper()
	return drainSeq(t, &FromBatch{Input: op})
}

func TestSortIterDesc(t *testing.T) {
	it := &SortIter{
		Label: "s",
		Input: &ScanIter{Rel: sortInput()},
		ByPos: []int{0},
		Desc:  []bool{true},
	}
	rows := drainAll(t, it)
	for i := 1; i < len(rows); i++ {
		if rows[i-1][0].AsInt() < rows[i][0].AsInt() {
			t.Fatalf("not descending at %d: %v", i, rows)
		}
	}
}

// closeCounter records how often (and when) Close was called.
type closeCounter struct {
	BatchIterator
	closes int
}

func (c *closeCounter) Close() error {
	c.closes++
	return c.BatchIterator.Close()
}

func TestTopKIter(t *testing.T) {
	child := &closeCounter{BatchIterator: &ScanIter{Rel: sortInput()}}
	it := &TopKIter{Label: "k", Input: child, ByPos: []int{0}, K: 2}
	if err := it.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Child closed on exhaustion, during Open — before any emission.
	if child.closes != 1 {
		t.Fatalf("child closed %d times after Open, want 1 (LimitBatch-style early release)", child.closes)
	}
	b, err := it.NextBatch()
	if err != nil || b == nil || b.Len() != 2 || b.Tuple(0)[0].AsInt() != 1 || b.Tuple(1)[0].AsInt() != 2 {
		t.Fatalf("top-2 = (%v, %v), want [1 2]", b, err)
	}
	if b, err := it.NextBatch(); b != nil || err != nil {
		t.Fatalf("second NextBatch = (%v, %v), want end of stream", b, err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTopKIterZeroNeverOpensChild(t *testing.T) {
	stats := NewStats()
	it := &TopKIter{
		Label: "k",
		Input: &ScanIter{Label: "scan", Rel: sortInput(), Stats: stats},
		ByPos: []int{0},
		K:     0,
		Stats: stats,
	}
	rows := drainAll(t, it)
	if len(rows) != 0 {
		t.Fatalf("k=0 emitted %d rows", len(rows))
	}
	if total := stats.Total(); total != 0 {
		t.Fatalf("k=0 did work: %v", stats.Snapshot())
	}
}

func TestTopKIterOversized(t *testing.T) {
	it := &TopKIter{Label: "k", Input: &ScanIter{Rel: sortInput()}, ByPos: []int{0}, K: 50}
	if got := drainAll(t, it); len(got) != 5 {
		t.Fatalf("oversized k emitted %d rows, want all 5", len(got))
	}
}

// topkFixture builds TopK-over-ParallelDivide, the shape the
// compiler lowers to the order-aware exchange, plus the expected
// global top-k computed sequentially.
func topkFixture(k int64, desc bool) (node *plan.TopK, want []relation.Tuple) {
	r1, r2 := datagen.DividePair{
		Groups: 2000, GroupSize: 4, DivisorSize: 4,
		Domain: 40, HitRate: 0.9, Seed: 9,
	}.Generate()
	quotient := division.Divide(r1, r2)
	par := &plan.ParallelDivide{
		Dividend: plan.NewScan("r1", r1),
		Divisor:  plan.NewScan("r2", r2),
		Workers:  4,
	}
	keys := []plan.SortKey{{Attr: quotient.Schema().Attrs()[0], Desc: desc}}
	node = &plan.TopK{Input: par, Keys: keys, K: k}
	want = plan.SortedTuples(quotient, keys)
	if int64(len(want)) > k {
		want = want[:k]
	}
	return node, want
}

// TestTopKExchangeMatchesSequential is the end-to-end correctness
// check for the per-partition pushdown: the k-way merged stream
// equals the sequential sort-then-truncate, in order, both ASC and
// DESC — and the compiler really produced the fused exchange.
func TestTopKExchangeMatchesSequential(t *testing.T) {
	for _, desc := range []bool{false, true} {
		node, want := topkFixture(17, desc)
		// MemoryLimit -1 pins the unlimited path even when
		// DIVLAWS_FORCE_SPILL is set: this test asserts the fused
		// exchange structure, which a budget wrapper would hide.
		it := CompileWith(node, nil, CompileOptions{MemoryLimit: -1})
		if _, ok := it.Input.(*ParallelDivideIter); !ok {
			t.Fatalf("compiled to %T, want the fused ParallelDivideIter", it.Input)
		}
		got := drainSeq(t, it)
		if len(got) != len(want) {
			t.Fatalf("desc=%t: %d rows, want %d", desc, len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("desc=%t: row %d = %v, want %v", desc, i, got[i], want[i])
			}
		}
	}
}

// TestTopKExchangeBoundsPartitionEmission pins the O(k)-per-worker
// property: under the pushdown every partition emits at most k
// tuples into the exchange, far below its partition's quotient.
func TestTopKExchangeBoundsPartitionEmission(t *testing.T) {
	const k = 5
	node, _ := topkFixture(k, false)
	stats := NewStats()
	// The O(k) emission bound is a property of the partitioned
	// exchange, so opt out of any ambient forced-spill budget.
	it := CompileWith(node, stats, CompileOptions{MemoryLimit: -1})
	rows := drainSeq(t, it)
	if len(rows) != k {
		t.Fatalf("%d rows, want %d", len(rows), k)
	}
	var parts int
	for label, n := range stats.Snapshot() {
		if !strings.Contains(label, "/part") {
			continue
		}
		parts++
		if n > k {
			t.Errorf("partition %s emitted %d tuples, bound is %d", label, n, k)
		}
	}
	if parts < 2 {
		t.Fatalf("fixture only produced %d partitions", parts)
	}
}

// TestTopKExchangeHugeLimit: k comes straight from the user's LIMIT,
// so an absurdly large bound must not panic the exchange goroutine
// or pre-allocate k slots — the merge caps its allocation at what
// the partitions supplied.
func TestTopKExchangeHugeLimit(t *testing.T) {
	node, want := topkFixture(int64(1)<<60, false)
	got := drainSeq(t, Compile(node, nil))
	if len(got) != len(want) {
		t.Fatalf("%d rows, want the full quotient (%d)", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("row %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestTopKGreatDivideExchange covers the Law 13 exchange's fused
// form.
func TestTopKGreatDivideExchange(t *testing.T) {
	g1, g2 := datagen.GreatDividePair{
		Groups: 400, GroupSize: 8,
		DivisorGroups: 16, DivisorGroupSize: 5,
		Domain: 80, HitRate: 0.3, Seed: 1,
	}.Generate()
	quotient := division.GreatDivide(g1, g2)
	keys := []plan.SortKey{
		{Attr: quotient.Schema().Attrs()[0]},
		{Attr: quotient.Schema().Attrs()[1], Desc: true},
	}
	node := &plan.TopK{
		Input: &plan.ParallelGreatDivide{
			Dividend: plan.NewScan("g1", g1),
			Divisor:  plan.NewScan("g2", g2),
			Workers:  4,
		},
		Keys: keys,
		K:    9,
	}
	it := CompileWith(node, nil, CompileOptions{MemoryLimit: -1})
	if p, ok := it.Input.(*ParallelDivideIter); !ok || p.TopKN != 9 {
		t.Fatalf("compiled to %T, want the fused ParallelDivideIter", it.Input)
	}
	want := plan.SortedTuples(quotient, keys)[:9]
	got := drainSeq(t, it)
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("row %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestTopKExchangeGoroutineLeaks drives the teardown paths of the
// order-aware exchange — early Close after k rows, Close mid-stream
// before the merge completes, and cancel mid-stream — checking the
// goroutine count returns to baseline each time (the satellite
// mirror of TestExchangeGoroutineLeaks for the top-k form).
func TestTopKExchangeGoroutineLeaks(t *testing.T) {
	t.Run("CloseAfterKRows", func(t *testing.T) {
		node, _ := topkFixture(3, false)
		baseline := runtime.NumGoroutine()
		it := CompileWith(node, nil, CompileOptions{ExchangeBuffer: 1})
		if err := it.Open(context.Background()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, ok, err := it.Next(); err != nil || !ok {
				t.Fatalf("Next %d = (%t, %v)", i, ok, err)
			}
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, baseline)
	})

	t.Run("CloseBeforeFirstRow", func(t *testing.T) {
		// The merge is a barrier: Close before any Next must reap the
		// fan-out even while workers are still computing or the
		// coordinator holds the merged result.
		node, _ := topkFixture(3, false)
		baseline := runtime.NumGoroutine()
		it := CompileWith(node, nil, CompileOptions{ExchangeBuffer: 1})
		if err := it.Open(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, baseline)
	})

	t.Run("CancelMidStream", func(t *testing.T) {
		node, _ := topkFixture(3, false)
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		it := CompileWith(node, nil, CompileOptions{ExchangeBuffer: 1})
		if err := it.Open(ctx); err != nil {
			t.Fatal(err)
		}
		cancel()
		// Drain to the cancellation error or the end; workers must die
		// either way.
		for {
			_, ok, err := it.Next()
			if err != nil || !ok {
				break
			}
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, baseline)
	})

	t.Run("TopKIterOverExchange", func(t *testing.T) {
		// The generic TopKIter above an unfused exchange (the shape a
		// narrowing projection forces): its Open drains and closes the
		// exchange, so by the first row every worker is already gone.
		r1, r2 := datagen.DividePair{
			Groups: 2000, GroupSize: 4, DivisorSize: 4,
			Domain: 40, HitRate: 0.9, Seed: 9,
		}.Generate()
		baseline := runtime.NumGoroutine()
		ex := compile(&plan.ParallelDivide{
			Dividend: plan.NewScan("r1", r1),
			Divisor:  plan.NewScan("r2", r2),
			Workers:  4,
		}, nil, "root", CompileOptions{ExchangeBuffer: 2})
		it := &TopKIter{Label: "k", Input: ex, ByPos: []int{0}, K: 3}
		if err := it.Open(context.Background()); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, baseline)
		if b, err := it.NextBatch(); err != nil || b == nil {
			t.Fatalf("NextBatch = (%v, %v)", b, err)
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, baseline)
	})
}

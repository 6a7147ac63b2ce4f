package exec

import (
	"context"
	"testing"

	"divlaws/internal/plan"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/value"
)

// These tests pin borrowed emission (see compile): which operators
// compile lets borrow, and what borrowing buys on the emit paths. That
// borrowing never changes a result is pinned by the equivalence sweeps
// (equivPlans, TestSpillMatchesUnlimited), which carry the borrowed
// shapes and the shapes where borrowing must stay off.

// intColumn returns a one-column relation over attr holding 0..n-1.
func intColumn(attr string, n int) *relation.Relation {
	r := relation.New(schema.New(attr))
	for i := 0; i < n; i++ {
		r.Insert(relation.Tuple{value.Int(int64(i))})
	}
	return r
}

// emitShapes are the two borrowed emit paths the allocation gate
// measures, over a streamed or materialized side of n rows: a root
// product, and a division whose dividend is a product.
func emitShapes(n int) map[string]plan.Node {
	r := plan.NewScan("r", intColumn("b", n))
	return map[string]plan.Node{
		"root product": &plan.Product{Left: r, Right: plan.NewScan("two", intColumn("c", 2))},
		"divide over product": &plan.Divide{
			Dividend: &plan.Product{Left: plan.NewScan("eight", intColumn("a", 8)), Right: r},
			Divisor:  plan.NewScan("div", intColumn("b", 2)),
		},
	}
}

// disown clears the borrow flag compile set on the emitShapes'
// products, turning them back into owned emitters.
func disown(it BatchIterator) {
	switch x := it.(type) {
	case *ProductIter:
		x.borrowed = false
	case *HashDivideIter:
		disown(x.Dividend)
	}
}

// unlimited runs without a memory budget whatever the environment
// says: a budgeted division keeps its dividend, so nothing borrows.
var unlimited = CompileOptions{MemoryLimit: -1}

// drainAllocs reports the allocations of one compile-and-drain of
// node, with its products emitting borrowed or owned tuples.
func drainAllocs(t *testing.T, node plan.Node, borrow bool) float64 {
	t.Helper()
	return testing.AllocsPerRun(3, func() {
		it := CompileWith(node, nil, unlimited)
		if !borrow {
			disown(it.Input)
		}
		if _, err := Drain(context.Background(), it); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBorrowedEmitDoesNotScale is the allocation gate: with the root
// cursor as the consumer, a product at the root and a product under a
// division rewind one slab chunk per batch, so their emit paths
// allocate nothing per tuple. Ten times the rows may only cost what the
// materialized right side's slice growth costs; the owned compile of
// the same plans shows the per-chunk growth the gate rules out.
func TestBorrowedEmitDoesNotScale(t *testing.T) {
	small, large := emitShapes(1000), emitShapes(10000)
	for name := range small {
		borrowed := drainAllocs(t, large[name], true) - drainAllocs(t, small[name], true)
		owned := drainAllocs(t, large[name], false) - drainAllocs(t, small[name], false)
		t.Logf("%s: 1k -> 10k rows adds %.0f allocations borrowed, %.0f owned", name, borrowed, owned)
		if borrowed > 16 {
			t.Errorf("%s: borrowed emission grew by %.0f allocations from 1k to 10k rows, want at most 16", name, borrowed)
		}
		if owned < borrowed+30 {
			t.Errorf("%s: owned emission grew by only %.0f allocations (borrowed %.0f); the gate no longer measures the emit path", name, owned, borrowed)
		}
	}
}

// BenchmarkDivideOverProduct runs the dividend shape of Laws 8, 9 and
// 17, (r1* × r1**) ÷ r2, through the root cursor: 80,000 product
// tuples that the division state hashes and drops.
func BenchmarkDivideOverProduct(b *testing.B) {
	node := emitShapes(10000)["divide over product"]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Drain(context.Background(), CompileWith(node, nil, unlimited)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMergeGroupDivideAllocsPerGroup: the merge-group division
// compares each dividend row with the current group in place and
// projects A only when a group starts, so its allocations follow the
// number of groups, not of rows. The dividend is fed pre-sorted, so
// only the operator itself is measured.
func TestMergeGroupDivideAllocsPerGroup(t *testing.T) {
	const groups, perGroup = 200, 20
	dividend := relation.New(schema.New("a", "b"))
	for a := 0; a < groups; a++ {
		for b := 0; b < perGroup; b++ {
			dividend.Insert(relation.Tuple{value.Int(int64(a)), value.Int(int64(b))})
		}
	}
	divisor := intColumn("b", 4)
	allocs := testing.AllocsPerRun(3, func() {
		m := &MergeGroupDivideIter{Label: "m", Dividend: &ScanIter{Rel: dividend}, Divisor: &ScanIter{Rel: divisor}}
		n, err := Drain(context.Background(), &FromBatch{Input: m})
		if err != nil || n != groups {
			t.Fatalf("Drain = (%d, %v), want %d quotient rows", n, err, groups)
		}
	})
	t.Logf("merge-group divide over %d groups of %d rows: %.0f allocations", groups, perGroup, allocs)
	if allocs > 2*groups {
		t.Errorf("merge-group divide made %.0f allocations for %d groups of %d rows, want at most %d", allocs, groups, perGroup, 2*groups)
	}
}

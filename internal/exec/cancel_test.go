package exec

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"divlaws/internal/plan"
	"divlaws/internal/relation"
)

// countdownCtx reports context.Canceled after a fixed number of Err
// calls, making mid-drain cancellation deterministic.
type countdownCtx struct {
	remaining atomic.Int64
}

func newCountdownCtx(calls int64) *countdownCtx {
	c := &countdownCtx{}
	c.remaining.Store(calls)
	return c
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Done() <-chan struct{}       { return nil }
func (c *countdownCtx) Value(any) any               { return nil }
func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// bigDividePlan builds a division plan whose dividend spans many
// DefaultCheckEvery intervals, so blocking drains must poll repeatedly.
func bigDividePlan(parallel bool) plan.Node {
	n := 8 * DefaultCheckEvery
	rows := make([][]int64, 0, n)
	for i := 0; i < n; i++ {
		// i is unique per row so set-semantics dedup keeps all n.
		rows = append(rows, []int64{int64(i), int64(i % 16)})
	}
	r1 := plan.NewScan("r1", relation.Ints([]string{"a", "b"}, rows))
	r2 := plan.NewScan("r2", relation.Ints([]string{"b"}, [][]int64{{1}, {2}}))
	if parallel {
		return &plan.ParallelDivide{Dividend: r1, Divisor: r2, Workers: 4}
	}
	return &plan.Divide{Dividend: r1, Divisor: r2}
}

func TestBlockingOpenHonorsCancellation(t *testing.T) {
	for _, tc := range []struct {
		name     string
		parallel bool
	}{
		{"HashDivideIter", false},
		{"ParallelDivideIter", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			it := Compile(bigDividePlan(tc.parallel), nil)
			err := it.Open(newCountdownCtx(2))
			it.Close()
			if err != context.Canceled {
				t.Fatalf("Open = %v, want context.Canceled", err)
			}
		})
	}
}

func TestRunPropagatesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, Compile(bigDividePlan(true), nil)); err != context.Canceled {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
}

// BenchmarkCancellationOverhead measures the cost of the cooperative
// cancellation designs the context plumbing chose between: polling
// ctx.Err() on every tuple of a blocking drain versus polling once
// per DefaultCheckEvery tuples (the shipped design). The batched variant is
// indistinguishable from no check at all, which is why the engine
// batches instead of threading a per-tuple context check through
// every operator.
func BenchmarkCancellationOverhead(b *testing.B) {
	n := 64 * 1024
	rows := make([][]int64, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, []int64{int64(i), int64(i % 16)})
	}
	rel := relation.Ints([]string{"a", "b"}, rows)
	ctx := context.Background()
	// scan drains the relation through NextBatch, calling perTuple (if
	// any) on every row.
	scan := func(b *testing.B, perTuple func() error) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			it := &ScanIter{Label: "scan", Rel: rel}
			if err := it.Open(ctx); err != nil {
				b.Fatal(err)
			}
			for {
				batch, err := it.NextBatch()
				if err != nil {
					b.Fatal(err)
				}
				if batch == nil {
					break
				}
				for range batch.Tuples() {
					if perTuple != nil {
						if err := perTuple(); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			it.Close()
		}
	}
	b.Run("none", func(b *testing.B) { scan(b, nil) })
	b.Run("per-tuple", func(b *testing.B) { scan(b, ctx.Err) })
	b.Run("batched", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			it := &ScanIter{Label: "scan", Rel: rel}
			if err := it.Open(ctx); err != nil {
				b.Fatal(err)
			}
			if err := drainEvery(ctx, it, 0, func(relation.Tuple) error { return nil }); err != nil {
				b.Fatal(err)
			}
			it.Close()
		}
	})
}

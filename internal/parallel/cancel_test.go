package parallel

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"divlaws/internal/division"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
)

// countdownCtx is a context.Context whose Err starts reporting
// context.Canceled after a fixed number of Err calls (counted across
// goroutines). It makes "cancelled mid-run" deterministic: workers
// polling it are guaranteed to observe cancellation partway through
// their partitions, with no timing dependence.
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

// bigDividePair builds a dividend large enough that every partition
// spans many defaultCheckEvery poll intervals.
func bigDividePair() (r1, r2 *relation.Relation) {
	groups := 64
	per := 40 * defaultCheckEvery / groups
	rows := make([][]int64, 0, groups*per)
	for a := 0; a < groups; a++ {
		for b := 0; b < per; b++ {
			rows = append(rows, []int64{int64(a), int64(b % 64)})
		}
	}
	r1 = relation.Ints([]string{"a", "b"}, rows)
	r2 = relation.Ints([]string{"b"}, [][]int64{{1}, {2}, {3}})
	return r1, r2
}

func TestRunStopsWorkersMidPartition(t *testing.T) {
	r1, r2 := bigDividePair()
	// Enough Err calls to get all workers started, far fewer than a
	// full run would make: cancellation lands mid-partition.
	ctx := newCountdownCtx(8)
	if _, err := collect(ctx, "", scatter(t, r1, r2, 4), r1.Schema().Minus(r2.Schema())); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunPreCancelled(t *testing.T) {
	r1, r2 := bigDividePair()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := collect(ctx, "", scatter(t, r1, r2, 4), r1.Schema().Minus(r2.Schema())); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	r2g := relation.Ints([]string{"b", "c"}, [][]int64{{1, 1}, {2, 1}, {3, 2}})
	if _, err := collect(ctx, "", scatter(t, r1, r2g, 4), schema.New("a", "c")); err != context.Canceled {
		t.Fatalf("great err = %v, want context.Canceled", err)
	}
}

func TestRunStopsGreatWorkersMidPartition(t *testing.T) {
	// Great divide partitions the divisor; give it groups to split
	// and a dividend long enough to poll repeatedly (n distinct
	// tuples: 512 candidates, 16 b values each).
	n := 8 * defaultCheckEvery
	rows := make([][]int64, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, []int64{int64(i % 512), int64(i / 512)})
	}
	r1 := relation.Ints([]string{"a", "b"}, rows)
	var divisorRows [][]int64
	for g := int64(0); g < 16; g++ {
		for b := int64(0); b < 8; b++ {
			divisorRows = append(divisorRows, []int64{b, g})
		}
	}
	r2 := relation.Ints([]string{"b", "c"}, divisorRows)

	ctx := newCountdownCtx(8)
	if _, err := collect(ctx, "", scatter(t, r1, r2, 4), schema.New("a", "c")); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestPartitionedCtxMatchesSequentialWhenUncancelled(t *testing.T) {
	r1, r2 := bigDividePair()
	want := division.Divide(r1, r2)
	// Non-default algorithms run whole partitions per poll but must
	// still agree.
	for _, algo := range []division.Algorithm{division.AlgoHash, division.AlgoMaier} {
		got, err := collect(context.Background(), algo, scatter(t, r1, r2, 4), want.Schema())
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: partitioned ctx division diverges: %d vs %d rows", algo, got.Len(), want.Len())
		}
	}
}

package exec

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"divlaws/internal/algebra"
	"divlaws/internal/datagen"
	"divlaws/internal/plan"
	"divlaws/internal/relation"
	"divlaws/internal/value"
)

// waitGoroutines polls until the goroutine count returns to (or
// below) baseline, failing after a deadline — the leak check for
// every exchange teardown path.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
}

// streamFixture builds a parallel-divide plan with a quotient large
// enough to span several partitions and many exchange buffers.
func streamFixture() (node *plan.ParallelDivide, quotientLen int) {
	r1, r2 := datagen.DividePair{
		Groups: 2000, GroupSize: 4, DivisorSize: 4,
		Domain: 40, HitRate: 0.9, Seed: 9,
	}.Generate()
	want := algebra.Divide(r1, r2)
	return &plan.ParallelDivide{
		Dividend: plan.NewScan("r1", r1),
		Divisor:  plan.NewScan("r2", r2),
		Workers:  4,
	}, want.Len()
}

// TestExchangeStreamsBeforeSlowestPartition is the instrumented
// first-row proof: every partition but one is stalled on a gate, and
// the consumer still receives rows — so first-row latency does not
// wait on the slowest partition. The gate then opens and the full
// quotient arrives.
func TestExchangeStreamsBeforeSlowestPartition(t *testing.T) {
	node, quotientLen := streamFixture()
	release := make(chan struct{})
	var releaseOnce sync.Once
	openGate := func() { releaseOnce.Do(func() { close(release) }) }
	restore := SetPartitionGateForTesting(func(part int) {
		if part != 0 {
			<-release
		}
	})
	defer restore()

	stats := NewStats()
	it := CompileWith(node, stats, CompileOptions{ExchangeBuffer: 8})
	if err := it.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	// Close waits for the workers, and stalled workers wait on the
	// gate: open it before Close runs, whatever path the test takes.
	defer openGate()

	// First row must arrive while partitions 1..n-1 are still stalled
	// before their first tuple of work.
	if _, ok, err := it.Next(); err != nil || !ok {
		t.Fatalf("first Next = (%t, %v) with all but one partition blocked", ok, err)
	}
	for label, n := range stats.Snapshot() {
		if strings.Contains(label, "/part") && !strings.HasSuffix(label, "/part0") && n > 0 {
			t.Errorf("stalled partition emitted %d tuples (%s)", n, label)
		}
	}

	// Release the gate; the stream must complete to the full quotient.
	openGate()
	n := 1
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
	if n != quotientLen {
		t.Fatalf("streamed %d rows, want %d", n, quotientLen)
	}
}

// TestLimitCancelsParallelDivide proves the early-exit pushdown: a
// LIMIT 1 above a parallel division tears the exchange down after
// one row, and the tight exchange buffer keeps the workers from
// having computed more than a handful of quotient tuples (observed
// via per-partition Stats staying far below the full quotient).
func TestLimitCancelsParallelDivide(t *testing.T) {
	node, quotientLen := streamFixture()
	if quotientLen < 100 {
		t.Fatalf("fixture quotient too small (%d) to observe early exit", quotientLen)
	}
	stats := NewStats()
	limited := &plan.Limit{Input: node, N: 1}
	it := CompileWith(limited, stats, CompileOptions{ExchangeBuffer: 1})
	if err := it.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := it.Next(); err != nil || !ok {
		t.Fatalf("Next = (%t, %v)", ok, err)
	}
	// The limit is reached, so LimitBatch has already closed the
	// exchange; the second Next ends the stream.
	if _, ok, _ := it.Next(); ok {
		t.Fatal("LIMIT 1 produced a second row")
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	var partTotal int64
	for label, n := range stats.Snapshot() {
		if strings.Contains(label, "/part") {
			partTotal += n
		}
	}
	if partTotal >= int64(quotientLen)/2 {
		t.Fatalf("workers emitted %d of %d quotient tuples despite LIMIT 1", partTotal, quotientLen)
	}
	if got := stats.Get("root/limit"); got != 1 {
		t.Fatalf("limit emitted %d rows, want 1", got)
	}
}

// TestLimitIterEdgeCases covers limits of 0 (child never opened), 1,
// the exact result size, and beyond the result size.
func TestLimitIterEdgeCases(t *testing.T) {
	node, quotientLen := streamFixture()
	for _, tc := range []struct {
		n    int64
		want int
	}{
		{0, 0},
		{1, 1},
		{int64(quotientLen), quotientLen},
		{int64(quotientLen) + 50, quotientLen},
	} {
		stats := NewStats()
		it := Compile(&plan.Limit{Input: node, N: tc.n}, stats)
		got, err := Drain(context.Background(), it)
		if err != nil {
			t.Fatalf("LIMIT %d: %v", tc.n, err)
		}
		if got != int64(tc.want) {
			t.Errorf("LIMIT %d: drained %d rows, want %d", tc.n, got, tc.want)
		}
		if tc.n == 0 {
			if total := stats.Total(); total != 0 {
				t.Errorf("LIMIT 0: child did work (%d tuples): %v", total, stats.Snapshot())
			}
		}
	}
}

// TestExchangeGoroutineLeaks drives every teardown path of the
// streaming exchange — Close mid-stream, context cancellation
// mid-partition, and a worker error surfacing through nextBatch — and
// checks the goroutine count returns to baseline each time.
func TestExchangeGoroutineLeaks(t *testing.T) {
	node, _ := streamFixture()

	t.Run("CloseMidStream", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		it := CompileWith(node, nil, CompileOptions{ExchangeBuffer: 2})
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

	t.Run("CancelMidPartition", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		it := CompileWith(node, nil, CompileOptions{ExchangeBuffer: 2})
		if err := it.Open(ctx); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := it.Next(); err != nil || !ok {
			t.Fatalf("Next = (%t, %v)", ok, err)
		}
		cancel()
		// Drain to the error or end; either way the workers must die.
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

	t.Run("WorkerError", func(t *testing.T) {
		// A worker that fails mid-stream (after emitting part of its
		// output) must surface its error through nextBatch at end of
		// stream and leave no goroutines behind.
		baseline := runtime.NumGoroutine()
		errBoom := errors.New("boom")
		ex := startExchange(context.Background(), 2, 1, func(ctx context.Context, _ int, send func([]relation.Tuple) error) error {
			for i := 0; i < 5; i++ {
				if err := send([]relation.Tuple{{value.Int(int64(i))}}); err != nil {
					return err
				}
			}
			return errBoom
		}, nil)
		seen := 0
		for {
			ts, err := ex.nextBatch(0)
			if ts == nil {
				if err != errBoom {
					t.Fatalf("exchange error = %v, want boom", err)
				}
				break
			}
			seen += len(ts)
		}
		if seen != 5 {
			t.Fatalf("received %d tuples before the worker error, want 5", seen)
		}
		ex.stop()
		waitGoroutines(t, baseline)
	})

	t.Run("WorkerErrorUnconsumed", func(t *testing.T) {
		// The same failing worker, but the consumer walks away without
		// draining: stop() alone must unblock the pending sends and
		// reap the fan-out.
		baseline := runtime.NumGoroutine()
		errBoom := errors.New("boom")
		ex := startExchange(context.Background(), 1, 1, func(ctx context.Context, _ int, send func([]relation.Tuple) error) error {
			for i := 0; i < 100; i++ {
				if err := send([]relation.Tuple{{value.Int(int64(i))}}); err != nil {
					return err
				}
			}
			return errBoom
		}, nil)
		if ts, err := ex.nextBatch(0); ts == nil || err != nil {
			t.Fatalf("nextBatch = (%v, %v)", ts, err)
		}
		ex.stop()
		waitGoroutines(t, baseline)
	})
}

// closeErrIter wraps an operator, failing the first Close with a
// fixed error (idempotent afterwards, like real operators).
type closeErrIter struct {
	BatchIterator
	err error
}

func (c *closeErrIter) Close() error {
	c.BatchIterator.Close()
	err := c.err
	c.err = nil
	return err
}

// TestLimitKeepsFinalTupleOnCloseError pins the contract that the
// early child Close at the limit boundary never eats the valid N-th
// tuple: the tuple is delivered, and the teardown error surfaces at
// end of stream instead.
func TestLimitKeepsFinalTupleOnCloseError(t *testing.T) {
	node, _ := streamFixture()
	errBoom := errors.New("boom")
	lim := &LimitBatch{
		Label: "l",
		Input: &closeErrIter{BatchIterator: compile(node, nil, "root", CompileOptions{}, true), err: errBoom},
		N:     1,
	}
	if err := lim.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	b, err := lim.NextBatch()
	if err != nil || b == nil || b.Len() != 1 || b.Tuple(0) == nil {
		t.Fatalf("NextBatch = (%v, %v); the final tuple must survive a close error", b, err)
	}
	if b, err := lim.NextBatch(); b != nil || err != errBoom {
		t.Fatalf("second NextBatch = (%v, %v), want end of stream with boom", b, err)
	}
	// Reported once; the stream then ends cleanly and Close is quiet.
	if b, err := lim.NextBatch(); b != nil || err != nil {
		t.Fatalf("third NextBatch = (%v, %v)", b, err)
	}
	if err := lim.Close(); err != nil {
		t.Fatalf("Close = %v", err)
	}
}

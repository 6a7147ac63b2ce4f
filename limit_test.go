// LIMIT and early-exit tests over the public API: the pushdown that
// cancels parallel division workers mid-stream, and the
// goroutine-hygiene checks for every way a streaming query can end.
package divlaws

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"divlaws/internal/datagen"
)

// waitGoroutines polls until the goroutine count settles back to
// baseline, failing after a deadline.
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

// partTotal sums the per-partition exchange counters of a stats
// snapshot.
func partTotal(s QueryStats) int64 {
	var total int64
	for label, n := range s.Emitted {
		if strings.Contains(label, "/part") {
			total += n
		}
	}
	return total
}

func TestQueryLimit(t *testing.T) {
	db := openSuppliers()
	for _, tc := range []struct {
		text string
		want int
	}{
		{apiQ1 + " LIMIT 0", 0},
		{apiQ1 + " LIMIT 1", 1},
		{apiQ1 + " LIMIT 3", 3},
		{apiQ1 + " LIMIT 100", len(q1Rows)},
	} {
		rows, err := db.Query(context.Background(), tc.text)
		if err != nil {
			t.Fatalf("%q: %v", tc.text, err)
		}
		got := collect(t, rows)
		if len(got) != tc.want {
			t.Errorf("%q: %d rows, want %d", tc.text, len(got), tc.want)
		}
		// Every limited row must be a real quotient row.
		for _, r := range got {
			found := false
			for _, w := range q1Rows {
				if r == w {
					found = true
				}
			}
			if !found {
				t.Errorf("%q: row %q not in the full quotient", tc.text, r)
			}
		}
	}
}

// TestLimitOneCancelsParallelWorkers is the end-to-end early-exit
// proof over the public API: SELECT … LIMIT 1 over a parallel
// division stops all workers after one row — the per-partition Stats
// stay far below the full quotient, instead of every partition
// running to completion.
func TestLimitOneCancelsParallelWorkers(t *testing.T) {
	// The quotient must dwarf the exchange's batch granularity
	// (relation.DefaultBatchCap tuples per handoff), so the workload is
	// larger than openLarge's.
	supplies, parts := datagen.SuppliersParts{
		Suppliers: 3000, Parts: 40, Colors: 4, AvgSupplied: 20, Seed: 7,
	}.Generate()
	// WithMemoryLimit(-1) pins the partitioned exchange even when the
	// environment forces a tiny spill budget; the per-partition stats
	// this test asserts on only exist on that path.
	full := Open(WithWorkers(4), WithParallelThreshold(1), WithExchangeBuffer(1), WithMemoryLimit(-1))
	full.MustRegister("supplies", MustNewRelation(supplies.Schema().Attrs(), supplies.Rows()))
	full.MustRegister("parts", MustNewRelation(parts.Schema().Attrs(), parts.Rows()))

	// Full quotient size and its partition totals, as the baseline.
	rows, err := full.Query(context.Background(), apiQ1)
	if err != nil {
		t.Fatal(err)
	}
	fullRows := 0
	for rows.Next() {
		fullRows++
	}
	fullParts := partTotal(rows.Stats())
	rows.Close()
	if fullRows < 1000 || fullParts != int64(fullRows) {
		t.Fatalf("fixture: %d rows, %d partition emissions — need a large fully-streamed quotient", fullRows, fullParts)
	}

	rows, err = full.Query(context.Background(), apiQ1+" LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("LIMIT 1 returned %d rows", n)
	}
	if got := partTotal(rows.Stats()); got >= int64(fullRows)/2 {
		t.Errorf("workers emitted %d of %d quotient tuples despite LIMIT 1", got, fullRows)
	}
}

// TestRowsCloseMidStreamReleasesWorkers checks the public teardown
// paths leave no goroutines behind: Rows.Close mid-stream and
// context cancellation mid-stream over a parallel division.
func TestRowsCloseMidStreamReleasesWorkers(t *testing.T) {
	db := openLarge(t, WithWorkers(4), WithParallelThreshold(1), WithExchangeBuffer(2))

	t.Run("CloseMidStream", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		rows, err := db.Query(context.Background(), apiQ1)
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Next() {
			t.Fatalf("no first row, err %v", rows.Err())
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, baseline)
	})

	t.Run("CancelMidStream", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		rows, err := db.Query(ctx, apiQ1)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		if !rows.Next() {
			t.Fatalf("no first row, err %v", rows.Err())
		}
		cancel()
		for rows.Next() {
		}
		rows.Close()
		waitGoroutines(t, baseline)
	})

	t.Run("LimitExhaustion", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		rows, err := db.Query(context.Background(), apiQ1+" LIMIT 1")
		if err != nil {
			t.Fatal(err)
		}
		for rows.Next() {
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, baseline)
	})
}

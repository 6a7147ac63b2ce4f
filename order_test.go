// Physical ordering tests over the public API: ORDER BY streams in
// key order through Rows (no presentation-layer re-sorting), and
// ORDER BY + LIMIT over a parallel division runs as a per-partition
// top-k with bounded worker emission.
package divlaws

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"divlaws/internal/datagen"
)

// drainOrdered scans the first column of every row as int64.
func drainOrdered(t *testing.T, rows *Rows) []int64 {
	t.Helper()
	defer rows.Close()
	var out []int64
	for rows.Next() {
		var v int64
		var rest any
		cols := rows.Columns()
		ptrs := []any{&v}
		for i := 1; i < len(cols); i++ {
			ptrs = append(ptrs, &rest)
		}
		if err := rows.Scan(ptrs...); err != nil {
			t.Fatal(err)
		}
		out = append(out, v)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// openDividePair registers a generated divide workload large enough
// to parallelize.
func openDividePair(opts ...Option) *DB {
	r1, r2 := datagen.DividePair{
		Groups: 3000, GroupSize: 4, DivisorSize: 4,
		Domain: 40, HitRate: 0.9, Seed: 5,
	}.Generate()
	db := Open(opts...)
	db.MustRegister("r1", MustNewRelation(r1.Schema().Attrs(), r1.Rows()))
	db.MustRegister("r2", MustNewRelation(r2.Schema().Attrs(), r2.Rows()))
	return db
}

func TestQueryOrderByStreamsInOrder(t *testing.T) {
	db := openDividePair(WithWorkers(4), WithParallelThreshold(1))
	rows, err := db.Query(context.Background(),
		"SELECT a FROM r1 DIVIDE BY r2 ON r1.b = r2.b ORDER BY a DESC")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Ordered() {
		t.Fatal("ORDER BY result must report Ordered")
	}
	got := drainOrdered(t, rows)
	if len(got) == 0 {
		t.Fatal("empty quotient")
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] > got[j] }) {
		head := got
		if len(head) > 10 {
			head = head[:10]
		}
		t.Fatalf("stream not descending: %v…", head)
	}

	// The same query without ORDER BY reports unordered.
	rows, err = db.Query(context.Background(), "SELECT a FROM r1 DIVIDE BY r2 ON r1.b = r2.b")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Ordered() {
		t.Fatal("plain query must not report Ordered")
	}
	rows.Close()
}

// TestQueryOrderByLimitTopKOverParallel is the acceptance check:
// ORDER BY + LIMIT k over a parallel division streams the global
// top k in order, the Explain report shows the TopK pushdown, and
// the per-partition stats stay bounded by k.
func TestQueryOrderByLimitTopKOverParallel(t *testing.T) {
	const k = 7
	// WithMemoryLimit(-1) pins the partitioned exchange even when the
	// environment forces a tiny spill budget: the per-partition emission
	// bound asserted below is a property of that path.
	db := openDividePair(WithWorkers(4), WithParallelThreshold(1), WithMemoryLimit(-1))
	const q = "SELECT a FROM r1 DIVIDE BY r2 ON r1.b = r2.b ORDER BY a LIMIT 7"

	// Reference: the full quotient, sorted ascending.
	full, err := db.Query(context.Background(), "SELECT a FROM r1 DIVIDE BY r2 ON r1.b = r2.b")
	if err != nil {
		t.Fatal(err)
	}
	want := drainOrdered(t, full)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(want) <= k {
		t.Fatalf("fixture quotient too small: %d rows", len(want))
	}
	want = want[:k]

	ex, err := db.Explain(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.Report, "TopK[k=7;") || !strings.Contains(ex.Report, "top-k: per-partition heap(k=7)") {
		t.Fatalf("Explain missing the TopK pushdown:\n%s", ex.Report)
	}

	rows, err := db.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Ordered() {
		t.Fatal("top-k result must report Ordered")
	}
	got := drainOrdered(t, rows)
	if len(got) != k {
		t.Fatalf("%d rows, want %d", len(got), k)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d = %d, want %d (got %v, want %v)", i, got[i], want[i], got, want)
		}
	}

	// Bounded worker emission: every partition contributed at most k
	// tuples to the exchange.
	var parts int
	for label, n := range rows.Stats().Emitted {
		if !strings.Contains(label, "/part") {
			continue
		}
		parts++
		if n > k {
			t.Errorf("partition %s emitted %d tuples, bound is %d", label, n, k)
		}
	}
	if parts < 2 {
		t.Fatalf("query did not run as a parallel top-k (%d partitions)", parts)
	}
}

// TestGroupByOrderBySpillsUnderBudget: a grouping whose table is
// several times the budget, under ORDER BY, spills and streams the
// same sequence as unlimited execution, with the tracked peak inside
// the limit. The sort above the group keeps half the budget for it.
func TestGroupByOrderBySpillsUnderBudget(t *testing.T) {
	const limit = 64 << 10
	const q = "SELECT a, count(*) FROM r1 GROUP BY a ORDER BY a"
	run := func(opts ...Option) ([]string, *Rows) {
		rows, err := openDividePair(opts...).Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		var out []string
		for rows.Next() {
			var a, n int64
			if err := rows.Scan(&a, &n); err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprintf("%d/%d", a, n))
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		return out, rows
	}
	want, _ := run(WithMemoryLimit(-1))
	got, rows := run(WithMemoryLimit(limit))
	if len(want) == 0 || strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("budgeted GROUP BY … ORDER BY returned %d rows, diverging from the unlimited %d", len(got), len(want))
	}
	st := rows.Stats().Spill
	if st.Partitions == 0 {
		t.Error("the grouping did not spill")
	}
	if st.PeakBytes > st.Limit || st.Limit != limit {
		t.Errorf("tracked peak %d over the %d-byte limit (want %d)", st.PeakBytes, st.Limit, limit)
	}
	t.Logf("%d groups; spilled %d bytes in %d runs, %d partitionings; peak %d", len(got), st.SpilledBytes, st.Runs, st.Partitions, st.PeakBytes)
}

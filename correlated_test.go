// A correlated [NOT] EXISTS the detector leaves alone is an ordinary
// engine query: it binds to anti-semi-joins, so it honours ctx, runs
// under a memory budget, shows in Rows.Stats, and composes with the
// optimizer and parallel workers.
package divlaws

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// apiQ3 is the paper's Q3: Q1 as a doubly nested NOT EXISTS.
const apiQ3 = `SELECT DISTINCT s#, color
FROM supplies AS s1, parts AS p1
WHERE NOT EXISTS (
  SELECT * FROM parts AS p2
  WHERE p2.color = p1.color AND NOT EXISTS (
    SELECT * FROM supplies AS s2
    WHERE s2.p# = p2.p# AND s2.s# = s1.s#))`

// notGreen is a single-level NOT EXISTS: the supplies of parts that
// are not green.
const notGreen = `SELECT DISTINCT s#, p# FROM supplies AS s1 WHERE NOT EXISTS (
  SELECT * FROM parts AS p WHERE p.p# = s1.p# AND p.color = 'green')`

var notGreenRows = []string{
	"s1/p1", "s1/p2", "s1/p3", "s2/p3", "s2/p4", "s3/p1", "s3/p2", "s3/p3", "s3/p4",
}

func TestCorrelatedQueryIsAnEngineQuery(t *testing.T) {
	ctx := context.Background()
	unlimited := openSuppliers(WithoutDetection())
	budgeted := openSuppliers(WithoutDetection(), WithMemoryLimit(64<<10))
	for q, want := range map[string][]string{apiQ3: q1Rows, notGreen: notGreenRows} {
		rows, err := unlimited.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if got := collect(t, rows); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s = %v, want %v", q, got, want)
		}
		anti := false
		for label := range rows.Stats().Emitted {
			anti = anti || strings.Contains(label, "/antisemijoin")
		}
		if !anti {
			t.Errorf("%s: no anti-semi-join in Rows.Stats: %v", q, rows.Stats().Emitted)
		}

		rows, err = budgeted.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if got := collect(t, rows); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s under a 64 KiB budget = %v, want %v", q, got, want)
		}
	}
}

func TestCorrelatedQueryCancelMidStream(t *testing.T) {
	db := openSuppliers(WithoutDetection())
	for _, q := range []string{apiQ3, notGreen} {
		baseline := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		rows, err := db.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Next() {
			t.Fatalf("expected a first row, err %v", rows.Err())
		}
		cancel()
		if rows.Next() {
			t.Error("Next after cancellation must report false")
		}
		if err := rows.Err(); err != context.Canceled {
			t.Errorf("Err = %v, want context.Canceled", err)
		}
		if err := rows.Close(); err != nil {
			t.Errorf("Close after cancellation: %v", err)
		}
		waitGoroutines(t, baseline)
	}
}

func TestCorrelatedQ3UnderWorkersEqualsQ1(t *testing.T) {
	db := openSuppliers(WithoutDetection(), WithWorkers(2), WithParallelThreshold(1))
	for _, q := range []string{apiQ1, apiQ3} {
		rows, err := db.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if got := collect(t, rows); fmt.Sprint(got) != fmt.Sprint(q1Rows) {
			t.Errorf("%s = %v, want %v", q, got, q1Rows)
		}
	}
}

// A correlated subquery that cannot bind fails the Query call, with
// or without detection, instead of the process at its first row.
func TestCorrelatedUnknownColumnIsAnError(t *testing.T) {
	const q = `SELECT s# FROM supplies AS s1 WHERE NOT EXISTS (
  SELECT * FROM parts AS p WHERE p.nosuch = s1.p#)`
	for _, db := range []*DB{openSuppliers(), openSuppliers(WithoutDetection())} {
		if rows, err := db.Query(context.Background(), q); err == nil {
			rows.Close()
			t.Error("a subquery naming an unknown column must fail to bind")
		}
	}
}

func TestCorrelatedOnBoolColumns(t *testing.T) {
	db := Open()
	db.MustRegister("x", MustNewRelation([]string{"id", "flag"}, [][]any{{"a", true}, {"b", false}, {"c", true}}))
	db.MustRegister("y", MustNewRelation([]string{"flag", "note"}, [][]any{{true, "on"}}))
	rows, err := db.Query(context.Background(),
		`SELECT id, note FROM x, y WHERE EXISTS (SELECT * FROM y AS y2 WHERE y2.flag = x.flag)`)
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(t, rows); fmt.Sprint(got) != "[a/on c/on]" {
		t.Errorf("bool correlation = %v, want [a/on c/on]", got)
	}
}

// TestCorrelatedQ3SpillsUnderBudget: undetected, Q3 runs as two
// anti-semi-joins. On 24 suppliers and 24 parts with 60-character
// identifiers, the inner anti-join's build (one key per supplies row)
// does not fit in 64 KiB, so it spills, stays within the budget and
// still returns Q1's rows.
func TestCorrelatedQ3SpillsUnderBudget(t *testing.T) {
	const limit = 64 << 10
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	id := func(kind string, i int) string { return fmt.Sprintf("%s%059d", kind, i) }
	var supplies, parts [][]any
	for p := 0; p < 24; p++ {
		parts = append(parts, []any{id("p", p), []string{"red", "green", "blue"}[p%3]})
		for s := 0; s < 24; s++ {
			if s < 2 || rng.Intn(4) != 0 {
				supplies = append(supplies, []any{id("s", s), id("p", p)})
			}
		}
	}
	open := func(opts ...Option) *DB {
		db := Open(opts...)
		db.MustRegister("supplies", MustNewRelation([]string{"s#", "p#"}, supplies))
		db.MustRegister("parts", MustNewRelation([]string{"p#", "color"}, parts))
		return db
	}
	rows, err := open().Query(ctx, apiQ1)
	if err != nil {
		t.Fatal(err)
	}
	want := collect(t, rows)
	rows, err = open(WithoutDetection(), WithMemoryLimit(limit)).Query(ctx, apiQ3)
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(t, rows); len(want) == 0 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Q3 under a %d-byte budget = %v, want Q1's %v", limit, got, want)
	}
	st := rows.Stats().Spill
	if st.SpilledBytes == 0 {
		t.Error("the anti-joins' builds did not spill")
	}
	if st.PeakBytes > st.Limit || st.Limit != limit {
		t.Errorf("tracked peak %d over the %d-byte limit (want %d)", st.PeakBytes, st.Limit, limit)
	}
	t.Logf("%d rows; spilled %d bytes in %d runs, %d partitionings; peak %d", len(want), st.SpilledBytes, st.Runs, st.Partitions, st.PeakBytes)
}

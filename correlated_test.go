// A correlated [NOT] EXISTS the detector leaves alone is an ordinary
// engine query: it binds to anti-semi-joins, so it honours ctx, runs
// under a memory budget, shows in Rows.Stats, and composes with the
// optimizer and parallel workers.
package divlaws

import (
	"context"
	"fmt"
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

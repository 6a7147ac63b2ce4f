// Tests for the public embedding surface: Open/Register, streaming
// Query, prepared statements with bind-time ? resolution, Explain,
// and QueryStats.
package divlaws

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"divlaws/internal/plan"
)

// openSuppliers builds the paper's §4 suppliers-and-parts scenario
// through the public constructors.
func openSuppliers(opts ...Option) *DB {
	db := Open(opts...)
	db.MustRegister("supplies", MustNewRelation([]string{"s#", "p#"}, [][]any{
		{"s1", "p1"}, {"s1", "p2"}, {"s1", "p3"},
		{"s2", "p3"}, {"s2", "p4"},
		{"s3", "p1"}, {"s3", "p2"}, {"s3", "p3"}, {"s3", "p4"}, {"s3", "p5"},
		{"s4", "p5"},
	}))
	db.MustRegister("parts", MustNewRelation([]string{"p#", "color"}, [][]any{
		{"p1", "red"}, {"p2", "red"},
		{"p3", "blue"}, {"p4", "blue"},
		{"p5", "green"},
	}))
	return db
}

const apiQ1 = `SELECT s#, color
FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p#`

// q1Rows is the expected "supplier supplies all parts of the color"
// answer, sorted.
var q1Rows = []string{
	"s1/red", "s2/blue", "s3/blue", "s3/green", "s3/red", "s4/green",
}

// collect drains a cursor into sorted "a/b" strings via Scan.
func collect(t *testing.T, rows *Rows) []string {
	t.Helper()
	defer rows.Close()
	var out []string
	for rows.Next() {
		var s, c string
		if err := rows.Scan(&s, &c); err != nil {
			t.Fatalf("Scan: %v", err)
		}
		out = append(out, s+"/"+c)
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
	sort.Strings(out)
	return out
}

func TestQueryStreamsQuotient(t *testing.T) {
	db := openSuppliers()
	rows, err := db.Query(context.Background(), apiQ1)
	if err != nil {
		t.Fatal(err)
	}
	if cols := rows.Columns(); len(cols) != 2 || cols[0] != "s#" || cols[1] != "color" {
		t.Errorf("Columns = %v", cols)
	}
	got := collect(t, rows)
	if fmt.Sprint(got) != fmt.Sprint(q1Rows) {
		t.Errorf("Q1 = %v, want %v", got, q1Rows)
	}
}

func TestQueryPlaceholders(t *testing.T) {
	db := openSuppliers()
	rows, err := db.Query(context.Background(), `SELECT s#
FROM supplies AS s DIVIDE BY (
  SELECT p# FROM parts WHERE color = ?) AS p
ON s.p# = p.p#`, "blue")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var got []string
	for rows.Next() {
		var s string
		if err := rows.Scan(&s); err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	sort.Strings(got)
	if fmt.Sprint(got) != "[s2 s3]" {
		t.Errorf("blue suppliers = %v", got)
	}
}

func TestPreparedStatementRebinds(t *testing.T) {
	db := openSuppliers()
	stmt, err := db.Prepare(`SELECT s#
FROM supplies AS s DIVIDE BY (
  SELECT p# FROM parts WHERE color = ?) AS p
ON s.p# = p.p#`)
	if err != nil {
		t.Fatal(err)
	}
	if n := stmt.NumInput(); n != 1 {
		t.Errorf("NumInput = %d", n)
	}
	want := map[string]string{
		"blue":  "[s2 s3]",
		"red":   "[s1 s3]",
		"green": "[s3 s4]",
	}
	for color, expect := range want {
		rows, err := stmt.Query(context.Background(), color)
		if err != nil {
			t.Fatalf("%s: %v", color, err)
		}
		var got []string
		for rows.Next() {
			var s string
			if err := rows.Scan(&s); err != nil {
				t.Fatal(err)
			}
			got = append(got, s)
		}
		rows.Close()
		sort.Strings(got)
		if fmt.Sprint(got) != expect {
			t.Errorf("%s suppliers = %v, want %s", color, got, expect)
		}
	}

	// Wrong arity is a bind-time error.
	if _, err := stmt.Query(context.Background()); err == nil {
		t.Error("missing argument should error")
	}
	if _, err := stmt.Query(context.Background(), "blue", "red"); err == nil {
		t.Error("extra argument should error")
	}

	if err := stmt.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Query(context.Background(), "blue"); err == nil {
		t.Error("Query on closed statement should error")
	}
	if err := stmt.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

func TestStmtConcurrentQueryAndClose(t *testing.T) {
	// Close racing Query must neither race (run under -race in CI)
	// nor panic: each Query either runs on the loaded AST or reports
	// the statement closed.
	db := openSuppliers()
	stmt, err := db.Prepare(`SELECT s#
FROM supplies AS s DIVIDE BY (
  SELECT p# FROM parts WHERE color = ?) AS p
ON s.p# = p.p#`)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows, err := stmt.Query(context.Background(), "blue")
			if err != nil {
				if !strings.Contains(err.Error(), "closed statement") {
					t.Errorf("unexpected Query error: %v", err)
				}
				return
			}
			for rows.Next() {
			}
			rows.Close()
		}()
	}
	stmt.Close()
	wg.Wait()
	if n := stmt.NumInput(); n != 0 {
		t.Errorf("NumInput after Close = %d", n)
	}
}

func TestExplainReportsPipeline(t *testing.T) {
	// 2 workers: the 5-part divisor must hold at least 2 tuples per
	// worker for Law 13 partitioning to engage.
	db := openSuppliers(WithWorkers(2), WithParallelThreshold(1))
	ex, err := db.Explain(context.Background(), apiQ1)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"logical plan", "optimized plan", "partitioning"} {
		if !strings.Contains(ex.Report, want) {
			t.Errorf("Explain report missing %q:\n%s", want, ex.Report)
		}
	}
	notExists := `SELECT DISTINCT s#, color
	 FROM supplies AS s1, parts AS p1
	 WHERE NOT EXISTS (
	   SELECT * FROM parts AS p2
	   WHERE p2.color = p1.color AND NOT EXISTS (
	     SELECT * FROM supplies AS s2
	     WHERE s2.p# = p2.p# AND s2.s# = s1.s#))`
	if ex, err := db.Explain(context.Background(), notExists); err != nil || !ex.Detected {
		t.Errorf("NOT EXISTS detection flag: detected=%v err=%v", ex.Detected, err)
	}
	if ex, err := db.Explain(context.Background(), apiQ1); err != nil || ex.Detected {
		t.Errorf("plain DIVIDE BY must not set Detected, got %v err=%v", ex.Detected, err)
	}
	if _, err := db.Explain(context.Background(), `SELECT`); err == nil {
		t.Error("Explain of a parse error should error")
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.Explain(cancelled, apiQ1); err == nil {
		t.Error("Explain under a cancelled context should error")
	}
}

func TestQueryMatchesMaterializingCompatPath(t *testing.T) {
	// The streaming public path and the reference interpreter over
	// the bound plan must agree on every §4 query shape.
	db := openSuppliers(WithDataDependentRules())
	queries := []string{
		apiQ1,
		`SELECT s# FROM supplies AS s DIVIDE BY (
		   SELECT p# FROM parts WHERE color = 'blue') AS p ON s.p# = p.p#`,
		`SELECT DISTINCT s#, color
		 FROM supplies AS s1, parts AS p1
		 WHERE NOT EXISTS (
		   SELECT * FROM parts AS p2
		   WHERE p2.color = p1.color AND NOT EXISTS (
		     SELECT * FROM supplies AS s2
		     WHERE s2.p# = p2.p# AND s2.s# = s1.s#))`,
		`SELECT color, count(p#) AS n FROM parts GROUP BY color HAVING count(p#) >= 2`,
	}
	for _, q := range queries {
		rows, err := db.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		var streamed []string
		for rows.Next() {
			dest := make([]any, len(rows.Columns()))
			ptrs := make([]any, len(dest))
			for i := range dest {
				ptrs[i] = &dest[i]
			}
			if err := rows.Scan(ptrs...); err != nil {
				t.Fatal(err)
			}
			streamed = append(streamed, fmt.Sprint(dest...))
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		rows.Close()
		sort.Strings(streamed)

		node, err := db.inner.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		ref := plan.Eval(node)
		var want []string
		pos := ref.Schema().Positions(rows.Columns())
		for _, tup := range ref.Tuples() {
			row := make([]any, len(pos))
			for i, p := range pos {
				row[i] = tup[p].Native()
			}
			want = append(want, fmt.Sprint(row...))
		}
		sort.Strings(want)
		if fmt.Sprint(streamed) != fmt.Sprint(want) {
			t.Errorf("query %s:\nstreamed %v\nwant     %v", q, streamed, want)
		}
	}
}

func TestQueryStats(t *testing.T) {
	db := openSuppliers()
	rows, err := db.Query(context.Background(), apiQ1)
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	rows.Close()
	st := rows.Stats()
	if st.Total() == 0 {
		t.Error("Stats().Total() == 0 after a full stream")
	}
	var sawDivide bool
	for label := range st.Emitted {
		if strings.Contains(label, "divide") {
			sawDivide = true
		}
	}
	if !sawDivide {
		t.Errorf("no division operator in stats: %v", st.Emitted)
	}
	// The snapshot is a copy: mutating it must not corrupt the
	// collector.
	st.Emitted["bogus"] = 1
	if rows.Stats().Get("bogus") != 0 {
		t.Error("Stats snapshot aliases the collector")
	}
}

func TestRegisterAndRelationErrors(t *testing.T) {
	db := Open()
	if err := db.Register("", MustNewRelation([]string{"a"}, nil)); err == nil {
		t.Error("empty table name should error")
	}
	if err := db.Register("t", nil); err == nil {
		t.Error("nil relation should error")
	}
	if _, err := NewRelation(nil, nil); err == nil {
		t.Error("no columns should error")
	}
	if _, err := NewRelation([]string{"a", "a"}, nil); err == nil {
		t.Error("duplicate column should error")
	}
	if _, err := NewRelation([]string{""}, nil); err == nil {
		t.Error("empty column name should error")
	}
	if _, err := NewRelation([]string{"a"}, [][]any{{1, 2}}); err == nil {
		t.Error("arity mismatch should error")
	}
	if _, err := NewRelation([]string{"a"}, [][]any{{struct{}{}}}); err == nil {
		t.Error("unsupported cell type should error")
	}

	r := MustNewRelation([]string{"a", "b"}, [][]any{{1, "x"}, {1, "x"}, {2, "y"}})
	if r.Len() != 2 {
		t.Errorf("set semantics: Len = %d, want 2", r.Len())
	}
	if cols := r.Columns(); len(cols) != 2 || cols[0] != "a" {
		t.Errorf("Columns = %v", cols)
	}
	if rows := r.Rows(); len(rows) != 2 || rows[0][0] != int64(1) || rows[0][1] != "x" {
		t.Errorf("Rows = %v", rows)
	}
}

func TestQueryErrors(t *testing.T) {
	db := openSuppliers()
	if _, err := db.Query(context.Background(), `SELECT`); err == nil {
		t.Error("parse error should surface")
	}
	if _, err := db.Query(context.Background(), `SELECT x FROM nosuch`); err == nil {
		t.Error("unknown table should surface")
	}
	if _, err := db.Query(context.Background(), `SELECT s# FROM supplies WHERE p# = ?`); err == nil {
		t.Error("missing argument should surface")
	}
	if _, err := db.Query(context.Background(), `SELECT s# FROM supplies WHERE p# = ?`, struct{}{}); err == nil {
		t.Error("unsupported argument type should surface")
	}
}

func TestTableLookup(t *testing.T) {
	db := openSuppliers()
	r, ok := db.Table("parts")
	if !ok || r.Len() != 5 {
		t.Errorf("Table(parts) = %v, %v", r, ok)
	}
	if _, ok := db.Table("nosuch"); ok {
		t.Error("Table(nosuch) should be absent")
	}
}

func TestScanDestinations(t *testing.T) {
	db := Open()
	db.MustRegister("t", MustNewRelation([]string{"i", "f", "s", "b"}, [][]any{
		{7, 2.5, "x", true},
	}))
	rows, err := db.Query(context.Background(), `SELECT i, f, s, b FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatal("no row")
	}
	var (
		i  int64
		f  float64
		s  string
		b  bool
		av any
	)
	if err := rows.Scan(&i, &f, &s, &b); err != nil {
		t.Fatal(err)
	}
	if i != 7 || f != 2.5 || s != "x" || !b {
		t.Errorf("scanned %v %v %v %v", i, f, s, b)
	}
	var ii int
	if err := rows.Scan(&ii, &av, &av, &av); err != nil || ii != 7 {
		t.Errorf("int/any scan: %v %v", ii, err)
	}
	if err := rows.Scan(&s, &f, &s, &b); err == nil {
		t.Error("kind mismatch should error")
	}
	if err := rows.Scan(&i); err == nil {
		t.Error("arity mismatch should error")
	}
	var bad struct{}
	if err := rows.Scan(&i, &f, &s, &bad); err == nil {
		t.Error("unsupported destination should error")
	}
}

// The paper's Q3 restricted to one colour, the colour a placeholder:
// the bound argument must restrict the divisor exactly as the literal
// does, so the statement is detected as a division (not run as nested
// iteration) and returns the literal form's rows.
func TestParametrisedNotExistsDetected(t *testing.T) {
	const pattern = `SELECT DISTINCT s#
FROM supplies AS s1
WHERE NOT EXISTS (
  SELECT * FROM parts AS p2
  WHERE p2.color = %s AND NOT EXISTS (
    SELECT * FROM supplies AS s2
    WHERE s2.p# = p2.p# AND s2.s# = s1.s#))`
	db := openSuppliers()
	ctx := context.Background()
	drain := func(rows *Rows, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		var got []string
		for rows.Next() {
			var s string
			if err := rows.Scan(&s); err != nil {
				t.Fatal(err)
			}
			got = append(got, s)
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		sort.Strings(got)
		return fmt.Sprint(got)
	}
	stmt, err := db.Prepare(fmt.Sprintf(pattern, "?"))
	if err != nil {
		t.Fatal(err)
	}
	for color, want := range map[string]string{"blue": "[s2 s3]", "red": "[s1 s3]", "green": "[s3 s4]"} {
		got := drain(stmt.Query(ctx, color))
		literal := drain(db.Query(ctx, fmt.Sprintf(pattern, "'"+color+"'")))
		if got != want || literal != want {
			t.Errorf("%s: parametrised %s, literal %s, want %s", color, got, literal, want)
		}
		ex, err := db.Explain(ctx, fmt.Sprintf(pattern, "?"), color)
		if err != nil || !ex.Detected {
			t.Errorf("%s: Explain of the parametrised Q3: detected=%v err=%v", color, ex.Detected, err)
		}
	}
}

// Register racing a streaming correlated NOT EXISTS — the reproducer
// of the catalog data race (run under -race in CI). The subqueries
// are anti-semi-joins bound with the query, so nothing binds while the
// cursor streams; the stream must read the catalog snapshot its query
// was bound against, neither racing Register nor mixing the old
// supplies with the new parts.
func TestRegisterRacesCorrelatedNotExists(t *testing.T) {
	db := openSuppliers(WithoutDetection())
	const q3 = `SELECT DISTINCT s#, color
FROM supplies AS s1, parts AS p1
WHERE NOT EXISTS (
  SELECT * FROM parts AS p2
  WHERE p2.color = p1.color AND NOT EXISTS (
    SELECT * FROM supplies AS s2
    WHERE s2.p# = p2.p# AND s2.s# = s1.s#))`
	rows, err := db.Query(context.Background(), q3)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			db.MustRegister("parts", MustNewRelation([]string{"p#", "color"}, [][]any{{"p5", fmt.Sprint("c", i)}}))
			db.MustRegister(fmt.Sprint("t", i%4), MustNewRelation([]string{"x"}, [][]any{{i}}))
		}
	}()
	got := collect(t, rows)
	close(stop)
	wg.Wait()
	if fmt.Sprint(got) != fmt.Sprint(q1Rows) {
		t.Errorf("Q3 streamed across Register = %v, want the bind-time answer %v", got, q1Rows)
	}
}

// Eight goroutines run one prepared statement over the same aliased
// tables at once: every bind takes rename views of the same registered
// relations, which must be read-only on the source (run under -race).
func TestStmtQueryConcurrentOnAliasedTable(t *testing.T) {
	db := openLarge(t)
	stmt, err := db.Prepare(apiQ1)
	if err != nil {
		t.Fatal(err)
	}
	count := func() (int, error) {
		rows, err := stmt.Query(context.Background())
		if err != nil {
			return 0, err
		}
		defer rows.Close()
		n := 0
		for rows.Next() {
			n++
		}
		return n, rows.Err()
	}
	want, err := count()
	if err != nil || want == 0 {
		t.Fatalf("reference run: %d rows, err %v", want, err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if n, err := count(); err != nil || n != want {
					t.Errorf("concurrent Stmt.Query: %d rows (want %d), err %v", n, want, err)
				}
			}
		}()
	}
	wg.Wait()
}

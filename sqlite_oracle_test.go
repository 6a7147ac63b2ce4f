// The sqlite3 command-line shell as an external oracle: the paper's
// queries and the correlated NOT EXISTS queries run on the engine and
// on sqlite3 over the same relations, loaded as CSV, and must return
// the same distinct rows. sqlite3 has no DIVIDE BY, so a division is
// given to it as the paper's double NOT EXISTS (§4). The engine shares
// no code with sqlite3, so a fault both the engine and its reference
// interpreter share shows here.
package divlaws

import (
	"context"
	"encoding/csv"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"divlaws/internal/datagen"
	"divlaws/internal/relation"
)

// sqliteQuery is one query in the engine's SQL and in sqlite3's.
type sqliteQuery struct {
	name, engine, sqlite string
}

// q2Text is the paper's Q2: the suppliers of every part of one color.
const q2Text = `SELECT s#
FROM supplies AS s DIVIDE BY (
  SELECT p# FROM parts WHERE color = 'color0') AS p
ON s.p# = p.p#`

// quoteIDs quotes the '#' column names, which sqlite3 does not take
// bare.
var quoteIDs = strings.NewReplacer("s#", `"s#"`, "p#", `"p#"`)

// suppliersQueries run over supplies(s#, p#) and parts(p#, color).
var suppliersQueries = []sqliteQuery{
	{"q1", apiQ1, quoteIDs.Replace(apiQ3)},
	{"q2", q2Text, quoteIDs.Replace(`SELECT DISTINCT s#
FROM supplies AS s1
WHERE NOT EXISTS (
  SELECT * FROM parts AS p2
  WHERE p2.color = 'color0' AND NOT EXISTS (
    SELECT * FROM supplies AS s2
    WHERE s2.p# = p2.p# AND s2.s# = s1.s#))`)},
	{"q3", apiQ3, quoteIDs.Replace(apiQ3)},
	{"not-green", notGreen, quoteIDs.Replace(notGreen)},
}

// sqliteTables are the relations of one case, by table name.
type sqliteTables map[string]*relation.Relation

func TestQueriesMatchSQLite(t *testing.T) {
	shell, err := exec.LookPath("sqlite3")
	if err != nil {
		t.Skip("sqlite3 is not on PATH; the external oracle needs the sqlite3 shell")
	}
	ctx := context.Background()

	paper := openSuppliers()
	paperTables := sqliteTables{}
	for _, name := range []string{"supplies", "parts"} {
		r, _ := paper.Table(name)
		paperTables[name] = r.rel
	}
	supplies, parts := datagen.SuppliersParts{Suppliers: 30, Parts: 20, Colors: 3, AvgSupplied: 8, Seed: 1}.Generate()
	wideSupplies, wideParts := wideSuppliersParts()
	flags := MustNewRelation([]string{"id", "flag"}, [][]any{{"a", true}, {"b", false}, {"c", true}})
	notes := MustNewRelation([]string{"flag", "note"}, [][]any{{true, "on"}})

	cases := []struct {
		name    string
		tables  sqliteTables
		queries []sqliteQuery
	}{
		{"paper", paperTables, suppliersQueries},
		{"generated", sqliteTables{"supplies": supplies, "parts": parts}, suppliersQueries},
		{"wide", sqliteTables{"supplies": wideSupplies, "parts": wideParts}, suppliersQueries},
		{"flags", sqliteTables{"x": flags.rel, "y": notes.rel}, []sqliteQuery{{"exists-bool",
			`SELECT id, note FROM x, y WHERE EXISTS (SELECT * FROM y AS y2 WHERE y2.flag = x.flag)`,
			`SELECT DISTINCT id, note FROM x, y WHERE EXISTS (SELECT * FROM y AS y2 WHERE y2.flag = x.flag)`}}},
	}
	for _, c := range cases {
		dir := t.TempDir()
		var load strings.Builder
		load.WriteString(".mode csv\n")
		names := make([]string, 0, len(c.tables))
		for name := range c.tables {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			path := filepath.Join(dir, name+".csv")
			writeCSV(t, path, c.tables[name])
			fmt.Fprintf(&load, ".import %s %s\n", path, name)
		}
		for _, q := range c.queries {
			want := runSQLite(t, shell, load.String()+q.sqlite+";\n")
			if len(want) == 0 {
				t.Fatalf("%s/%s: sqlite3 returned no rows; an empty answer checks nothing", c.name, q.name)
			}
			t.Logf("%s/%s: %d rows", c.name, q.name, len(want))
			for _, opts := range []struct {
				name string
				opts []Option
			}{{"default", nil}, {"without-detection", []Option{WithoutDetection()}}, {"without-optimizer", []Option{WithoutOptimizer()}}} {
				db := Open(opts.opts...)
				for _, name := range names {
					db.MustRegister(name, &Relation{rel: c.tables[name]})
				}
				rows, err := db.Query(ctx, q.engine)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", c.name, q.name, opts.name, err)
				}
				if got := distinctSorted(engineRows(t, rows)); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s/%s/%s: engine %v, sqlite3 %v", c.name, q.name, opts.name, got, want)
				}
			}
		}
	}
}

// wideSuppliersParts is TestCorrelatedQ3SpillsUnderBudget's data: 24
// suppliers and 24 parts with 60-character identifiers.
func wideSuppliersParts() (supplies, parts *relation.Relation) {
	rng := rand.New(rand.NewSource(3))
	id := func(kind string, i int) string { return fmt.Sprintf("%s%059d", kind, i) }
	var s, p [][]any
	for pi := 0; pi < 24; pi++ {
		p = append(p, []any{id("p", pi), []string{"red", "green", "blue"}[pi%3]})
		for si := 0; si < 24; si++ {
			if si < 2 || rng.Intn(4) != 0 {
				s = append(s, []any{id("s", si), id("p", pi)})
			}
		}
	}
	return MustNewRelation([]string{"s#", "p#"}, s).rel, MustNewRelation([]string{"p#", "color"}, p).rel
}

// writeCSV writes r to path with a header row, which sqlite3's
// .import takes for the column names.
func writeCSV(t *testing.T, path string, r *relation.Relation) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := csv.NewWriter(f)
	if err := w.Write(r.Schema().Attrs()); err != nil {
		t.Fatal(err)
	}
	for _, tup := range r.Tuples() {
		rec := make([]string, len(tup))
		for i, v := range tup {
			rec[i] = v.String()
		}
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// runSQLite feeds script to a fresh in-memory sqlite3 and returns its
// CSV output rows, distinct and sorted.
func runSQLite(t *testing.T, shell, script string) []string {
	t.Helper()
	cmd := exec.Command(shell, "-batch", "-bail", ":memory:")
	cmd.Stdin = strings.NewReader(script)
	out, err := cmd.Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			t.Fatalf("sqlite3: %v: %s", err, ee.Stderr)
		}
		t.Fatalf("sqlite3: %v", err)
	}
	recs, err := csv.NewReader(strings.NewReader(string(out))).ReadAll()
	if err != nil {
		t.Fatalf("sqlite3 output: %v", err)
	}
	var rows []string
	for _, rec := range recs {
		rows = append(rows, strings.Join(rec, "/"))
	}
	return distinctSorted(rows)
}

// engineRows drains a cursor into "a/b" strings of its values.
func engineRows(t *testing.T, rows *Rows) []string {
	t.Helper()
	defer rows.Close()
	var out []string
	for rows.Next() {
		vals := make([]any, len(rows.Columns()))
		dest := make([]any, len(vals))
		for i := range vals {
			dest[i] = &vals[i]
		}
		if err := rows.Scan(dest...); err != nil {
			t.Fatal(err)
		}
		parts := make([]string, len(vals))
		for i, v := range vals {
			parts[i] = fmt.Sprint(v)
		}
		out = append(out, strings.Join(parts, "/"))
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// distinctSorted sorts rows and drops repeats.
func distinctSorted(rows []string) []string {
	sort.Strings(rows)
	out := rows[:0]
	for i, r := range rows {
		if i == 0 || r != rows[i-1] {
			out = append(out, r)
		}
	}
	return out
}

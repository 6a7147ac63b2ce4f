// Integration tests spanning the full stack: SQL front end →
// law-based optimizer → physical execution engine, checked against
// the reference interpreter; figure regeneration; and parallel
// operators under load.
package divlaws

import (
	"context"
	"strings"
	"testing"

	"divlaws/internal/datagen"
	"divlaws/internal/division"
	"divlaws/internal/exec"
	"divlaws/internal/figures"
	"divlaws/internal/fim"
	"divlaws/internal/optimizer"
	"divlaws/internal/plan"
	"divlaws/internal/relation"
	"divlaws/internal/scenarios"
	"divlaws/internal/schema"
	"divlaws/internal/sql"
	"divlaws/internal/value"
)

// newSuppliersDB builds a deterministic mid-sized database.
func newSuppliersDB(t *testing.T) *sql.DB {
	t.Helper()
	supplies, parts := datagen.SuppliersParts{
		Suppliers: 40, Parts: 24, Colors: 4, AvgSupplied: 10, Seed: 99,
	}.Generate()
	db := sql.NewDB()
	db.Register("supplies", supplies)
	db.Register("parts", parts)
	return db
}

func TestSQLThroughOptimizerAndEngine(t *testing.T) {
	db := newSuppliersDB(t)
	queries := []string{
		`SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p#`,
		`SELECT s# FROM supplies AS s DIVIDE BY (
            SELECT p# FROM parts WHERE color = 'color0') AS p ON s.p# = p.p#`,
		`SELECT s.s#, p.color FROM supplies AS s, parts AS p
         WHERE s.p# = p.p# AND p.color <> 'color1'`,
		`SELECT color, count(p#) AS n FROM parts GROUP BY color HAVING count(p#) >= 2`,
	}
	for _, q := range queries {
		node, err := db.Plan(q)
		if err != nil {
			t.Fatalf("plan %q: %v", q, err)
		}
		reference := plan.Eval(node)

		// Optimizer must preserve semantics.
		res := optimizer.Optimize(node, optimizer.Options{AllowDataDependent: true})
		if got := plan.Eval(res.Plan); !got.EquivalentTo(reference) {
			t.Fatalf("optimizer changed %q:\n%v\nvs\n%v", q, got, reference)
		}

		// Physical engine must agree with the interpreter, on both
		// the raw and the optimized plan.
		for _, n := range []plan.Node{node, res.Plan} {
			got, err := exec.Run(context.Background(), exec.Compile(n, nil))
			if err != nil {
				t.Fatalf("exec %q: %v", q, err)
			}
			if !got.EquivalentTo(reference) {
				t.Fatalf("engine diverged for %q", q)
			}
		}
	}
}

func TestQ1EqualsQ3OnGeneratedData(t *testing.T) {
	supplies, parts := datagen.SuppliersParts{
		Suppliers: 10, Parts: 8, Colors: 2, AvgSupplied: 5, Seed: 3,
	}.Generate()
	db := sql.NewDB()
	db.Register("supplies", supplies)
	db.Register("parts", parts)
	q1, err := db.Plan(`SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p#`)
	if err != nil {
		t.Fatal(err)
	}
	q3, err := db.Plan(`SELECT DISTINCT s#, color
FROM supplies AS s1, parts AS p1
WHERE NOT EXISTS (
  SELECT * FROM parts AS p2
  WHERE p2.color = p1.color AND NOT EXISTS (
    SELECT * FROM supplies AS s2
    WHERE s2.p# = p2.p# AND s2.s# = s1.s#))`)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := plan.Eval(q1), plan.Eval(q3); !a.EquivalentTo(b) {
		t.Fatalf("Q1 and Q3 disagree:\n%v\nvs\n%v", a, b)
	}
}

func TestEveryScenarioThroughEngine(t *testing.T) {
	// Every law scenario's LHS and RHS must agree when run on the
	// physical engine, not just the interpreter.
	for _, s := range scenarios.All() {
		lhs := s.Build(400, 2)
		rhs := s.MustApply(lhs)
		want := plan.Eval(lhs)
		for side, n := range map[string]plan.Node{"lhs": lhs, "rhs": rhs} {
			got, err := exec.Run(context.Background(), exec.Compile(n, nil))
			if err != nil {
				t.Fatalf("%s %s: %v", s.Name, side, err)
			}
			if !got.EquivalentTo(want) {
				t.Fatalf("%s %s diverges on the engine", s.Name, side)
			}
		}
	}
}

func TestFiguresStable(t *testing.T) {
	// Figure rendering must be deterministic (goldens rely on it).
	for _, f := range figures.All() {
		if f.Render() != f.Render() {
			t.Errorf("%s renders nondeterministically", f.ID)
		}
		if !strings.Contains(f.Render(), "(a)") {
			t.Errorf("%s missing caption structure", f.ID)
		}
	}
}

func TestParallelAgreesUnderLoad(t *testing.T) {
	r1, r2 := datagen.DividePair{
		Groups: 2000, GroupSize: 8, DivisorSize: 10,
		Domain: 100, HitRate: 0.25, Seed: 5,
	}.Generate()
	par, err := exec.Run(context.Background(), exec.CompileWith(&plan.ParallelDivide{
		Dividend: plan.NewScan("r1", r1), Divisor: plan.NewScan("r2", r2), Workers: 8,
	}, nil, exec.CompileOptions{}))
	if err != nil || !par.Equal(division.Divide(r1, r2)) {
		t.Errorf("parallel divide diverged under load (err %v)", err)
	}
	g1, g2 := datagen.GreatDividePair{
		Groups: 600, GroupSize: 8,
		DivisorGroups: 16, DivisorGroupSize: 5,
		Domain: 100, HitRate: 0.25, Seed: 5,
	}.Generate()
	par, err = exec.Run(context.Background(), exec.CompileWith(&plan.ParallelGreatDivide{
		Dividend: plan.NewScan("g1", g1), Divisor: plan.NewScan("g2", g2), Workers: 8,
	}, nil, exec.CompileOptions{}))
	if err != nil || !par.EquivalentTo(division.GreatDivide(g1, g2)) {
		t.Errorf("parallel great divide diverged under load (err %v)", err)
	}
}

func TestFIMThroughSQLAndMiner(t *testing.T) {
	// The §3 pipeline expressed in SQL must match the DivideMiner's
	// level-2 output.
	gen := datagen.Baskets{Transactions: 60, Items: 8, AvgSize: 4, Skew: 0, Seed: 13}
	lists := make(map[int64][]int64)
	for _, tx := range gen.Generate() {
		lists[tx.ID] = tx.Items
	}
	trans := fim.FromLists(lists)
	const minSup = 10

	results := fim.DivideMiner{}.Mine(trans, minSup)
	pairSupport := map[string]int{}
	for _, r := range results {
		if len(r.Items) == 2 {
			pairSupport[r.Items.Key()] = r.Support
		}
	}
	if len(pairSupport) == 0 {
		t.Skip("no frequent pairs at this support; dataset too sparse")
	}

	// Rebuild the level-2 candidates as a SQL table and count via
	// DIVIDE BY.
	cand := relation.New(schema.New("itemset", "item"))
	for _, r := range results {
		if len(r.Items) != 2 {
			continue
		}
		key := value.String(r.Items.Key())
		for _, it := range r.Items {
			cand.Insert(relation.Tuple{key, value.Int(it)})
		}
	}
	db := sql.NewDB()
	db.Register("transactions", trans.Relation())
	db.Register("candidates", cand)
	node, err := db.Plan(`
SELECT itemset, count(tid) AS support
FROM (SELECT tid, itemset
      FROM transactions AS t DIVIDE BY candidates AS c ON t.item = c.item) AS q
GROUP BY itemset
HAVING count(tid) >= ` + itoa(minSup))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, tp := range plan.Eval(node).Tuples() {
		got[tp[0].AsString()] = int(tp[1].AsInt())
	}
	for k, v := range pairSupport {
		if got[k] != v {
			t.Errorf("pair %s: SQL support %d, miner support %d", k, got[k], v)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

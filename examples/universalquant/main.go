// Universal quantification end to end: the NOT EXISTS → division
// detector (the rewriting algorithm §4 calls "not simple to
// devise") driven through the public divlaws API, plus the
// related-work extensions — Carlis's HAS operator and fuzzy division
// with a relaxed "almost all" quantifier.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"strings"
	"time"

	"divlaws"
	"divlaws/internal/datagen"
	"divlaws/internal/division"
	"divlaws/internal/fuzzy"
	"divlaws/internal/has"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/value"
)

const q3 = `SELECT DISTINCT s#, color
FROM supplies AS s1, parts AS p1
WHERE NOT EXISTS (
  SELECT * FROM parts AS p2
  WHERE p2.color = p1.color AND NOT EXISTS (
    SELECT * FROM supplies AS s2
    WHERE s2.p# = p2.p# AND s2.s# = s1.s#))`

func main() {
	// Part 1: the detector, through the public API. One database
	// detects (the default), the other is opened without detection so
	// the same query runs as the un-rewritten anti-semi-join plan.
	supplies, parts := datagen.SuppliersParts{
		Suppliers: 20, Parts: 14, Colors: 3, AvgSupplied: 7, Seed: 11,
	}.Generate()
	register := func(db *divlaws.DB) *divlaws.DB {
		db.MustRegister("supplies", divlaws.MustNewRelation(supplies.Schema().Attrs(), supplies.Rows()))
		db.MustRegister("parts", divlaws.MustNewRelation(parts.Schema().Attrs(), parts.Rows()))
		return db
	}
	detecting := register(divlaws.Open())
	antiJoin := register(divlaws.Open(divlaws.WithoutDetection()))

	ctx := context.Background()
	ex, err := detecting.Explain(ctx, q3)
	if err != nil {
		log.Fatal(err)
	}
	if !ex.Detected {
		log.Fatal("detector did not fire")
	}
	fmt.Println("double NOT EXISTS detected as a great divide:")
	fmt.Printf("  plan report:\n%s\n", indent(ex.Report))

	fastRows, fastTime := drainTimed(ctx, detecting)
	slowRows, slowTime := drainTimed(ctx, antiJoin)
	if fmt.Sprint(fastRows) != fmt.Sprint(slowRows) {
		log.Fatalf("detector produced a different answer:\n%v\nvs\n%v", fastRows, slowRows)
	}
	fmt.Printf("  detected: %v   anti-join plan: %v   (%.1fx)\n\n",
		fastTime.Round(time.Microsecond), slowTime.Round(time.Microsecond),
		float64(slowTime)/float64(fastTime))

	// Part 2: HAS — finer-grained qualification than division.
	suppliers := relation.FromRows(schema.New("s#"), [][]any{
		{"s1"}, {"s2"}, {"s3"},
	})
	rel := relation.FromRows(schema.New("s#", "p#"), [][]any{
		{"s1", "p1"}, {"s1", "p2"},
		{"s2", "p1"},
		{"s3", "p1"}, {"s3", "p2"}, {"s3", "p3"},
	})
	blue := relation.FromRows(schema.New("p#"), [][]any{{"p1"}, {"p2"}})
	fmt.Println("HAS associations against the blue parts {p1, p2}:")
	for _, a := range []has.Association{has.Exactly, has.StrictlyMoreThan, has.StrictlyLessThan} {
		fmt.Printf("  %-22s -> %v\n", a, rowsOf(has.HAS(suppliers, rel, blue, a)))
	}
	fmt.Printf("  %-22s -> %v  (= supplies ÷ blue: %v)\n\n",
		has.AtLeast, rowsOf(has.HAS(suppliers, rel, blue, has.AtLeast)),
		rowsOf(division.Divide(rel, blue)))

	// Part 3: fuzzy division with "almost all".
	fr1 := fuzzy.NewRelation(schema.New("s", "p"))
	for p := int64(1); p <= 3; p++ {
		fr1.Insert(relation.Tuple{value.String("s1"), value.Int(p)}, 1)
	}
	fr2 := fuzzy.NewRelation(schema.New("p"))
	for p := int64(1); p <= 4; p++ {
		fr2.Insert(relation.Tuple{value.Int(p)}, 1)
	}
	strict := fuzzy.Divide(fr1, fr2, fuzzy.Goedel)
	relaxed := fuzzy.OWADivide(fr1, fr2, fuzzy.Goedel,
		fuzzy.QuantifierWeights(fuzzy.AlmostAll(0.5), 4))
	s1 := relation.Tuple{value.String("s1")}
	fmt.Println("fuzzy division (supplier covering 3 of 4 parts):")
	fmt.Printf("  strict 'all' grade:        %.2f\n", strict.Grade(s1))
	fmt.Printf("  relaxed 'almost all' grade: %.2f\n", relaxed.Grade(s1))
}

// drainTimed streams q3 to exhaustion, returning the sorted result
// rows and the wall time from Query to the last tuple.
func drainTimed(ctx context.Context, db *divlaws.DB) ([]string, time.Duration) {
	start := time.Now()
	rows, err := db.Query(ctx, q3)
	if err != nil {
		log.Fatal(err)
	}
	defer rows.Close()
	var out []string
	for rows.Next() {
		var supplier, color string
		if err := rows.Scan(&supplier, &color); err != nil {
			log.Fatal(err)
		}
		out = append(out, supplier+"/"+color)
	}
	if err := rows.Err(); err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	sort.Strings(out)
	return out, elapsed
}

func rowsOf(r *relation.Relation) []string {
	var out []string
	for _, t := range r.Sorted() {
		out = append(out, t.String())
	}
	return out
}

func indent(s string) string {
	out := ""
	for _, line := range strings.Split(s, "\n") {
		out += "    " + line + "\n"
	}
	return out
}

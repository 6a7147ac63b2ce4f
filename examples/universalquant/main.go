// Universal quantification end to end: the NOT EXISTS → division
// detector (the rewriting algorithm §4 calls "not simple to
// devise") driven through the public divlaws API, timed against the
// same query run as the un-rewritten anti-semi-join plan.
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
)

const q3 = `SELECT DISTINCT s#, color
FROM supplies AS s1, parts AS p1
WHERE NOT EXISTS (
  SELECT * FROM parts AS p2
  WHERE p2.color = p1.color AND NOT EXISTS (
    SELECT * FROM supplies AS s2
    WHERE s2.p# = p2.p# AND s2.s# = s1.s#))`

func main() {
	// The detector, through the public API. One database detects (the
	// default), the other is opened without detection so the same
	// query runs as the un-rewritten anti-semi-join plan.
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
	fmt.Printf("  detected: %v   anti-join plan: %v   (%.1fx)\n",
		fastTime.Round(time.Microsecond), slowTime.Round(time.Microsecond),
		float64(slowTime)/float64(fastTime))
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

func indent(s string) string {
	out := ""
	for _, line := range strings.Split(s, "\n") {
		out += "    " + line + "\n"
	}
	return out
}

package main

import (
	"fmt"
	"math/rand"
	"sort"

	"divlaws/internal/datagen"
	"divlaws/internal/plan"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/sql"
	"divlaws/internal/value"
)

// class is one kind of query a round runs, on the suppliers-parts
// schema supplies(s#,p#), parts(p#,color).
type class struct {
	name string
	text string
	// param marks the one placeholder of the statement as the
	// dataset's colour; literal marks a %s in the text as the same,
	// quoted.
	param   bool
	literal bool
	// ordered results are checked row by row, in order.
	ordered bool
	// subsetOf names the class whose result a LIMIT without ORDER BY
	// cuts from: any `limit` of its rows are right.
	subsetOf string
	limit    int
}

const divideText = "SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p#"

var classes = map[string]class{
	"divide":       {name: "divide", text: divideText},
	"param_color":  {name: "param_color", text: "SELECT s# FROM supplies AS s DIVIDE BY (SELECT p# FROM parts WHERE color = ?) AS p ON s.p# = p.p#", param: true},
	"divide_limit": {name: "divide_limit", text: divideText + " LIMIT 5", subsetOf: "divide", limit: 5},
	"topk":         {name: "topk", text: divideText + " ORDER BY s# LIMIT 10", ordered: true},
	"notexists": {name: "notexists", text: `SELECT DISTINCT s# FROM supplies AS s1 WHERE NOT EXISTS (
  SELECT * FROM parts AS p2 WHERE p2.color = '%s' AND NOT EXISTS (
    SELECT * FROM supplies AS s2 WHERE s2.p# = p2.p# AND s2.s# = s1.s#))`, literal: true},
	"scan_wide": {name: "scan_wide", text: "SELECT s#, p# FROM supplies"},
	"big_sort":  {name: "big_sort", text: "SELECT s#, p# FROM supplies ORDER BY p#, s#", ordered: true},
}

// names are the classes' names, a workload's operations.
func names(cs []class) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.name
	}
	return out
}

func classList(which ...string) []class {
	out := make([]class, len(which))
	for i, n := range which {
		out[i] = classes[n]
	}
	return out
}

// dataset is a suppliers-parts database made from a seed. datagen
// inserts in map order, so the tuples are sorted and then shuffled by
// the seed: the same seed gives the same rows in the same order.
type dataset struct {
	supplies, parts []relation.Tuple
	color           string
}

func newDataset(suppliers, parts, avg int, seed int64) *dataset {
	const colors = 8
	sup, par := datagen.SuppliersParts{
		Suppliers: suppliers, Parts: parts, Colors: colors, AvgSupplied: avg, Seed: seed,
	}.Generate()
	rng := rand.New(rand.NewSource(seed))
	shuffled := func(r *relation.Relation) []relation.Tuple {
		ts := r.Sorted()
		rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
		return ts
	}
	d := &dataset{supplies: shuffled(sup), parts: shuffled(par)}
	// The colour the parameterised classes ask for: the one with the
	// median number of parts, so that its divisor is a like share of
	// the parts under every seed.
	d.color = medianColor(d.parts)
	return d
}

func medianColor(parts []relation.Tuple) string {
	n := map[string]int{}
	for _, t := range parts {
		n[t[1].AsString()]++
	}
	names := make([]string, 0, len(n))
	for c := range n {
		names = append(names, c)
	}
	sort.Slice(names, func(i, j int) bool {
		if n[names[i]] != n[names[j]] {
			return n[names[i]] < n[names[j]]
		}
		return names[i] < names[j]
	})
	return names[len(names)/2]
}

// anyRows renders tuples as the untyped rows divlaws.NewRelation takes.
func anyRows(ts []relation.Tuple) [][]any {
	rows := make([][]any, len(ts))
	for i, t := range ts {
		row := make([]any, len(t))
		for j, v := range t {
			row[j] = v.Native()
		}
		rows[i] = row
	}
	return rows
}

// sqlDB is the dataset behind the internal front end, tuples in the
// order the public DB holds them: the oracle binds against it, and
// the traced pass stages the pipeline on it.
func (d *dataset) sqlDB() *sql.DB {
	db := sql.NewDB()
	load := func(name string, attrs []string, ts []relation.Tuple) {
		r := relation.New(schema.New(attrs...))
		for _, t := range ts {
			r.Insert(t)
		}
		db.Register(name, r)
	}
	load("supplies", []string{"s#", "p#"}, d.supplies)
	load("parts", []string{"p#", "color"}, d.parts)
	return db
}

// sql is the text of a class's statement on this dataset. notexists
// carries its colour as a literal: the detector does not take a bound
// placeholder for a restriction on the divisor, and would leave the
// statement to nested iteration.
func (d *dataset) sql(c class) string {
	if c.literal {
		return fmt.Sprintf(c.text, d.color)
	}
	return c.text
}

// args are the values a class's statement is run with.
func (d *dataset) args(c class) []any {
	if c.param {
		return []any{d.color}
	}
	return nil
}

// bind substitutes a class's arguments and binds it, detection on, as
// DB.plan does before it optimizes.
func (d *dataset) bind(db *sql.DB, q *sql.Query, c class) (plan.Node, bool, error) {
	var vals []value.Value
	if c.param {
		vals = []value.Value{value.String(d.color)}
	}
	bound, err := sql.SubstituteParams(q, vals)
	if err != nil {
		return nil, false, err
	}
	return db.PlanQueryWithDetection(bound)
}

// check accumulates the hashes of a result's rows: how many, their sum
// for results in any order, their chain for ordered ones, and whether
// any lies outside the set a LIMIT may cut from.
type check struct {
	rows  int
	sum   uint64
	chain uint64
	stray bool
	in    map[uint64]bool
}

func (c *check) add(h uint64) {
	c.rows++
	c.sum += h
	c.chain = c.chain*fnvPrime + h
	if c.in != nil && !c.in[h] {
		c.stray = true
	}
}

// expect is what the oracle says a class returns, and the set of its
// row hashes where another class is any subset of it.
type expect struct {
	check
	set map[uint64]bool
}

// start readies a check for one operation of class c.
func (e *oracle) start(c class) check {
	if c.subsetOf != "" {
		return check{in: e.by[c.subsetOf].set}
	}
	return check{}
}

// ok reports whether the operation returned what the oracle expects.
func (e *oracle) ok(c class, got check) bool {
	want := e.by[c.name]
	switch {
	case c.subsetOf != "":
		return got.rows == want.rows && !got.stray
	case c.ordered:
		return got.rows == want.rows && got.chain == want.chain
	default:
		return got.rows == want.rows && got.sum == want.sum
	}
}

// oracle holds the expected result of every class of a workload.
type oracle struct {
	by map[string]expect
}

// newOracle evaluates each class's bound, unoptimized plan with the
// reference evaluator plan.Eval. rowHash turns a result tuple into the
// hash the measured side computes for the same row, so that the embedded
// and the served workloads share the oracle.
func newOracle(d *dataset, db *sql.DB, cs []class, rowHash func(relation.Tuple) uint64) (*oracle, error) {
	o := &oracle{by: map[string]expect{}}
	eval := func(c class) (expect, error) {
		q, err := sql.Parse(d.sql(c))
		if err != nil {
			return expect{}, err
		}
		node, detected, err := d.bind(db, q, c)
		if err != nil {
			return expect{}, err
		}
		if c.name == "notexists" && !detected {
			return expect{}, fmt.Errorf("notexists was not detected as a division")
		}
		var e expect
		for _, other := range cs {
			if other.subsetOf == c.name {
				e.set = map[uint64]bool{}
			}
		}
		for _, t := range plan.Eval(node).Tuples() {
			h := rowHash(t)
			e.add(h)
			if e.set != nil {
				e.set[h] = true
			}
		}
		return e, nil
	}
	for _, c := range cs {
		e, err := eval(c)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", c.name, err)
		}
		if c.subsetOf != "" {
			full, ok := o.by[c.subsetOf]
			if !ok {
				return nil, fmt.Errorf("oracle %s: %s must run before it", c.name, c.subsetOf)
			}
			e = expect{check: check{rows: min(c.limit, full.rows)}}
		}
		o.by[c.name] = e
	}
	if ne, ok := o.by["notexists"]; ok {
		if pc := o.by["param_color"]; ne.rows != pc.rows || ne.sum != pc.sum {
			return nil, fmt.Errorf("oracle: notexists (%d rows) differs from param_color (%d rows) for %s", ne.rows, pc.rows, d.color)
		}
	}
	for name, e := range o.by {
		if e.rows == 0 {
			return nil, fmt.Errorf("oracle: %s is empty for this seed", name)
		}
	}
	return o, nil
}

// The client's row hashes are FNV-1a written out here, not
// internal/hashkey: what the benchmark's own side of a round costs must
// not move with the engine's kernels.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashCell folds one cell and a separator into an FNV-1a row hash.
func hashCell(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return (h ^ 0xff) * fnvPrime
}

// hashStrings hashes a row scanned into strings.
func hashStrings(cells []string) uint64 {
	h := uint64(fnvOffset)
	for _, s := range cells {
		h = hashCell(h, s)
	}
	return h
}

// hashTuple is hashStrings over a tuple of string values.
func hashTuple(t relation.Tuple) uint64 {
	h := uint64(fnvOffset)
	for _, v := range t {
		h = hashCell(h, v.AsString())
	}
	return h
}

// hashBytes hashes one line of a served response.
func hashBytes(b []byte) uint64 {
	h := uint64(fnvOffset)
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

// Package figures regenerates every figure of the paper (Figures
// 1-11) from the library's operators: the inputs are the figures'
// example relations and all derived tables are computed, not
// transcribed. The figures command prints them; the tests compare
// each against the values printed in the paper.
package figures

import (
	"strings"

	"divlaws/internal/algebra"
	"divlaws/internal/division"
	"divlaws/internal/pred"
	"divlaws/internal/relation"
	"divlaws/internal/texttab"
	"divlaws/internal/value"
)

// Figure names one reproducible paper figure.
type Figure struct {
	ID     string
	Title  string
	Render func() string
}

// All returns the figures in paper order.
func All() []Figure {
	return []Figure{
		{"figure-1", "Division: r1 ÷ r2 = r3", Figure1},
		{"figure-2", "Generalized division: r1 ÷* r2 = r3", Figure2},
		{"figure-3", "Set containment join: r1 ⋈(b1⊇b2) r2 = r3", Figure3},
		{"figure-4", "An example for Law 1", Figure4},
		{"figure-5", "A counterexample to Law 2's precondition", Figure5},
		{"figure-6", "An illustration for Example 1", Figure6},
		{"figure-7", "An example for Law 8", Figure7},
		{"figure-8", "An example for Law 9", Figure8},
		{"figure-9", "An illustration of Example 3", Figure9},
		{"figure-10", "An example for Law 11", Figure10},
		{"figure-11", "An example for Law 12", Figure11},
	}
}

// ByID returns the named figure.
func ByID(id string) (Figure, bool) {
	for _, f := range All() {
		if f.ID == id {
			return f, true
		}
	}
	return Figure{}, false
}

// Fig1Dividend is relation r1 of Figures 1 and 2.
func Fig1Dividend() *relation.Relation {
	return relation.Ints([]string{"a", "b"}, [][]int64{
		{1, 1}, {1, 4},
		{2, 1}, {2, 2}, {2, 3}, {2, 4},
		{3, 1}, {3, 3}, {3, 4},
	})
}

// Fig2Divisor is relation r2 of Figure 2.
func Fig2Divisor() *relation.Relation {
	return relation.Ints([]string{"b", "c"}, [][]int64{
		{1, 1}, {2, 1}, {4, 1}, {1, 2}, {3, 2},
	})
}

// Figure1 renders the small divide of Figure 1.
func Figure1() string {
	r1 := Fig1Dividend()
	r2 := relation.Ints([]string{"b"}, [][]int64{{1}, {3}})
	r3 := division.Divide(r1, r2)
	return texttab.SideBySide(
		texttab.Item{Caption: "(a) r1 (dividend)", Rel: r1},
		texttab.Item{Caption: "(b) r2 (divisor)", Rel: r2},
		texttab.Item{Caption: "(c) r3 (quotient)", Rel: r3},
	)
}

// Figure2 renders the generalized division of Figure 2.
func Figure2() string {
	r1, r2 := Fig1Dividend(), Fig2Divisor()
	r3 := division.GreatDivide(r1, r2)
	return texttab.SideBySide(
		texttab.Item{Caption: "(a) r1 (dividend)", Rel: r1},
		texttab.Item{Caption: "(b) r2 (divisor)", Rel: r2},
		texttab.Item{Caption: "(c) r3 (quotient)", Rel: r3},
	)
}

// Figure3 renders the set containment join of Figure 3, which is
// Figure 2 in non-1NF form: r1 nests Figure 1's dividend on a, r2
// nests Figure 2's divisor on c, and the joined pairs (a, c) are the
// great divide's quotient r1 ÷* r2, each shown with both sets. The
// two operators agree exactly when no set is empty: an empty b2 would
// join every a, but its c has no divisor tuple for ÷* to see.
// Figure 3 has no empty set.
func Figure3() string {
	r1, r2 := Fig1Dividend(), Fig2Divisor()
	as, b1 := nest(r1, "a", "b")
	cs, b2 := nest(r2, "c", "b")

	var b strings.Builder
	b.WriteString("a  b1\n")
	for _, a := range as {
		b.WriteString(a.String() + "  " + setString(b1[a]) + "\n")
	}
	b.WriteString("(a) r1\n\n")
	b.WriteString("b2  c\n")
	for _, c := range cs {
		b.WriteString(setString(b2[c]) + "  " + c.String() + "\n")
	}
	b.WriteString("(b) r2\n\n")
	b.WriteString("a  b1  b2  c\n")
	for _, t := range division.GreatDivide(r1, r2).Reorder([]string{"a", "c"}).Sorted() {
		a, c := t[0], t[1]
		b.WriteString(a.String() + "  " + setString(b1[a]) + "  " +
			setString(b2[c]) + "  " + c.String() + "\n")
	}
	b.WriteString("(c) r3\n")
	return b.String()
}

// nest groups r's set attribute by its key attribute, as Figure 3's
// non-1NF relations do: the keys ascending, each with its members
// ascending.
func nest(r *relation.Relation, key, set string) ([]value.Value, map[value.Value][]value.Value) {
	var keys []value.Value
	members := map[value.Value][]value.Value{}
	for _, t := range r.Reorder([]string{key, set}).Sorted() {
		if _, ok := members[t[0]]; !ok {
			keys = append(keys, t[0])
		}
		members[t[0]] = append(members[t[0]], t[1])
	}
	return keys, members
}

// setString renders a nested set as the paper prints it: {1, 2, 4}.
func setString(members []value.Value) string {
	return "{" + relation.Tuple(members).String() + "}"
}

// Figure4 renders Law 1's walkthrough with all intermediates.
func Figure4() string {
	r1 := relation.Ints([]string{"a", "b"}, [][]int64{
		{1, 1}, {1, 4},
		{2, 1}, {2, 2}, {2, 3}, {2, 4},
		{3, 1}, {3, 3}, {3, 4},
		{4, 1}, {4, 3},
	})
	r2 := relation.Ints([]string{"b"}, [][]int64{{1}, {3}, {4}})
	r2a := relation.Ints([]string{"b"}, [][]int64{{1}, {3}})
	r2b := relation.Ints([]string{"b"}, [][]int64{{3}, {4}})
	inner := division.Divide(r1, r2a)
	mid := algebra.SemiJoin(r1, inner)
	r3 := division.Divide(mid, r2b)
	return texttab.SideBySide(
		texttab.Item{Caption: "(a) r1", Rel: r1},
		texttab.Item{Caption: "(b) r2", Rel: r2},
		texttab.Item{Caption: "(c) r2'", Rel: r2a},
		texttab.Item{Caption: "(d) r2''", Rel: r2b},
		texttab.Item{Caption: "(e) r1 ÷ r2'", Rel: inner},
		texttab.Item{Caption: "(f) r1 ⋉ (r1 ÷ r2')", Rel: mid},
		texttab.Item{Caption: "(g) r3", Rel: r3},
	)
}

// Figure5 renders the Law 2 precondition counterexample with the
// conflicting results.
func Figure5() string {
	r1a := relation.Ints([]string{"a", "b"}, [][]int64{{1, 1}, {1, 2}, {1, 3}})
	r1b := relation.Ints([]string{"a", "b"}, [][]int64{{1, 2}, {1, 4}})
	r2 := relation.Ints([]string{"b"}, [][]int64{{1}, {4}})
	union := division.Divide(algebra.Union(r1a, r1b), r2)
	distributed := algebra.Union(division.Divide(r1a, r2), division.Divide(r1b, r2))
	return texttab.SideBySide(
		texttab.Item{Caption: "(a) r1'", Rel: r1a},
		texttab.Item{Caption: "(b) r1''", Rel: r1b},
		texttab.Item{Caption: "(c) r2", Rel: r2},
		texttab.Item{Caption: "(r1' ∪ r1'') ÷ r2  [correct]", Rel: union},
		texttab.Item{Caption: "(r1' ÷ r2) ∪ (r1'' ÷ r2)  [wrong without c1]", Rel: distributed},
	)
}

// Figure6 renders Example 1's intermediates with p ≡ b < 3.
func Figure6() string {
	r1 := relation.Ints([]string{"a", "b"}, [][]int64{
		{1, 1}, {1, 4},
		{2, 1}, {2, 2}, {2, 3}, {2, 4},
		{3, 1}, {3, 3}, {3, 4},
		{4, 1}, {4, 3},
	})
	r2 := relation.Ints([]string{"b"}, [][]int64{{1}, {3}, {4}})
	p := pred.Compare(pred.Attr("b"), pred.Lt, pred.ConstInt(3))
	selR1 := algebra.Select(r1, p)
	selR2 := algebra.Select(r2, p)
	lhs := division.Divide(selR1, r2)
	positive := division.Divide(selR1, selR2)
	killSrc := algebra.Product(algebra.Project(r1, "a"), algebra.Select(r2, pred.Negate(p)))
	kill := algebra.Project(killSrc, "a")
	rhs := algebra.Diff(positive, kill)
	return texttab.SideBySide(
		texttab.Item{Caption: "(a) r1", Rel: r1},
		texttab.Item{Caption: "(b) σ(b<3)(r1)", Rel: selR1},
		texttab.Item{Caption: "(c) r2", Rel: r2},
		texttab.Item{Caption: "(d) σ(b<3)(r2)", Rel: selR2},
		texttab.Item{Caption: "(e) σ(b<3)(r1) ÷ r2", Rel: lhs},
		texttab.Item{Caption: "(f) σ(b<3)(r1) ÷ σ(b<3)(r2)", Rel: positive},
		texttab.Item{Caption: "(g) πa(r1) × σ(b>=3)(r2)", Rel: killSrc},
		texttab.Item{Caption: "(h) πa(πa(r1) × σ(b>=3)(r2))", Rel: kill},
		texttab.Item{Caption: "(i) (f) − (h)", Rel: rhs},
	)
}

// Figure7 renders Law 8's example.
func Figure7() string {
	r1s := relation.Ints([]string{"a1"}, [][]int64{{1}, {2}})
	r1ss := relation.Ints([]string{"a2", "b"}, [][]int64{
		{1, 1}, {1, 2}, {1, 3}, {2, 1}, {2, 3}, {3, 2}, {3, 3},
	})
	r2 := relation.Ints([]string{"b"}, [][]int64{{2}, {3}})
	product := algebra.Product(r1s, r1ss)
	inner := division.Divide(r1ss, r2)
	r3 := algebra.Product(r1s, inner)
	return texttab.SideBySide(
		texttab.Item{Caption: "(a) r1*", Rel: r1s},
		texttab.Item{Caption: "(b) r1**", Rel: r1ss},
		texttab.Item{Caption: "(c) r2", Rel: r2},
		texttab.Item{Caption: "(d) r1* × r1**", Rel: product},
		texttab.Item{Caption: "(e) r1** ÷ r2", Rel: inner},
		texttab.Item{Caption: "(f) r3", Rel: r3},
	)
}

// Figure8 renders Law 9's example.
func Figure8() string {
	r1s := relation.Ints([]string{"a", "b1"}, [][]int64{
		{1, 1}, {1, 2}, {1, 3}, {2, 2}, {2, 3}, {3, 1}, {3, 3}, {3, 4},
	})
	r1ss := relation.Ints([]string{"b2"}, [][]int64{{1}, {2}})
	r2 := relation.Ints([]string{"b1", "b2"}, [][]int64{{1, 2}, {3, 1}, {3, 2}})
	product := algebra.Product(r1s, r1ss)
	piB1 := algebra.Project(r2, "b1")
	piB2 := algebra.Project(r2, "b2")
	r3 := division.Divide(r1s, piB1)
	return texttab.SideBySide(
		texttab.Item{Caption: "(a) r1*", Rel: r1s},
		texttab.Item{Caption: "(b) r1**", Rel: r1ss},
		texttab.Item{Caption: "(c) r2", Rel: r2},
		texttab.Item{Caption: "(d) r1* × r1**", Rel: product},
		texttab.Item{Caption: "(e) πb1(r2)", Rel: piB1},
		texttab.Item{Caption: "(f) πb2(r2)", Rel: piB2},
		texttab.Item{Caption: "(g) r3", Rel: r3},
	)
}

// Figure9 renders Example 3's intermediates.
func Figure9() string {
	r1s := relation.Ints([]string{"a", "b1"}, [][]int64{
		{1, 1}, {1, 2}, {1, 3}, {2, 2}, {2, 3}, {3, 1}, {3, 3}, {3, 4},
	})
	r1ss := relation.Ints([]string{"b2"}, [][]int64{{1}, {2}, {4}})
	r2 := relation.Ints([]string{"b1", "b2"}, [][]int64{{1, 4}, {3, 4}})
	lt := pred.Compare(pred.Attr("b1"), pred.Lt, pred.Attr("b2"))
	joined := algebra.ThetaJoin(r1s, r1ss, lt)
	restricted := algebra.Project(algebra.Select(r2, lt), "b1")
	r3 := division.Divide(joined, r2)
	return texttab.SideBySide(
		texttab.Item{Caption: "(a) r1*", Rel: r1s},
		texttab.Item{Caption: "(b) r1**", Rel: r1ss},
		texttab.Item{Caption: "(c) r2", Rel: r2},
		texttab.Item{Caption: "(d) r1* ⋈(b1<b2) r1**", Rel: joined},
		texttab.Item{Caption: "(e) πb1(σ(b1<b2)(r2))", Rel: restricted},
		texttab.Item{Caption: "(f) r3", Rel: r3},
	)
}

// Figure10 renders Law 11's example: a singleton-group dividend from
// grouping on a.
func Figure10() string {
	r0 := relation.Ints([]string{"a", "x"}, [][]int64{
		{1, 1}, {1, 2}, {1, 3}, {2, 1}, {2, 3}, {3, 1}, {3, 3}, {3, 4},
	})
	r1 := algebra.Group(r0, []string{"a"}, []algebra.AggSpec{{Func: algebra.Sum, Attr: "x", As: "b"}})
	r2 := relation.Ints([]string{"b"}, [][]int64{{4}})
	semi := algebra.SemiJoin(r1, r2)
	result := algebra.Project(semi, "a")
	return texttab.SideBySide(
		texttab.Item{Caption: "(a) r0", Rel: r0},
		texttab.Item{Caption: "(b) r1 = aγsum(x)→b(r0)", Rel: r1},
		texttab.Item{Caption: "(c) r2", Rel: r2},
		texttab.Item{Caption: "(d) r1 ⋉ r2", Rel: semi},
		texttab.Item{Caption: "(e) πA(r1 ⋉ r2)", Rel: result},
	)
}

// Figure11 renders Law 12's example: singleton groups per divisor
// value from grouping on b.
func Figure11() string {
	r0 := relation.Ints([]string{"x", "b"}, [][]int64{
		{1, 1}, {1, 2}, {1, 3}, {2, 1}, {2, 3}, {3, 1}, {3, 3}, {3, 4},
	})
	r1 := algebra.Group(r0, []string{"b"}, []algebra.AggSpec{{Func: algebra.Sum, Attr: "x", As: "a"}})
	r1 = r1.Reorder([]string{"a", "b"})
	r2 := relation.Ints([]string{"b"}, [][]int64{{1}, {3}})
	semi := algebra.SemiJoin(r1, r2)
	result := algebra.Project(semi, "a")
	return texttab.SideBySide(
		texttab.Item{Caption: "(a) r0", Rel: r0},
		texttab.Item{Caption: "(b) r1 = bγsum(x)→a(r0)", Rel: r1},
		texttab.Item{Caption: "(c) r2", Rel: r2},
		texttab.Item{Caption: "(d) r1 ⋉ r2", Rel: semi},
		texttab.Item{Caption: "(e) πA(r1 ⋉ r2)", Rel: result},
	)
}

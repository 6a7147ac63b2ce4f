package division_test

import (
	"context"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"divlaws/internal/agg"
	"divlaws/internal/algebra"
	"divlaws/internal/division"
	"divlaws/internal/exec"
	"divlaws/internal/plan"
	"divlaws/internal/pred"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/value"
)

// impl is one way the tree computes a division of r1 by r2.
type impl struct {
	name string
	run  func(r1, r2 *relation.Relation) (*relation.Relation, error)
}

// builder makes a plan over r1 and r2.
type builder func(r1, r2 *relation.Relation) plan.Node

// direct wraps a materializing division.
func direct(fn func(r1, r2 *relation.Relation) *relation.Relation) func(r1, r2 *relation.Relation) (*relation.Relation, error) {
	return func(r1, r2 *relation.Relation) (*relation.Relation, error) { return fn(r1, r2), nil }
}

// viaEval evaluates the built plan with the reference interpreter.
func viaEval(build builder) func(r1, r2 *relation.Relation) (*relation.Relation, error) {
	return func(r1, r2 *relation.Relation) (*relation.Relation, error) { return plan.Eval(build(r1, r2)), nil }
}

// viaExec compiles and runs the built plan in the engine.
func viaExec(build builder) func(r1, r2 *relation.Relation) (*relation.Relation, error) {
	return func(r1, r2 *relation.Relation) (*relation.Relation, error) {
		return exec.Run(context.Background(), exec.CompileWith(build(r1, r2), nil, exec.CompileOptions{}))
	}
}

// definition is a paper definition of a division, built as a plan.
type definition struct {
	name  string
	build builder
}

// bothEvaluators checks each definition through plan.Eval and exec.
func bothEvaluators(defs ...definition) []impl {
	var out []impl
	for _, d := range defs {
		out = append(out, impl{d.name + "/eval", viaEval(d.build)}, impl{d.name + "/exec", viaExec(d.build)})
	}
	return out
}

// smallOps runs the ÷ operator itself: Definition 1 is the reference,
// the rest are the engine's algorithms and the hash kernel.
func smallOps() []impl {
	return []impl{
		{"reference", direct(algebra.Divide)},
		{"kernel", direct(division.HashDivide)},
		{"eval", viaEval(dividePlan(""))},
		{"exec/hash", viaExec(dividePlan(division.AlgoHash))},
		{"exec/merge-sort", viaExec(dividePlan(division.AlgoMergeSort))},
		{"exec/parallel", viaExec(func(r1, r2 *relation.Relation) plan.Node {
			return &plan.ParallelDivide{Dividend: plan.NewScan("r1", r1), Divisor: plan.NewScan("r2", r2), Workers: 3}
		})},
	}
}

// smallImpls adds §2.1's other definitions of ÷ as plans.
func smallImpls() []impl {
	return append(smallOps(), bothEvaluators(
		definition{"healy", func(r1, r2 *relation.Relation) plan.Node { return exec.SimulatedDividePlan("r1", r1, "r2", r2) }},
		definition{"maier", maierPlan},
		definition{"count", countPlan},
	)...)
}

// greatOps runs the ÷* operator itself.
func greatOps() []impl {
	return []impl{
		{"reference", direct(algebra.GreatDivide)},
		{"kernel", direct(division.HashGreatDivide)},
		{"eval", viaEval(greatDividePlan)},
		{"exec", viaExec(greatDividePlan)},
		{"exec/parallel", viaExec(func(r1, r2 *relation.Relation) plan.Node {
			return &plan.ParallelGreatDivide{Dividend: plan.NewScan("r1", r1), Divisor: plan.NewScan("r2", r2), Workers: 3}
		})},
	}
}

// greatImpls adds Theorem 1's definitions of ÷* as plans.
func greatImpls() []impl {
	return append(greatOps(), bothEvaluators(
		definition{"group-loop", groupLoopPlan},
		definition{"demolombe", demolombePlan},
		definition{"todd", toddPlan},
	)...)
}

func dividePlan(algo division.Algorithm) builder {
	return func(r1, r2 *relation.Relation) plan.Node {
		return &plan.Divide{Dividend: plan.NewScan("r1", r1), Divisor: plan.NewScan("r2", r2), Algo: algo}
	}
}

func greatDividePlan(r1, r2 *relation.Relation) plan.Node {
	return &plan.GreatDivide{Dividend: plan.NewScan("r1", r1), Divisor: plan.NewScan("r2", r2)}
}

func mustSplit(s division.Split, err error) division.Split {
	if err != nil {
		panic(err)
	}
	return s
}

// attrsEqual is σ's condition attrs = t.
func attrsEqual(attrs []string, t relation.Tuple) pred.Predicate {
	eq := make(pred.And, len(attrs))
	for i, a := range attrs {
		eq[i] = pred.Compare(pred.Attr(a), pred.Eq, pred.Const(t[i]))
	}
	return eq
}

func concat(lists ...[]string) []string {
	var out []string
	for _, l := range lists {
		out = append(out, l...)
	}
	return out
}

// maierPlan is Definition 3, r1 ÷ r2 = ⋂_{t∈r2} πA(σ_{B=t}(r1)), with
// πA(r1) for an empty divisor (the intersection over no sets within
// the candidates).
func maierPlan(r1, r2 *relation.Relation) plan.Node {
	a := mustSplit(division.SmallSplit(r1.Schema(), r2.Schema())).A.Attrs()
	dividend := plan.NewScan("r1", r1)
	var out plan.Node = &plan.Project{Input: dividend, Attrs: a}
	for i, t := range r2.Tuples() {
		sel := &plan.Project{Input: &plan.Select{Input: dividend, Pred: attrsEqual(r2.Schema().Attrs(), t)}, Attrs: a}
		if i == 0 {
			out = sel
		} else {
			out = plan.Intersect(out, sel)
		}
	}
	return out
}

// countPlan is counting division (paper footnote 1, after Graefe &
// Cole): γ count over r1 ⋉ r2 per A, kept where the count is |r2|.
// Relations are sets, so the count is of distinct B-values. An empty
// divisor leaves no semi-join to count: the quotient is πA(r1).
func countPlan(r1, r2 *relation.Relation) plan.Node {
	a := mustSplit(division.SmallSplit(r1.Schema(), r2.Schema())).A.Attrs()
	dividend := plan.NewScan("r1", r1)
	if r2.Empty() {
		return &plan.Project{Input: dividend, Attrs: a}
	}
	counted := &plan.Group{
		Input: &plan.SemiJoin{Left: dividend, Right: plan.NewScan("r2", r2)},
		By:    a,
		Aggs:  []agg.AggSpec{{Func: agg.Count, As: "·count"}},
	}
	full := pred.Compare(pred.Attr("·count"), pred.Eq, pred.ConstInt(int64(r2.Len())))
	return &plan.Project{Input: &plan.Select{Input: counted, Pred: full}, Attrs: a}
}

// groupLoopPlan is Definition 4, set containment division:
// r1 ÷* r2 = ⋃_{t∈πC(r2)} (r1 ÷ πB(σ_{C=t}(r2))) × (t).
func groupLoopPlan(r1, r2 *relation.Relation) plan.Node {
	split := mustSplit(division.GreatSplit(r1.Schema(), r2.Schema()))
	dividend, divisor := plan.NewScan("r1", r1), plan.NewScan("r2", r2)
	cPos := r2.Schema().Positions(split.C.Attrs())
	var out plan.Node = plan.NewScan("∅", relation.New(split.Quotient()))
	seen := relation.New(split.C)
	for _, t := range r2.Tuples() {
		c := t.Project(cPos)
		if !seen.Insert(c) {
			continue
		}
		group := &plan.Project{Input: &plan.Select{Input: divisor, Pred: attrsEqual(split.C.Attrs(), c)}, Attrs: split.B.Attrs()}
		only := relation.New(split.C)
		only.Insert(c)
		out = plan.Union(out, &plan.Product{
			Left:  &plan.Divide{Dividend: dividend, Divisor: group},
			Right: plan.NewScan("t", only),
		})
	}
	return out
}

// demolombePlan is Definition 5, Demolombe's generalized division:
// (πA(r1) × πC(r2)) − π_{A∪C}((πA(r1) × r2) − (r1 × πC(r2))).
func demolombePlan(r1, r2 *relation.Relation) plan.Node {
	return definition56(r1, r2, func(dividend, piC plan.Node) plan.Node {
		return &plan.Product{Left: dividend, Right: piC}
	})
}

// toddPlan is Definition 6, Todd's great divide: Definition 5 with
// r1 ⋈ r2 for r1 × πC(r2).
func toddPlan(r1, r2 *relation.Relation) plan.Node {
	divisor := plan.NewScan("r2", r2)
	return definition56(r1, r2, func(dividend, _ plan.Node) plan.Node {
		return &plan.Join{Left: dividend, Right: divisor}
	})
}

// definition56 is Definitions 5 and 6 with the subtrahend's right
// operand, r1 × πC(r2) or r1 ⋈ r2, made by right.
func definition56(r1, r2 *relation.Relation, right func(dividend, piC plan.Node) plan.Node) plan.Node {
	split := mustSplit(division.GreatSplit(r1.Schema(), r2.Schema()))
	a, b, c := split.A.Attrs(), split.B.Attrs(), split.C.Attrs()
	dividend, divisor := plan.NewScan("r1", r1), plan.NewScan("r2", r2)
	piA := &plan.Project{Input: dividend, Attrs: a}
	piC := &plan.Project{Input: divisor, Attrs: c}
	left := &plan.Project{Input: &plan.Product{Left: piA, Right: divisor}, Attrs: concat(a, b, c)}
	sub := &plan.Project{Input: right(dividend, piC), Attrs: concat(a, b, c)}
	missing := &plan.Project{Input: plan.Diff(left, sub), Attrs: concat(a, c)}
	return plan.Diff(&plan.Product{Left: piA, Right: piC}, missing)
}

// keySet renders a relation as its sorted set of injective tuple
// keys, an oracle independent of hash-based Equal/Contains.
func keySet(r *relation.Relation) string {
	keys := make([]string, 0, r.Len())
	for _, t := range r.Tuples() {
		keys = append(keys, t.Key())
	}
	sort.Strings(keys)
	return strings.Join(keys, "|")
}

// checkAgainst runs every impl on r1 and r2 and fails unless each
// returns want's tuples, columns matched by name, compared by their
// keys.
func checkAgainst(t *testing.T, impls []impl, r1, r2, want *relation.Relation) {
	t.Helper()
	for _, im := range impls {
		got, err := im.run(r1, r2)
		if err != nil {
			t.Fatalf("%s: %v", im.name, err)
		}
		if !got.Schema().EqualSet(want.Schema()) {
			t.Fatalf("%s: schema %v, want %v", im.name, got.Schema(), want.Schema())
		}
		if g, w := keySet(got.Reorder(want.Schema().Attrs())), keySet(want); g != w {
			t.Fatalf("%s: quotient\n%v\nwant\n%v\nr1:\n%v\nr2:\n%v", im.name, got, want, r1, r2)
		}
	}
}

// fig1Dividend is relation r1 from the paper's Figure 1 (reused in
// Figure 2).
func fig1Dividend() *relation.Relation {
	return relation.Ints([]string{"a", "b"}, [][]int64{
		{1, 1}, {1, 4},
		{2, 1}, {2, 2}, {2, 3}, {2, 4},
		{3, 1}, {3, 3}, {3, 4},
	})
}

func TestFigure1SmallDivide(t *testing.T) {
	// Paper Figure 1: r1 ÷ r2 = r3 with r2 = {1, 3}, r3 = {2, 3}.
	r2 := relation.Ints([]string{"b"}, [][]int64{{1}, {3}})
	want := relation.Ints([]string{"a"}, [][]int64{{2}, {3}})
	checkAgainst(t, smallImpls(), fig1Dividend(), r2, want)
}

func TestFigure2GreatDivide(t *testing.T) {
	// Paper Figure 2: r1 ÷* r2 = r3.
	r2 := relation.Ints([]string{"b", "c"}, [][]int64{
		{1, 1}, {2, 1}, {4, 1},
		{1, 2}, {3, 2},
	})
	want := relation.Ints([]string{"a", "c"}, [][]int64{{2, 1}, {2, 2}, {3, 2}})
	checkAgainst(t, greatImpls(), fig1Dividend(), r2, want)
}

func TestSmallSplit(t *testing.T) {
	s, err := division.SmallSplit(schema.New("a", "b", "c"), schema.New("b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	if !s.A.Equal(schema.New("a")) || !s.B.Equal(schema.New("b", "c")) {
		t.Errorf("split = %+v", s)
	}
	if _, err := division.SmallSplit(schema.New("a"), schema.New()); err == nil {
		t.Error("empty divisor schema should fail")
	}
	if _, err := division.SmallSplit(schema.New("a", "b"), schema.New("z")); err == nil {
		t.Error("non-subset divisor should fail")
	}
	if _, err := division.SmallSplit(schema.New("b"), schema.New("b")); err == nil {
		t.Error("empty quotient attribute set should fail")
	}
}

func TestGreatSplit(t *testing.T) {
	s, err := division.GreatSplit(schema.New("a", "b"), schema.New("b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	if !s.A.Equal(schema.New("a")) || !s.B.Equal(schema.New("b")) || !s.C.Equal(schema.New("c")) {
		t.Errorf("split = %+v", s)
	}
	if _, err := division.GreatSplit(schema.New("a"), schema.New("c")); err == nil {
		t.Error("disjoint schemas should fail")
	}
	if _, err := division.GreatSplit(schema.New("b"), schema.New("b", "c")); err == nil {
		t.Error("no quotient attributes should fail")
	}
	if _, err := division.GreatSplit(schema.New("a", "b"), schema.New("b")); err == nil {
		t.Error("no group attributes should fail (that is a small divide)")
	}
}

func TestDivideEmptyDivisor(t *testing.T) {
	// r1 ÷ ∅ = πA(r1): every group trivially contains the empty set.
	want := relation.Ints([]string{"a"}, [][]int64{{1}, {2}, {3}})
	checkAgainst(t, smallImpls(), fig1Dividend(), relation.New(schema.New("b")), want)
}

func TestDivideEmptyDividend(t *testing.T) {
	r1 := relation.New(schema.New("a", "b"))
	r2 := relation.Ints([]string{"b"}, [][]int64{{1}})
	checkAgainst(t, smallImpls(), r1, r2, relation.New(schema.New("a")))
}

func TestDivideNoQualifyingGroup(t *testing.T) {
	r1 := relation.Ints([]string{"a", "b"}, [][]int64{{1, 1}, {2, 2}})
	r2 := relation.Ints([]string{"b"}, [][]int64{{1}, {2}})
	checkAgainst(t, smallImpls(), r1, r2, relation.New(schema.New("a")))
}

func TestDivideDivisorValueAbsentFromDividend(t *testing.T) {
	// A divisor value no dividend group holds empties the quotient.
	// Int(1) and Float(1.0) are such a pair: value.Compare equates
	// them, the set key does not, so a division that groups or
	// matches on value.Compare alone answers {1}. The σ-based
	// definitions compare by value.Compare by design, so those rows
	// run the operators only.
	floatRow := relation.New(schema.New("a", "b"))
	floatRow.Insert(relation.Tuple{value.Int(1), value.Float(1.0)})
	intB := relation.New(schema.New("b"))
	intB.Insert(relation.Tuple{value.Int(1)})
	intBC := relation.New(schema.New("b", "c"))
	intBC.Insert(relation.Tuple{value.Int(1), value.Int(7)})
	for _, tc := range []struct {
		name   string
		impls  []impl
		r1, r2 *relation.Relation
		want   schema.Schema
	}{
		{"value 99", smallImpls(),
			relation.Ints([]string{"a", "b"}, [][]int64{{1, 1}, {1, 2}}),
			relation.Ints([]string{"b"}, [][]int64{{1}, {99}}), schema.New("a")},
		{"Int(1) is not Float(1.0)", smallOps(), floatRow, intB, schema.New("a")},
		{"great: Int(1) is not Float(1.0)", greatOps(), floatRow, intBC, schema.New("a", "c")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkAgainst(t, tc.impls, tc.r1, tc.r2, relation.New(tc.want))
		})
	}
}

func TestDivideMultiAttributeB(t *testing.T) {
	// B = {b1, b2}: containment over composite elements.
	r1 := relation.Ints([]string{"a", "b1", "b2"}, [][]int64{
		{1, 1, 1}, {1, 2, 2},
		{2, 1, 1}, {2, 2, 2}, {2, 3, 3},
	})
	r2 := relation.Ints([]string{"b1", "b2"}, [][]int64{{1, 1}, {2, 2}})
	want := relation.Ints([]string{"a"}, [][]int64{{1}, {2}})
	checkAgainst(t, smallImpls(), r1, r2, want)
	// Divisor column order must not matter.
	r2swapped := relation.Ints([]string{"b2", "b1"}, [][]int64{{1, 1}, {2, 2}})
	checkAgainst(t, smallImpls(), r1, r2swapped, want)
}

func TestDivideMultiAttributeA(t *testing.T) {
	r1 := relation.Ints([]string{"a1", "a2", "b"}, [][]int64{
		{1, 1, 1}, {1, 1, 2},
		{1, 2, 1},
	})
	r2 := relation.Ints([]string{"b"}, [][]int64{{1}, {2}})
	want := relation.Ints([]string{"a1", "a2"}, [][]int64{{1, 1}})
	checkAgainst(t, smallImpls(), r1, r2, want)
}

func TestDivideSchemaViolationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for invalid schemas")
		}
	}()
	algebra.Divide(relation.Ints([]string{"a"}, nil), relation.Ints([]string{"b"}, nil))
}

func TestGreatDivideEmptyDivisor(t *testing.T) {
	// r1 ÷* ∅ = ∅: there is no divisor group.
	r2 := relation.New(schema.New("b", "c"))
	checkAgainst(t, greatImpls(), fig1Dividend(), r2, relation.New(schema.New("a", "c")))
}

func TestGreatDivideEmptyDividend(t *testing.T) {
	r1 := relation.New(schema.New("a", "b"))
	r2 := relation.Ints([]string{"b", "c"}, [][]int64{{1, 1}})
	checkAgainst(t, greatImpls(), r1, r2, relation.New(schema.New("a", "c")))
}

func TestGreatDivideMultiAttributeC(t *testing.T) {
	r1 := relation.Ints([]string{"a", "b"}, [][]int64{{1, 1}, {1, 2}, {2, 1}})
	r2 := relation.Ints([]string{"b", "c1", "c2"}, [][]int64{
		{1, 10, 100},
		{2, 10, 100},
		{1, 20, 200},
	})
	want := relation.Ints([]string{"a", "c1", "c2"}, [][]int64{
		{1, 10, 100}, {1, 20, 200}, {2, 20, 200},
	})
	checkAgainst(t, greatImpls(), r1, r2, want)
}

// randDatabase builds a random dividend/divisor pair with small
// domains so containment happens often.
func randDatabase(rng *rand.Rand, nDividend, nDivisor, aDom, bDom, cDom int) (r1, r2 *relation.Relation) {
	r1 = relation.New(schema.New("a", "b"))
	for i := 0; i < nDividend; i++ {
		r1.Insert(relation.Tuple{
			value.Int(int64(rng.Intn(aDom))),
			value.Int(int64(rng.Intn(bDom))),
		})
	}
	r2 = relation.New(schema.New("b", "c"))
	for i := 0; i < nDivisor; i++ {
		r2.Insert(relation.Tuple{
			value.Int(int64(rng.Intn(bDom))),
			value.Int(int64(rng.Intn(cDom))),
		})
	}
	return r1, r2
}

// projectB is the divisor's B column, a small-divide divisor.
func projectB(r2 *relation.Relation) *relation.Relation {
	out := relation.New(schema.New("b"))
	for _, t := range r2.Tuples() {
		out.Insert(t[:1])
	}
	return out
}

func TestAllSmallDivideAlgorithmsAgreeProperty(t *testing.T) {
	// Every algorithm and every definition of §2.1, through plan.Eval
	// and exec, agrees with the reference (Definition 1).
	rng := rand.New(rand.NewSource(7))
	impls := smallImpls()
	for trial := 0; trial < 300; trial++ {
		r1, r2full := randDatabase(rng, rng.Intn(30), rng.Intn(8), 5, 6, 1)
		r2 := projectB(r2full)
		checkAgainst(t, impls, r1, r2, algebra.Divide(r1, r2))
	}
}

func TestTheorem1GreatDivideDefinitionsEquivalentProperty(t *testing.T) {
	// Theorem 1: ÷*1 (group loop), ÷*2 (Demolombe), ÷*3 (Todd) are
	// equivalent, through plan.Eval and exec; the engine and the hash
	// kernel agree with the reference as well.
	rng := rand.New(rand.NewSource(11))
	impls := greatImpls()
	for trial := 0; trial < 200; trial++ {
		r1, r2 := randDatabase(rng, rng.Intn(30), rng.Intn(12), 4, 5, 3)
		checkAgainst(t, impls, r1, r2, algebra.GreatDivide(r1, r2))
	}
}

func TestTheorem2NonCommutativity(t *testing.T) {
	// Theorem 2: r2 ÷ r1 is schema-invalid when r1 ÷ r2 is valid
	// (the divisor must have strictly fewer attributes).
	r1sch, r2sch := schema.New("a", "b"), schema.New("b")
	if _, err := division.SmallSplit(r1sch, r2sch); err != nil {
		t.Fatalf("forward direction should be valid: %v", err)
	}
	if _, err := division.SmallSplit(r2sch, r1sch); err == nil {
		t.Error("r2 ÷ r1 must be an invalid expression")
	}
}

func TestTheorem3NonAssociativity(t *testing.T) {
	// Theorem 3: schemas cannot satisfy both r1 ÷ (r2 ÷ r3) and
	// (r1 ÷ r2) ÷ r3 with equal results in general. We exhibit the
	// schema-level contradiction: with A1 ⊇ A2 ⊇ A3 the left form
	// has schema A1 − (A2 − A3) and the right A1 − A2 − A3, which
	// differ whenever A3 ∩ A2 ≠ ∅.
	a1 := schema.New("x", "y", "z")
	a2 := schema.New("y", "z")
	a3 := schema.New("z")
	inner, err := division.SmallSplit(a2, a3) // r2 ÷ r3 : schema {y}
	if err != nil {
		t.Fatal(err)
	}
	leftOuter, err := division.SmallSplit(a1, inner.A) // r1 ÷ (r2 ÷ r3) : schema {x, z}
	if err != nil {
		t.Fatal(err)
	}
	right1, err := division.SmallSplit(a1, a2) // r1 ÷ r2 : schema {x}
	if err != nil {
		t.Fatal(err)
	}
	// (r1 ÷ r2) ÷ r3 is invalid: {z} is not a subset of {x}.
	if _, err := division.SmallSplit(right1.A, a3); err == nil {
		t.Error("(r1 ÷ r2) ÷ r3 should be schema-invalid here")
	}
	if leftOuter.A.Equal(right1.A) {
		t.Error("result schemas must differ, illustrating non-associativity")
	}
}

func TestGreatDivideDegeneratesToSmallDivide(t *testing.T) {
	// Darwen & Date: with a single divisor group, great divide's
	// quotient restricted to A equals the small divide by that group.
	r1 := fig1Dividend()
	r2 := relation.Ints([]string{"b", "c"}, [][]int64{{1, 7}, {3, 7}})
	small := algebra.Divide(r1, relation.Ints([]string{"b"}, [][]int64{{1}, {3}}))
	want := relation.New(schema.New("a", "c"))
	for _, q := range small.Tuples() {
		want.Insert(q.Concat(relation.Tuple{value.Int(7)}))
	}
	checkAgainst(t, greatImpls(), r1, r2, want)
}

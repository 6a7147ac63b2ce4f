package plan

import (
	"strings"
	"testing"

	"divlaws/internal/agg"
	"divlaws/internal/algebra"
	"divlaws/internal/division"
	"divlaws/internal/pred"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
)

func scanR1() *Scan {
	return NewScan("r1", relation.Ints([]string{"a", "b"}, [][]int64{
		{1, 1}, {1, 4}, {2, 1}, {2, 2}, {2, 3}, {2, 4}, {3, 1}, {3, 3}, {3, 4},
	}))
}

func scanR2() *Scan {
	return NewScan("r2", relation.Ints([]string{"b"}, [][]int64{{1}, {3}}))
}

func TestSchemas(t *testing.T) {
	r1, r2 := scanR1(), scanR2()
	cases := []struct {
		n    Node
		want schema.Schema
	}{
		{r1, schema.New("a", "b")},
		{&Select{Input: r1, Pred: pred.True}, schema.New("a", "b")},
		{&Project{Input: r1, Attrs: []string{"b"}}, schema.New("b")},
		{Union(r1, r1), schema.New("a", "b")},
		{Intersect(r1, r1), schema.New("a", "b")},
		{Diff(r1, r1), schema.New("a", "b")},
		{&Product{Left: &Project{Input: r1, Attrs: []string{"a"}}, Right: r2}, schema.New("a", "b")},
		{&Join{Left: r1, Right: r2}, schema.New("a", "b")},
		{&SemiJoin{Left: r1, Right: r2}, schema.New("a", "b")},
		{&AntiSemiJoin{Left: r1, Right: r2}, schema.New("a", "b")},
		{&Divide{Dividend: r1, Divisor: r2}, schema.New("a")},
		{&Group{Input: r1, By: []string{"a"}, Aggs: []agg.AggSpec{{Func: agg.Count, As: "c"}}}, schema.New("a", "c")},
		{&Rename{Input: r2, From: "b", To: "x"}, schema.New("x")},
	}
	for _, tc := range cases {
		if got := tc.n.Schema(); !got.Equal(tc.want) {
			t.Errorf("%s schema = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestGreatDivideSchema(t *testing.T) {
	r1 := scanR1()
	r2 := NewScan("r2", relation.Ints([]string{"b", "c"}, [][]int64{{1, 1}}))
	n := &GreatDivide{Dividend: r1, Divisor: r2}
	if got := n.Schema(); !got.Equal(schema.New("a", "c")) {
		t.Errorf("GreatDivide schema = %v", got)
	}
}

func TestDivideSchemaPanicsOnViolation(t *testing.T) {
	bad := &Divide{Dividend: scanR2(), Divisor: scanR2()}
	defer func() {
		if recover() == nil {
			t.Error("expected schema panic")
		}
	}()
	bad.Schema()
}

func TestEvalMatchesAlgebra(t *testing.T) {
	r1, r2 := scanR1(), scanR2()
	div := &Divide{Dividend: r1, Divisor: r2}
	want := algebra.Divide(r1.Rel, r2.Rel)
	if got := Eval(div); !got.Equal(want) {
		t.Errorf("Eval(Divide) = %v want %v", got, want)
	}

	sel := &Select{Input: r1, Pred: pred.Compare(pred.Attr("b"), pred.Lt, pred.ConstInt(3))}
	if got := Eval(sel); !got.Equal(algebra.Select(r1.Rel, sel.Pred)) {
		t.Error("Eval(Select) mismatch")
	}

	pi := &Project{Input: r1, Attrs: []string{"a"}}
	if got := Eval(pi); !got.Equal(algebra.Project(r1.Rel, "a")) {
		t.Error("Eval(Project) mismatch")
	}

	if got := Eval(Union(r1, r1)); !got.Equal(r1.Rel) {
		t.Error("Eval(Union) mismatch")
	}
	if got := Eval(Intersect(r1, r1)); !got.Equal(r1.Rel) {
		t.Error("Eval(Intersect) mismatch")
	}
	if got := Eval(Diff(r1, r1)); !got.Empty() {
		t.Error("Eval(Diff) mismatch")
	}

	piA := &Project{Input: r1, Attrs: []string{"a"}}
	if got := Eval(&Product{Left: piA, Right: r2}); !got.Equal(algebra.Product(Eval(piA), r2.Rel)) {
		t.Error("Eval(Product) mismatch")
	}
	if got := Eval(&Join{Left: r1, Right: r2}); !got.Equal(algebra.NaturalJoin(r1.Rel, r2.Rel)) {
		t.Error("Eval(Join) mismatch")
	}
	if got := Eval(&SemiJoin{Left: r1, Right: r2}); !got.Equal(algebra.SemiJoin(r1.Rel, r2.Rel)) {
		t.Error("Eval(SemiJoin) mismatch")
	}
	if got := Eval(&AntiSemiJoin{Left: r1, Right: r2}); !got.Equal(algebra.AntiSemiJoin(r1.Rel, r2.Rel)) {
		t.Error("Eval(AntiSemiJoin) mismatch")
	}

	grp := &Group{Input: r1, By: []string{"a"}, Aggs: []agg.AggSpec{{Func: agg.Count, As: "c"}}}
	if got := Eval(grp); !got.Equal(algebra.Group(r1.Rel, grp.By, grp.Aggs)) {
		t.Error("Eval(Group) mismatch")
	}
	if got := Eval(&Rename{Input: r2, From: "b", To: "x"}); !got.Schema().Equal(schema.New("x")) {
		t.Error("Eval(Rename) mismatch")
	}

	theta := &ThetaJoin{
		Left:  &Project{Input: r1, Attrs: []string{"a"}},
		Right: &Rename{Input: r2, From: "b", To: "x"},
		Pred:  pred.Compare(pred.Attr("a"), pred.Lt, pred.Attr("x")),
	}
	wantTheta := algebra.ThetaJoin(algebra.Project(r1.Rel, "a"), algebra.Rename(r2.Rel, "b", "x"), theta.Pred)
	if got := Eval(theta); !got.Equal(wantTheta) {
		t.Error("Eval(ThetaJoin) mismatch")
	}
}

func TestEvalGreatDivide(t *testing.T) {
	r1 := scanR1()
	r2 := NewScan("r2", relation.Ints([]string{"b", "c"}, [][]int64{
		{1, 1}, {2, 1}, {4, 1}, {1, 2}, {3, 2},
	}))
	got := Eval(&GreatDivide{Dividend: r1, Divisor: r2})
	want := algebra.GreatDivide(r1.Rel, r2.Rel)
	if !got.Equal(want) {
		t.Errorf("Eval(GreatDivide) = %v want %v", got, want)
	}
}

func TestEvalPinnedAlgorithms(t *testing.T) {
	r1, r2 := scanR1(), scanR2()
	// The reference ignores a pinned algorithm: every pin is ÷.
	want := algebra.Divide(r1.Rel, r2.Rel)
	for _, algo := range []division.Algorithm{"", division.AlgoHash, division.AlgoMergeSort} {
		n := &Divide{Dividend: r1, Divisor: r2, Algo: algo}
		if got := Eval(n); !got.Equal(want) {
			t.Errorf("pinned %q mismatch", algo)
		}
	}
}

func TestFormat(t *testing.T) {
	n := &Divide{Dividend: scanR1(), Divisor: Union(scanR2(), scanR2())}
	got := Format(n)
	want := "Divide\n  Scan(r1)\n  Union\n    Scan(r2)\n    Scan(r2)"
	if got != want {
		t.Errorf("Format:\n%s\nwant:\n%s", got, want)
	}
}

func TestStringForms(t *testing.T) {
	r1, r2 := scanR1(), scanR2()
	cases := []struct {
		n    Node
		want string
	}{
		{&Select{Input: r1, Pred: pred.True}, "Select[TRUE]"},
		{&Project{Input: r1, Attrs: []string{"a", "b"}}, "Project[a, b]"},
		{&Divide{Dividend: r1, Divisor: r2, Algo: division.AlgoHash}, "Divide[hash]"},
		{&GreatDivide{Dividend: r1, Divisor: r2}, "GreatDivide"},
		{&Rename{Input: r1, From: "a", To: "z"}, "Rename[a->z]"},
		{&Group{Input: r1, By: []string{"a"}, Aggs: []agg.AggSpec{{Func: agg.Sum, Attr: "b", As: "s"}}},
			"Group[by=(a); sum(b)->s]"},
	}
	for _, tc := range cases {
		if got := tc.n.String(); got != tc.want {
			t.Errorf("String = %q want %q", got, tc.want)
		}
	}
	if UnionOp.String() != "Union" || IntersectOp.String() != "Intersect" || DiffOp.String() != "Diff" {
		t.Error("SetOp strings")
	}
	if !strings.HasPrefix(SetOp(9).String(), "SetOp(") {
		t.Error("unknown SetOp string")
	}
}

func TestEqual(t *testing.T) {
	r1, r2 := scanR1(), scanR2()
	a := &Divide{Dividend: r1, Divisor: r2}
	b := &Divide{Dividend: r1, Divisor: r2}
	if !Equal(a, b) {
		t.Error("identical plans should be Equal")
	}
	c := &Divide{Dividend: r1, Divisor: scanR2()} // different Scan identity
	if Equal(a, c) {
		t.Error("different scan identity should not be Equal")
	}
	d := &Select{Input: r1, Pred: pred.True}
	e := &Select{Input: r1, Pred: pred.False}
	if Equal(d, e) {
		t.Error("different predicates should not be Equal")
	}
}

func TestWithChildren(t *testing.T) {
	r1, r2 := scanR1(), scanR2()
	div := &Divide{Dividend: r1, Divisor: r2, Algo: division.AlgoMergeSort}
	swapped := div.WithChildren([]Node{r1, scanR2()}).(*Divide)
	if swapped.Algo != division.AlgoMergeSort {
		t.Error("WithChildren must preserve parameters")
	}
	if swapped == div {
		t.Error("WithChildren must copy")
	}
	defer func() {
		if recover() == nil {
			t.Error("arity panic expected")
		}
	}()
	div.WithChildren([]Node{r1})
}

func TestTransform(t *testing.T) {
	r1, r2 := scanR1(), scanR2()
	tree := &Select{Input: &Divide{Dividend: r1, Divisor: r2}, Pred: pred.True}
	// Replace every Select with its input (identity predicate removal).
	got := Transform(tree, func(n Node) Node {
		if s, ok := n.(*Select); ok && s.Pred == pred.Predicate(pred.True) {
			return s.Input
		}
		return n
	})
	if _, ok := got.(*Divide); !ok {
		t.Errorf("Transform result = %T", got)
	}
	// Unchanged trees should come back structurally identical.
	same := Transform(tree, func(n Node) Node { return n })
	if !Equal(same, tree) {
		t.Error("identity transform should preserve structure")
	}
}

func TestCountAndCountDivides(t *testing.T) {
	r1, r2 := scanR1(), scanR2()
	tree := &Select{
		Input: Union(
			&Divide{Dividend: r1, Divisor: r2},
			&Divide{Dividend: r1, Divisor: r2},
		),
		Pred: pred.True,
	}
	if got := Count(tree); got != 8 {
		t.Errorf("Count = %d want 8", got)
	}
	if got := CountDivides(tree); got != 2 {
		t.Errorf("CountDivides = %d want 2", got)
	}
}

func TestWithChildrenRoundTripAllNodes(t *testing.T) {
	// Every node type must rebuild itself from its own children,
	// preserving parameters and arity — the contract Transform
	// relies on.
	r1, r2 := scanR1(), scanR2()
	r2g := NewScan("r2g", relation.Ints([]string{"b", "c"}, [][]int64{{1, 1}}))
	nodes := []Node{
		&Select{Input: r1, Pred: pred.True},
		&Project{Input: r1, Attrs: []string{"a"}},
		Union(r1, r1),
		Intersect(r1, r1),
		Diff(r1, r1),
		&Product{Left: &Project{Input: r1, Attrs: []string{"a"}}, Right: r2},
		&Join{Left: r1, Right: r2},
		&ThetaJoin{Left: &Project{Input: r1, Attrs: []string{"a"}}, Right: &Rename{Input: r2, From: "b", To: "x"},
			Pred: pred.Compare(pred.Attr("a"), pred.Lt, pred.Attr("x"))},
		&SemiJoin{Left: r1, Right: r2},
		&AntiSemiJoin{Left: r1, Right: r2},
		&Divide{Dividend: r1, Divisor: r2, Algo: division.AlgoMergeSort},
		&GreatDivide{Dividend: r1, Divisor: r2g},
		&Group{Input: r1, By: []string{"a"}, Aggs: []agg.AggSpec{{Func: agg.Count, As: "c"}}},
		&Rename{Input: r2, From: "b", To: "x"},
	}
	for _, n := range nodes {
		rebuilt := n.WithChildren(n.Children())
		if !Equal(n, rebuilt) {
			t.Errorf("%T: WithChildren(Children()) not structurally equal", n)
		}
		if !n.Schema().Equal(rebuilt.Schema()) {
			t.Errorf("%T: schema changed across rebuild", n)
		}
		if !Eval(n).Equal(Eval(rebuilt)) {
			t.Errorf("%T: evaluation changed across rebuild", n)
		}
		// String must be stable and nonempty.
		if n.String() == "" || n.String() != rebuilt.String() {
			t.Errorf("%T: String unstable", n)
		}
	}
}

func TestWithChildrenArityPanics(t *testing.T) {
	r1, r2 := scanR1(), scanR2()
	nodes := []Node{
		&Select{Input: r1, Pred: pred.True},
		&Project{Input: r1, Attrs: []string{"a"}},
		Union(r1, r1),
		&Product{Left: r1, Right: r2},
		&Join{Left: r1, Right: r2},
		&ThetaJoin{Left: r1, Right: r2, Pred: pred.True},
		&SemiJoin{Left: r1, Right: r2},
		&AntiSemiJoin{Left: r1, Right: r2},
		&GreatDivide{Dividend: r1, Divisor: r2},
		&Group{Input: r1, By: []string{"a"}},
		&Rename{Input: r2, From: "b", To: "x"},
		r1, // Scan expects zero children
	}
	for _, n := range nodes {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%T: expected arity panic", n)
				}
			}()
			n.WithChildren(make([]Node, 5))
		}()
	}
}

func TestScanWithChildrenIdentity(t *testing.T) {
	s := scanR1()
	if s.WithChildren(nil) != Node(s) {
		t.Error("Scan.WithChildren(nil) should return the scan itself")
	}
}

func TestGreatDivideSchemaPanicsOnViolation(t *testing.T) {
	bad := &GreatDivide{Dividend: scanR2(), Divisor: scanR2()}
	defer func() {
		if recover() == nil {
			t.Error("expected schema panic")
		}
	}()
	bad.Schema()
}

func TestEvalUnknownSetOpPanics(t *testing.T) {
	bad := &Set{Op: SetOp(9), Left: scanR1(), Right: scanR1()}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Eval(bad)
}

func TestEvalUnknownNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Eval(bogusNode{})
}

type bogusNode struct{}

func (bogusNode) Schema() schema.Schema       { return schema.New("x") }
func (bogusNode) Children() []Node            { return nil }
func (bogusNode) WithChildren(ch []Node) Node { return bogusNode{} }
func (bogusNode) String() string              { return "Bogus" }

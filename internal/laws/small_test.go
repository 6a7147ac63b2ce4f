package laws

import (
	"math/rand"
	"testing"

	"divlaws/internal/agg"
	"divlaws/internal/algebra"
	"divlaws/internal/plan"
	"divlaws/internal/pred"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/value"
)

// figure4Relations returns r1, r2', r2” of the paper's Figure 4.
func figure4Relations() (r1, r2a, r2b *relation.Relation) {
	r1 = relation.Ints([]string{"a", "b"}, [][]int64{
		{1, 1}, {1, 4},
		{2, 1}, {2, 2}, {2, 3}, {2, 4},
		{3, 1}, {3, 3}, {3, 4},
		{4, 1}, {4, 3},
	})
	r2a = relation.Ints([]string{"b"}, [][]int64{{1}, {3}})
	r2b = relation.Ints([]string{"b"}, [][]int64{{3}, {4}})
	return r1, r2a, r2b
}

func TestLaw1Figure4(t *testing.T) {
	// Figure 4: dividing by the union {1,3,4} equals the staged form;
	// the partitions overlap on b = 3.
	r1, r2a, r2b := figure4Relations()
	lhs := &plan.Divide{
		Dividend: scan("r1", r1),
		Divisor:  plan.Union(scan("r2a", r2a), scan("r2b", r2b)),
	}
	rhs := checkEquivalence(t, Law1(), lhs)
	// The paper's Figure 4(g): quotient {2, 3}.
	want := relation.Ints([]string{"a"}, [][]int64{{2}, {3}})
	if got := plan.Eval(rhs); !got.Equal(want) {
		t.Errorf("Figure 4 quotient = %v, want %v", got, want)
	}
	// The rewrite keeps two divides but stages them by partition.
	if plan.CountDivides(rhs) != 2 {
		t.Errorf("expected staged double divide, got:\n%s", plan.Format(rhs))
	}
	// Figure 4(f): the intermediate semi-join result.
	semiJoin := rhs.(*plan.Divide).Dividend
	wantMid := relation.Ints([]string{"a", "b"}, [][]int64{
		{2, 1}, {2, 2}, {2, 3}, {2, 4},
		{3, 1}, {3, 3}, {3, 4},
		{4, 1}, {4, 3},
	})
	if got := plan.Eval(semiJoin); !got.Equal(wantMid) {
		t.Errorf("Figure 4(f) intermediate = %v, want %v", got, wantMid)
	}
}

func TestLaw1Property(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 120; trial++ {
		r1 := randRelation(rng, []string{"a", "b"}, 2+rng.Intn(25), 5)
		r2a := randRelation(rng, []string{"b"}, 1+rng.Intn(4), 5)
		r2b := randRelation(rng, []string{"b"}, 1+rng.Intn(4), 5)
		lhs := &plan.Divide{
			Dividend: scan("r1", r1),
			Divisor:  plan.Union(scan("r2a", r2a), scan("r2b", r2b)),
		}
		checkEquivalence(t, Law1(), lhs)
	}
}

// figure5Relations returns the Law 2 counterexample of Figure 5.
func figure5Relations() (r1a, r1b, r2 *relation.Relation) {
	r1a = relation.Ints([]string{"a", "b"}, [][]int64{{1, 1}, {1, 2}, {1, 3}})
	r1b = relation.Ints([]string{"a", "b"}, [][]int64{{1, 2}, {1, 4}})
	r2 = relation.Ints([]string{"b"}, [][]int64{{1}, {4}})
	return r1a, r1b, r2
}

func TestLaw2RejectsFigure5(t *testing.T) {
	// Figure 5: value a=1 is dispersed across the partitions; both
	// c2 and c1 must reject, because the naive distribution would
	// lose the quotient coming from the union.
	r1a, r1b, r2 := figure5Relations()
	lhs := &plan.Divide{
		Dividend: plan.Union(scan("r1a", r1a), scan("r1b", r1b)),
		Divisor:  scan("r2", r2),
	}
	mustReject(t, Law2(), lhs)
	mustReject(t, Law2C1(), lhs)
	// And indeed the two sides differ here, so rejecting is the only
	// sound choice: (r1'∪r1'')÷r2 = {1} but the distributed form is ∅.
	union := plan.Eval(lhs)
	distributed := algebra.Union(
		plan.Eval(&plan.Divide{Dividend: scan("x", r1a), Divisor: scan("r2", r2)}),
		plan.Eval(&plan.Divide{Dividend: scan("y", r1b), Divisor: scan("r2", r2)}),
	)
	if union.Equal(distributed) {
		t.Fatal("Figure 5 should be a genuine counterexample")
	}
	if union.Len() != 1 || !union.Contains(relation.Tuple{value.Int(1)}) {
		t.Errorf("(r1' ∪ r1'') ÷ r2 = %v, want {1}", union)
	}
	if !distributed.Empty() {
		t.Errorf("(r1'÷r2) ∪ (r1''÷r2) = %v, want empty", distributed)
	}
}

func TestLaw2FiresOnDisjointPartitions(t *testing.T) {
	r1a := relation.Ints([]string{"a", "b"}, [][]int64{{1, 1}, {1, 2}})
	r1b := relation.Ints([]string{"a", "b"}, [][]int64{{2, 1}, {2, 2}, {3, 1}})
	r2 := relation.Ints([]string{"b"}, [][]int64{{1}, {2}})
	lhs := &plan.Divide{
		Dividend: plan.Union(scan("r1a", r1a), scan("r1b", r1b)),
		Divisor:  scan("r2", r2),
	}
	rhs := checkEquivalence(t, Law2(), lhs)
	if _, ok := rhs.(*plan.Set); !ok {
		t.Errorf("Law 2 should produce a union of divides:\n%s", plan.Format(rhs))
	}
	checkEquivalence(t, Law2C1(), lhs)
}

func TestLaw2C1FiresWhereC2Rejects(t *testing.T) {
	// Partitions share the group a=1, but that group already
	// contains the whole divisor within the first partition, so c1
	// holds while c2 fails.
	r1a := relation.Ints([]string{"a", "b"}, [][]int64{{1, 1}, {1, 2}})
	r1b := relation.Ints([]string{"a", "b"}, [][]int64{{1, 1}, {2, 1}, {2, 2}})
	r2 := relation.Ints([]string{"b"}, [][]int64{{1}, {2}})
	lhs := &plan.Divide{
		Dividend: plan.Union(scan("r1a", r1a), scan("r1b", r1b)),
		Divisor:  scan("r2", r2),
	}
	mustReject(t, Law2(), lhs)
	checkEquivalence(t, Law2C1(), lhs)
}

func TestLaw2Property(t *testing.T) {
	// Whenever Law 2 (under c2 or c1) fires on random data the two
	// sides must agree; checkEquivalence enforces that. Count firing
	// rates to make sure the test is not vacuous.
	rng := rand.New(rand.NewSource(42))
	fired := 0
	for trial := 0; trial < 250; trial++ {
		r1a := randRelation(rng, []string{"a", "b"}, rng.Intn(10), 6)
		r1b := randRelation(rng, []string{"a", "b"}, rng.Intn(10), 6)
		r2 := randRelation(rng, []string{"b"}, 1+rng.Intn(3), 6)
		lhs := &plan.Divide{
			Dividend: plan.Union(scan("r1a", r1a), scan("r1b", r1b)),
			Divisor:  scan("r2", r2),
		}
		for _, rule := range []Rule{Law2(), Law2C1()} {
			if _, ok := rule.Apply(lhs); ok {
				checkEquivalence(t, rule, lhs)
				fired++
			}
		}
	}
	if fired == 0 {
		t.Fatal("Law 2 never fired on random data; generator too adversarial")
	}
}

func TestLaw2C1NeverWeakerThanC2(t *testing.T) {
	// c2 implies c1 (paper §5.1.1): wherever Law 2 fires, Law 2 (c1)
	// must fire as well.
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		r1a := randRelation(rng, []string{"a", "b"}, rng.Intn(8), 5)
		r1b := randRelation(rng, []string{"a", "b"}, rng.Intn(8), 5)
		r2 := randRelation(rng, []string{"b"}, 1+rng.Intn(3), 5)
		lhs := &plan.Divide{
			Dividend: plan.Union(scan("r1a", r1a), scan("r1b", r1b)),
			Divisor:  scan("r2", r2),
		}
		if _, c2fired := Law2().Apply(lhs); c2fired {
			if _, c1fired := Law2C1().Apply(lhs); !c1fired {
				t.Fatalf("c2 fired but c1 did not:\nr1a:\n%v\nr1b:\n%v\nr2:\n%v", r1a, r1b, r2)
			}
		}
	}
}

func TestLaw3PushAndPull(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		r1 := randRelation(rng, []string{"a", "b"}, 2+rng.Intn(20), 5)
		r2 := randRelation(rng, []string{"b"}, 1+rng.Intn(3), 5)
		p := pred.Compare(pred.Attr("a"), pred.Gt, pred.ConstInt(int64(rng.Intn(5))))
		lhs := &plan.Select{
			Input: &plan.Divide{Dividend: scan("r1", r1), Divisor: scan("r2", r2)},
			Pred:  p,
		}
		rhs := checkEquivalence(t, Law3(), lhs)
		// The rewrite must push the select below the divide.
		d, ok := rhs.(*plan.Divide)
		if !ok {
			t.Fatalf("Law 3 should produce a Divide root:\n%s", plan.Format(rhs))
		}
		if _, ok := d.Dividend.(*plan.Select); !ok {
			t.Fatalf("Law 3 should select on the dividend:\n%s", plan.Format(rhs))
		}
		// And the reverse direction must restore an equivalent plan.
		back := checkEquivalence(t, Law3Reverse(), d)
		if _, ok := back.(*plan.Select); !ok {
			t.Fatalf("Law 3 (reverse) should produce a Select root:\n%s", plan.Format(back))
		}
	}
}

func TestLaw3ReverseRejectsPredicateOverB(t *testing.T) {
	r1 := relation.Ints([]string{"a", "b"}, [][]int64{{1, 1}})
	r2 := relation.Ints([]string{"b"}, [][]int64{{1}})
	overB := pred.Compare(pred.Attr("b"), pred.Lt, pred.ConstInt(3))
	lhs := &plan.Divide{
		Dividend: &plan.Select{Input: scan("r1", r1), Pred: overB},
		Divisor:  scan("r2", r2),
	}
	mustReject(t, Law3Reverse(), lhs)
}

func TestLaw4ReplicateSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	fired := 0
	for trial := 0; trial < 120; trial++ {
		r1 := randRelation(rng, []string{"a", "b"}, 2+rng.Intn(20), 5)
		r2 := randRelation(rng, []string{"b"}, 1+rng.Intn(4), 5)
		p := pred.Compare(pred.Attr("b"), pred.Lt, pred.ConstInt(int64(1+rng.Intn(5))))
		lhs := &plan.Divide{
			Dividend: scan("r1", r1),
			Divisor:  &plan.Select{Input: scan("r2", r2), Pred: p},
		}
		if _, ok := Law4().Apply(lhs); !ok {
			continue // empty restricted divisor: guard must reject
		}
		fired++
		rhs := checkEquivalence(t, Law4(), lhs)
		d := rhs.(*plan.Divide)
		if _, ok := d.Dividend.(*plan.Select); !ok {
			t.Fatalf("Law 4 should replicate the selection onto the dividend:\n%s", plan.Format(rhs))
		}
		// Reverse: dropping the replicated selection.
		back := checkEquivalence(t, Law4Reverse(), d)
		if plan.CountDivides(back) != 1 {
			t.Fatalf("Law 4 (reverse) malformed:\n%s", plan.Format(back))
		}
	}
	if fired == 0 {
		t.Fatal("Law 4 never fired; generator too adversarial")
	}
}

func TestLaw4RejectsEmptyRestrictedDivisor(t *testing.T) {
	// Boundary condition: with σp(B)(r2) = ∅ the two sides differ
	// (r ÷ ∅ = πA(r)), so the rule must refuse to fire.
	r1 := relation.Ints([]string{"a", "b"}, [][]int64{{1, 5}, {2, 7}})
	r2 := relation.Ints([]string{"b"}, [][]int64{{5}})
	p := pred.Compare(pred.Attr("b"), pred.Lt, pred.ConstInt(0))
	lhs := &plan.Divide{
		Dividend: scan("r1", r1),
		Divisor:  &plan.Select{Input: scan("r2", r2), Pred: p},
	}
	mustReject(t, Law4(), lhs)
	// And the sides genuinely differ, so rejection is required.
	lhsVal := plan.Eval(lhs)
	rhsVal := plan.Eval(&plan.Divide{
		Dividend: &plan.Select{Input: scan("r1", r1), Pred: p},
		Divisor:  &plan.Select{Input: scan("r2", r2), Pred: p},
	})
	if lhsVal.Equal(rhsVal) {
		t.Fatal("expected a genuine counterexample for the empty restricted divisor")
	}
}

func TestLaw4ReverseRejectsDifferentPredicates(t *testing.T) {
	r1 := relation.Ints([]string{"a", "b"}, [][]int64{{1, 1}})
	r2 := relation.Ints([]string{"b"}, [][]int64{{1}})
	p1 := pred.Compare(pred.Attr("b"), pred.Lt, pred.ConstInt(3))
	p2 := pred.Compare(pred.Attr("b"), pred.Lt, pred.ConstInt(4))
	lhs := &plan.Divide{
		Dividend: &plan.Select{Input: scan("r1", r1), Pred: p1},
		Divisor:  &plan.Select{Input: scan("r2", r2), Pred: p2},
	}
	mustReject(t, Law4Reverse(), lhs)
}

func TestLaw5Intersection(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		x := randRelation(rng, []string{"a", "b"}, rng.Intn(20), 4)
		y := randRelation(rng, []string{"a", "b"}, rng.Intn(20), 4)
		r2 := randRelation(rng, []string{"b"}, 1+rng.Intn(3), 4)
		lhs := &plan.Divide{
			Dividend: plan.Intersect(scan("x", x), scan("y", y)),
			Divisor:  scan("r2", r2),
		}
		rhs := checkEquivalence(t, Law5(), lhs)
		// Reverse restores a single divide.
		back := checkEquivalence(t, Law5Reverse(), rhs)
		if plan.CountDivides(back) != 1 {
			t.Fatalf("Law 5 (reverse) should merge the divides:\n%s", plan.Format(back))
		}
	}
}

func TestLaw5ReverseRejectsDifferentDivisors(t *testing.T) {
	x := relation.Ints([]string{"a", "b"}, [][]int64{{1, 1}})
	r2 := relation.Ints([]string{"b"}, [][]int64{{1}})
	r2other := relation.Ints([]string{"b"}, [][]int64{{2}})
	lhs := plan.Intersect(
		&plan.Divide{Dividend: scan("x", x), Divisor: scan("r2", r2)},
		&plan.Divide{Dividend: scan("x", x), Divisor: scan("r2o", r2other)},
	)
	mustReject(t, Law5Reverse(), lhs)
}

func TestLaw6Difference(t *testing.T) {
	// r1' = σ_{a>0}(r), r1'' = σ_{a>2}(r): nested restrictions.
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 100; trial++ {
		base := scan("r", randRelation(rng, []string{"a", "b"}, 2+rng.Intn(25), 6))
		r2 := scan("r2", randRelation(rng, []string{"b"}, 1+rng.Intn(3), 6))
		pWide := pred.Compare(pred.Attr("a"), pred.Gt, pred.ConstInt(0))
		pNarrow := pred.Compare(pred.Attr("a"), pred.Gt, pred.ConstInt(2))
		lhs := &plan.Divide{
			Dividend: plan.Diff(
				&plan.Select{Input: base, Pred: pWide},
				&plan.Select{Input: base, Pred: pNarrow},
			),
			Divisor: r2,
		}
		checkEquivalence(t, Law6(), lhs)
	}
}

func TestLaw6RejectsNonNestedRestrictions(t *testing.T) {
	// Disjoint ranges do not satisfy r1' ⊇ r1'' unless r1'' is empty;
	// build data where σ_{a<2}(r) has tuples not in σ_{a>2}(r).
	base := scan("r", relation.Ints([]string{"a", "b"}, [][]int64{{1, 1}, {3, 1}}))
	r2 := scan("r2", relation.Ints([]string{"b"}, [][]int64{{1}}))
	lhs := &plan.Divide{
		Dividend: plan.Diff(
			&plan.Select{Input: base, Pred: pred.Compare(pred.Attr("a"), pred.Gt, pred.ConstInt(2))},
			&plan.Select{Input: base, Pred: pred.Compare(pred.Attr("a"), pred.Lt, pred.ConstInt(2))},
		),
		Divisor: r2,
	}
	mustReject(t, Law6(), lhs)
}

func TestLaw6RejectsPredicatesOverB(t *testing.T) {
	base := scan("r", relation.Ints([]string{"a", "b"}, [][]int64{{1, 1}}))
	r2 := scan("r2", relation.Ints([]string{"b"}, [][]int64{{1}}))
	pB := pred.Compare(pred.Attr("b"), pred.Gt, pred.ConstInt(0))
	lhs := &plan.Divide{
		Dividend: plan.Diff(
			&plan.Select{Input: base, Pred: pB},
			&plan.Select{Input: base, Pred: pB},
		),
		Divisor: r2,
	}
	mustReject(t, Law6(), lhs)
}

func TestLaw7DropsSubtrahend(t *testing.T) {
	// The paper's motivating case: σ_{a≤10} vs σ_{a>10} partitions.
	r1 := relation.Ints([]string{"a", "b"}, [][]int64{
		{1, 1}, {1, 2}, {5, 1}, {20, 1}, {20, 2}, {30, 1},
	})
	r2 := relation.Ints([]string{"b"}, [][]int64{{1}, {2}})
	low := &plan.Select{Input: scan("r1", r1), Pred: pred.Compare(pred.Attr("a"), pred.Le, pred.ConstInt(10))}
	high := &plan.Select{Input: scan("r1", r1), Pred: pred.Compare(pred.Attr("a"), pred.Gt, pred.ConstInt(10))}
	lhs := plan.Diff(
		&plan.Divide{Dividend: low, Divisor: scan("r2", r2)},
		&plan.Divide{Dividend: high, Divisor: scan("r2", r2)},
	)
	rhs := checkEquivalence(t, Law7(), lhs)
	if plan.CountDivides(rhs) != 1 {
		t.Fatalf("Law 7 should eliminate one divide:\n%s", plan.Format(rhs))
	}
}

func TestLaw7RejectsOverlappingCandidates(t *testing.T) {
	r1 := relation.Ints([]string{"a", "b"}, [][]int64{{1, 1}, {1, 2}})
	r2 := relation.Ints([]string{"b"}, [][]int64{{1}})
	d := &plan.Divide{Dividend: scan("r1", r1), Divisor: scan("r2", r2)}
	lhs := plan.Diff(d, &plan.Divide{Dividend: scan("r1b", r1), Divisor: scan("r2", r2)})
	mustReject(t, Law7(), lhs)
}

func TestLaw8Figure7(t *testing.T) {
	// Figure 7: r1*(a1) × r1**(a2, b) ÷ r2(b).
	r1s := relation.Ints([]string{"a1"}, [][]int64{{1}, {2}})
	r1ss := relation.Ints([]string{"a2", "b"}, [][]int64{
		{1, 1}, {1, 2}, {1, 3}, {2, 1}, {2, 3}, {3, 2}, {3, 3},
	})
	r2 := relation.Ints([]string{"b"}, [][]int64{{2}, {3}})
	lhs := &plan.Divide{
		Dividend: &plan.Product{Left: scan("r1s", r1s), Right: scan("r1ss", r1ss)},
		Divisor:  scan("r2", r2),
	}
	rhs := checkEquivalence(t, Law8(), lhs)
	want := relation.Ints([]string{"a1", "a2"}, [][]int64{{1, 1}, {1, 3}, {2, 1}, {2, 3}})
	if got := plan.Eval(rhs); !got.Equal(want) {
		t.Errorf("Figure 7(f) = %v, want %v", got, want)
	}
	// Figure 7(e): the inner division r1** ÷ r2 = {1, 3}.
	prod := rhs.(*plan.Product)
	wantInner := relation.Ints([]string{"a2"}, [][]int64{{1}, {3}})
	if got := plan.Eval(prod.Right); !got.Equal(wantInner) {
		t.Errorf("Figure 7(e) = %v, want %v", got, wantInner)
	}
	// Reverse direction.
	checkEquivalence(t, Law8Reverse(), rhs)
}

func TestLaw8Property(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 100; trial++ {
		r1s := randRelation(rng, []string{"a1"}, 1+rng.Intn(5), 4)
		r1ss := randRelation(rng, []string{"a2", "b"}, 1+rng.Intn(15), 4)
		r2 := randRelation(rng, []string{"b"}, 1+rng.Intn(3), 4)
		lhs := &plan.Divide{
			Dividend: &plan.Product{Left: scan("r1s", r1s), Right: scan("r1ss", r1ss)},
			Divisor:  scan("r2", r2),
		}
		checkEquivalence(t, Law8(), lhs)
	}
}

func TestLaw8RejectsWhenDivisorSpansFactors(t *testing.T) {
	// B attributes split across both factors: Law 8 must not fire.
	r1s := relation.Ints([]string{"a1", "b1"}, [][]int64{{1, 1}})
	r1ss := relation.Ints([]string{"a2", "b2"}, [][]int64{{1, 1}})
	r2 := relation.Ints([]string{"b1", "b2"}, [][]int64{{1, 1}})
	lhs := &plan.Divide{
		Dividend: &plan.Product{Left: scan("r1s", r1s), Right: scan("r1ss", r1ss)},
		Divisor:  scan("r2", r2),
	}
	mustReject(t, Law8(), lhs)
}

func TestLaw9Figure8(t *testing.T) {
	// Figure 8: r1*(a, b1), r1**(b2), r2(b1, b2) with πb2(r2) ⊆ r1**.
	r1s := relation.Ints([]string{"a", "b1"}, [][]int64{
		{1, 1}, {1, 2}, {1, 3}, {2, 2}, {2, 3}, {3, 1}, {3, 3}, {3, 4},
	})
	r1ss := relation.Ints([]string{"b2"}, [][]int64{{1}, {2}})
	r2 := relation.Ints([]string{"b1", "b2"}, [][]int64{{1, 2}, {3, 1}, {3, 2}})
	lhs := &plan.Divide{
		Dividend: &plan.Product{Left: scan("r1s", r1s), Right: scan("r1ss", r1ss)},
		Divisor:  scan("r2", r2),
	}
	rhs := checkEquivalence(t, Law9(), lhs)
	want := relation.Ints([]string{"a"}, [][]int64{{1}, {3}})
	if got := plan.Eval(rhs); !got.Equal(want) {
		t.Errorf("Figure 8(g) = %v, want %v", got, want)
	}
	// The rewrite eliminates the product entirely.
	d := rhs.(*plan.Divide)
	if _, ok := d.Dividend.(*plan.Scan); !ok {
		t.Errorf("Law 9 should divide the left factor directly:\n%s", plan.Format(rhs))
	}
	// Figure 8(e): πb1(r2) = {1, 3}.
	wantDivisor := relation.Ints([]string{"b1"}, [][]int64{{1}, {3}})
	if got := plan.Eval(d.Divisor); !got.Equal(wantDivisor) {
		t.Errorf("Figure 8(e) = %v, want %v", got, wantDivisor)
	}
}

func TestLaw9RejectsWhenCoverageFails(t *testing.T) {
	// πb2(r2) ⊄ r1**: the data premise fails.
	r1s := relation.Ints([]string{"a", "b1"}, [][]int64{{1, 1}})
	r1ss := relation.Ints([]string{"b2"}, [][]int64{{1}})
	r2 := relation.Ints([]string{"b1", "b2"}, [][]int64{{1, 1}, {1, 9}})
	lhs := &plan.Divide{
		Dividend: &plan.Product{Left: scan("r1s", r1s), Right: scan("r1ss", r1ss)},
		Divisor:  scan("r2", r2),
	}
	mustReject(t, Law9(), lhs)
}

func TestLaw9Property(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	fired := 0
	for trial := 0; trial < 150; trial++ {
		r1s := randRelation(rng, []string{"a", "b1"}, 1+rng.Intn(12), 4)
		r1ss := randRelation(rng, []string{"b2"}, 1+rng.Intn(4), 4)
		r2 := randRelation(rng, []string{"b1", "b2"}, 1+rng.Intn(5), 4)
		lhs := &plan.Divide{
			Dividend: &plan.Product{Left: scan("r1s", r1s), Right: scan("r1ss", r1ss)},
			Divisor:  scan("r2", r2),
		}
		if _, ok := Law9().Apply(lhs); ok {
			checkEquivalence(t, Law9(), lhs)
			fired++
		}
	}
	if fired == 0 {
		t.Fatal("Law 9 never fired; generator too adversarial")
	}
}

func TestLaw10SemiJoinCommutes(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 100; trial++ {
		r1 := randRelation(rng, []string{"a", "b"}, 2+rng.Intn(20), 5)
		r2 := randRelation(rng, []string{"b"}, 1+rng.Intn(3), 5)
		r3 := randRelation(rng, []string{"a"}, rng.Intn(4), 5)
		lhs := &plan.SemiJoin{
			Left:  &plan.Divide{Dividend: scan("r1", r1), Divisor: scan("r2", r2)},
			Right: scan("r3", r3),
		}
		rhs := checkEquivalence(t, Law10(), lhs)
		d, ok := rhs.(*plan.Divide)
		if !ok {
			t.Fatalf("Law 10 should produce a Divide root:\n%s", plan.Format(rhs))
		}
		back := checkEquivalence(t, Law10Reverse(), d)
		if _, ok := back.(*plan.SemiJoin); !ok {
			t.Fatalf("Law 10 (reverse) should produce a SemiJoin root:\n%s", plan.Format(back))
		}
	}
}

func TestLaw10RejectsWrongSemiJoinSchema(t *testing.T) {
	r1 := relation.Ints([]string{"a", "b"}, [][]int64{{1, 1}})
	r2 := relation.Ints([]string{"b"}, [][]int64{{1}})
	r3 := relation.Ints([]string{"a", "z"}, [][]int64{{1, 1}})
	lhs := &plan.SemiJoin{
		Left:  &plan.Divide{Dividend: scan("r1", r1), Divisor: scan("r2", r2)},
		Right: scan("r3", r3),
	}
	mustReject(t, Law10(), lhs)
}

func TestLaw11Figure10(t *testing.T) {
	// Figure 10: r1 = aγsum(x)→b(r0); r2 = {4}; quotient {2}.
	r0 := relation.Ints([]string{"a", "x"}, [][]int64{
		{1, 1}, {1, 2}, {1, 3}, {2, 1}, {2, 3}, {3, 1}, {3, 3}, {3, 4},
	})
	group := &plan.Group{
		Input: scan("r0", r0),
		By:    []string{"a"},
		Aggs:  []agg.AggSpec{{Func: agg.Sum, Attr: "x", As: "b"}},
	}
	r2 := relation.Ints([]string{"b"}, [][]int64{{4}})
	lhs := &plan.Divide{Dividend: group, Divisor: scan("r2", r2)}
	rhs := checkEquivalence(t, Law11(), lhs)
	want := relation.Ints([]string{"a"}, [][]int64{{2}})
	if got := plan.Eval(rhs); !got.Equal(want) {
		t.Errorf("Figure 10(e) = %v, want %v", got, want)
	}
	if plan.CountDivides(rhs) != 0 {
		t.Errorf("Law 11 should eliminate the division:\n%s", plan.Format(rhs))
	}
}

func TestLaw11Cases(t *testing.T) {
	r0 := relation.Ints([]string{"a", "x"}, [][]int64{{1, 1}, {2, 3}})
	group := &plan.Group{
		Input: scan("r0", r0),
		By:    []string{"a"},
		Aggs:  []agg.AggSpec{{Func: agg.Sum, Attr: "x", As: "b"}},
	}
	// Case 1: empty divisor → quotient is r1 itself.
	empty := relation.New(schema.New("b"))
	lhs := &plan.Divide{Dividend: group, Divisor: scan("r2", empty)}
	rhs := checkEquivalence(t, Law11(), lhs)
	if _, ok := rhs.(*plan.Project); !ok {
		t.Errorf("case |r2|=0 should return πA(dividend):\n%s", plan.Format(rhs))
	}
	// Case 3: |r2| > 1 → empty quotient.
	big := relation.Ints([]string{"b"}, [][]int64{{1}, {3}})
	lhs = &plan.Divide{Dividend: group, Divisor: scan("r2", big)}
	rhs = checkEquivalence(t, Law11(), lhs)
	if got := plan.Eval(rhs); !got.Empty() {
		t.Errorf("case |r2|>1 should be empty, got %v", got)
	}
}

func TestLaw11RejectsWrongGroupShape(t *testing.T) {
	// Grouping keyed by B, not A: Law 11 must not fire (Law 12's
	// shape instead).
	r0 := relation.Ints([]string{"x", "b"}, [][]int64{{1, 1}}) // bγsum(x)→a
	group := &plan.Group{
		Input: scan("r0", r0),
		By:    []string{"b"},
		Aggs:  []agg.AggSpec{{Func: agg.Sum, Attr: "x", As: "a"}},
	}
	r2 := relation.Ints([]string{"b"}, [][]int64{{1}})
	mustReject(t, Law11(), &plan.Divide{Dividend: group, Divisor: scan("r2", r2)})
}

func TestLaw12Figure11(t *testing.T) {
	// Figure 11: r1 = bγsum(x)→a(r0); r2 = {1, 3}; quotient {6}.
	r0 := relation.Ints([]string{"x", "b"}, [][]int64{
		{1, 1}, {1, 2}, {1, 3}, {2, 1}, {2, 3}, {3, 1}, {3, 3}, {3, 4},
	})
	group := &plan.Group{
		Input: scan("r0", r0),
		By:    []string{"b"},
		Aggs:  []agg.AggSpec{{Func: agg.Sum, Attr: "x", As: "a"}},
	}
	r2 := relation.Ints([]string{"b"}, [][]int64{{1}, {3}})
	lhs := &plan.Divide{Dividend: group, Divisor: scan("r2", r2)}
	rhs := checkEquivalence(t, Law12(), lhs)
	want := relation.Ints([]string{"a"}, [][]int64{{6}})
	if got := plan.Eval(rhs); !got.Equal(want) {
		t.Errorf("Figure 11(e) = %v, want %v", got, want)
	}
	if plan.CountDivides(rhs) != 0 {
		t.Errorf("Law 12 should eliminate the division:\n%s", plan.Format(rhs))
	}
}

func TestLaw12EmptyWhenGroupsDiffer(t *testing.T) {
	// Two divisor values mapping to different aggregates: πA of the
	// semi-join has two tuples, so the guarded rewrite must be empty.
	r0 := relation.Ints([]string{"x", "b"}, [][]int64{{1, 1}, {5, 3}})
	group := &plan.Group{
		Input: scan("r0", r0),
		By:    []string{"b"},
		Aggs:  []agg.AggSpec{{Func: agg.Sum, Attr: "x", As: "a"}},
	}
	r2 := relation.Ints([]string{"b"}, [][]int64{{1}, {3}})
	lhs := &plan.Divide{Dividend: group, Divisor: scan("r2", r2)}
	rhs := checkEquivalence(t, Law12(), lhs)
	if got := plan.Eval(rhs); !got.Empty() {
		t.Errorf("guarded rewrite should be empty, got %v", got)
	}
}

func TestLaw12RejectsWithoutForeignKey(t *testing.T) {
	r0 := relation.Ints([]string{"x", "b"}, [][]int64{{1, 1}})
	group := &plan.Group{
		Input: scan("r0", r0),
		By:    []string{"b"},
		Aggs:  []agg.AggSpec{{Func: agg.Sum, Attr: "x", As: "a"}},
	}
	// r2 has value 9 not present in r1.b: FK premise fails.
	r2 := relation.Ints([]string{"b"}, [][]int64{{1}, {9}})
	mustReject(t, Law12(), &plan.Divide{Dividend: group, Divisor: scan("r2", r2)})
}

func TestLaw12Property(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	fired := 0
	for trial := 0; trial < 150; trial++ {
		r0 := randRelation(rng, []string{"x", "b"}, 1+rng.Intn(12), 5)
		group := &plan.Group{
			Input: scan("r0", r0),
			By:    []string{"b"},
			Aggs:  []agg.AggSpec{{Func: agg.Sum, Attr: "x", As: "a"}},
		}
		r2 := randRelation(rng, []string{"b"}, 1+rng.Intn(3), 5)
		lhs := &plan.Divide{Dividend: group, Divisor: scan("r2", r2)}
		if _, ok := Law12().Apply(lhs); ok {
			checkEquivalence(t, Law12(), lhs)
			fired++
		}
	}
	if fired == 0 {
		t.Fatal("Law 12 never fired; generator too adversarial")
	}
}

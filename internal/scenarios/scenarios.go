// Package scenarios builds, for every law and worked example of the
// paper, a representative left-hand-side plan at a configurable
// scale. The benchmark harness times Eval(lhs) against
// Eval(rule(lhs)) to measure each law's optimization effect, and the
// lawbench command prints the comparison table.
package scenarios

import (
	"fmt"
	"math/rand"

	"divlaws/internal/agg"
	"divlaws/internal/algebra"
	"divlaws/internal/datagen"
	"divlaws/internal/laws"
	"divlaws/internal/plan"
	"divlaws/internal/pred"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/value"
)

// Scenario pairs a rewrite rule with a generator for plans it
// matches.
type Scenario struct {
	// Name is the rule name ("Law 3") plus an optional variant tag.
	Name string
	// Rule is the law under test.
	Rule laws.Rule
	// Build produces an LHS plan of roughly `scale` dividend tuples
	// that Rule is guaranteed to match.
	Build func(scale int, seed int64) plan.Node
}

// All returns one scenario per law and example, in paper order.
func All() []Scenario {
	return []Scenario{
		{Name: "Law 1", Rule: laws.Law1(), Build: buildLaw1},
		{Name: "Law 2", Rule: laws.Law2(), Build: buildLaw2},
		{Name: "Law 2 (c1)", Rule: laws.Law2C1(), Build: buildLaw2C1},
		{Name: "Law 3", Rule: laws.Law3(), Build: buildLaw3},
		{Name: "Law 4", Rule: laws.Law4(), Build: buildLaw4},
		{Name: "Law 5", Rule: laws.Law5(), Build: buildLaw5},
		{Name: "Law 6", Rule: laws.Law6(), Build: buildLaw6},
		{Name: "Law 7", Rule: laws.Law7(), Build: buildLaw7},
		{Name: "Law 8", Rule: laws.Law8(), Build: buildLaw8},
		{Name: "Law 9", Rule: laws.Law9(), Build: buildLaw9},
		{Name: "Law 10", Rule: laws.Law10(), Build: buildLaw10},
		{Name: "Law 11", Rule: laws.Law11(), Build: buildLaw11},
		{Name: "Law 12", Rule: laws.Law12(), Build: buildLaw12},
		{Name: "Law 13", Rule: laws.Law13(), Build: buildLaw13},
		{Name: "Law 14", Rule: laws.Law14(), Build: buildLaw14},
		{Name: "Law 15", Rule: laws.Law15(), Build: buildLaw15},
		{Name: "Law 16", Rule: laws.Law16(), Build: buildLaw16},
		{Name: "Law 17", Rule: laws.Law17(), Build: buildLaw17},
		{Name: "Example 1", Rule: laws.Example1Rule(), Build: buildExample1},
		{Name: "Example 2", Rule: laws.Example2Rule(), Build: buildExample2},
	}
}

// ByName finds a scenario.
func ByName(name string) (Scenario, bool) {
	for _, s := range All() {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// MustApply applies the scenario's rule, panicking if the generated
// plan fails to match (a scenario bug).
func (s Scenario) MustApply(lhs plan.Node) plan.Node {
	rhs, ok := s.Rule.Apply(lhs)
	if !ok {
		panic(fmt.Sprintf("scenarios: %s did not match its own build:\n%s", s.Name, plan.Format(lhs)))
	}
	return rhs
}

func scan(name string, r *relation.Relation) *plan.Scan { return plan.NewScan(name, r) }

// standardPair generates the default dividend/divisor workload.
func standardPair(scale int, seed int64) (*relation.Relation, *relation.Relation) {
	groups := scale / 8
	if groups < 4 {
		groups = 4
	}
	return datagen.DividePair{
		Groups: groups, GroupSize: 8, DivisorSize: 8,
		Domain: 64, HitRate: 0.25, Seed: seed,
	}.Generate()
}

func buildLaw1(scale int, seed int64) plan.Node {
	r1, r2 := standardPair(scale, seed)
	// Split the divisor into overlapping halves.
	tuples := r2.Sorted()
	r2a := relation.New(r2.Schema())
	r2b := relation.New(r2.Schema())
	for i, t := range tuples {
		if i <= len(tuples)/2 {
			r2a.Insert(t)
		}
		if i >= len(tuples)/2 {
			r2b.Insert(t)
		}
	}
	return &plan.Divide{
		Dividend: scan("r1", r1),
		Divisor:  plan.Union(scan("r2a", r2a), scan("r2b", r2b)),
	}
}

// partitionByA splits r1 into two halves with disjoint a-values.
func partitionByA(r1 *relation.Relation, pivot int64) (lo, hi *relation.Relation) {
	lo, hi = relation.New(r1.Schema()), relation.New(r1.Schema())
	for _, t := range r1.Tuples() {
		if t[0].AsInt() < pivot {
			lo.Insert(t)
		} else {
			hi.Insert(t)
		}
	}
	return lo, hi
}

func buildLaw2(scale int, seed int64) plan.Node {
	r1, r2 := standardPair(scale, seed)
	lo, hi := partitionByA(r1, int64(r1.Len()/16))
	return &plan.Divide{
		Dividend: plan.Union(scan("lo", lo), scan("hi", hi)),
		Divisor:  scan("r2", r2),
	}
}

func buildLaw2C1(scale int, seed int64) plan.Node {
	r1, r2 := standardPair(scale, seed)
	lo, hi := partitionByA(r1, int64(r1.Len()/16))
	// Insert one shared group fully covered in both partitions, so
	// c2 fails but c1 holds.
	shared := value.Int(1 << 40)
	for _, d := range r2.Tuples() {
		lo.Insert(relation.Tuple{shared, d[0]})
		hi.Insert(relation.Tuple{shared, d[0]})
	}
	return &plan.Divide{
		Dividend: plan.Union(scan("lo", lo), scan("hi", hi)),
		Divisor:  scan("r2", r2),
	}
}

func buildLaw3(scale int, seed int64) plan.Node {
	r1, r2 := standardPair(scale, seed)
	p := pred.Compare(pred.Attr("a"), pred.Lt, pred.ConstInt(int64(scale/80)))
	return &plan.Select{
		Input: &plan.Divide{Dividend: scan("r1", r1), Divisor: scan("r2", r2)},
		Pred:  p,
	}
}

func buildLaw4(scale int, seed int64) plan.Node {
	r1, r2 := standardPair(scale, seed)
	p := pred.Compare(pred.Attr("b"), pred.Lt, pred.ConstInt(32))
	return &plan.Divide{
		Dividend: scan("r1", r1),
		Divisor:  &plan.Select{Input: scan("r2", r2), Pred: p},
	}
}

func buildLaw5(scale int, seed int64) plan.Node {
	r1, r2 := standardPair(scale, seed)
	r1b, _ := standardPair(scale, seed+1)
	return &plan.Divide{
		Dividend: plan.Intersect(scan("x", r1), scan("y", r1b)),
		Divisor:  scan("r2", r2),
	}
}

func buildLaw6(scale int, seed int64) plan.Node {
	r1, r2 := standardPair(scale, seed)
	base := scan("r1", r1)
	wide := pred.Compare(pred.Attr("a"), pred.Gt, pred.ConstInt(0))
	narrow := pred.Compare(pred.Attr("a"), pred.Gt, pred.ConstInt(int64(scale/16)))
	return &plan.Divide{
		Dividend: plan.Diff(
			&plan.Select{Input: base, Pred: wide},
			&plan.Select{Input: base, Pred: narrow},
		),
		Divisor: scan("r2", r2),
	}
}

func buildLaw7(scale int, seed int64) plan.Node {
	r1, r2 := standardPair(scale, seed)
	pivot := int64(r1.Len() / 160)
	lo, hi := partitionByA(r1, pivot)
	// The paper's case: computing only the first division suffices.
	return plan.Diff(
		&plan.Divide{Dividend: scan("lo", lo), Divisor: scan("r2", r2)},
		&plan.Divide{Dividend: scan("hi", hi), Divisor: scan("r2", r2)},
	)
}

func buildLaw8(scale int, seed int64) plan.Node {
	r1ss, r2 := standardPair(scale, seed)
	r1ss = algebra.RenameAll(r1ss, "a2", "b")
	r1s := relation.New(schema.New("a1"))
	for i := 0; i < 8; i++ {
		r1s.Insert(relation.Tuple{value.Int(int64(i))})
	}
	return &plan.Divide{
		Dividend: &plan.Product{Left: scan("r1s", r1s), Right: scan("r1ss", r1ss)},
		Divisor:  scan("r2", r2),
	}
}

func buildLaw9(scale int, seed int64) plan.Node {
	rng := rand.New(rand.NewSource(seed))
	// r2(b1, b2) first so dividend groups can be seeded to qualify.
	r2 := relation.New(schema.New("b1", "b2"))
	for i := 0; i < 6; i++ {
		r2.Insert(relation.Tuple{value.Int(int64(rng.Intn(16))), value.Int(int64(rng.Intn(4)))})
	}
	// r1*(a, b1): a quarter of the groups cover πb1(r2) fully.
	r1s := relation.New(schema.New("a", "b1"))
	groups := scale / 8
	if groups < 4 {
		groups = 4
	}
	for a := 0; a < groups; a++ {
		if rng.Intn(4) == 0 {
			for _, t := range r2.Tuples() {
				r1s.Insert(relation.Tuple{value.Int(int64(a)), t[0]})
			}
		}
		for i := 0; i < 8; i++ {
			r1s.Insert(relation.Tuple{value.Int(int64(a)), value.Int(int64(rng.Intn(16)))})
		}
	}
	// r1**(b2) covers πb2(r2), Law 9's data premise.
	r1ss := relation.New(schema.New("b2"))
	for i := 0; i < 4; i++ {
		r1ss.Insert(relation.Tuple{value.Int(int64(i))})
	}
	return &plan.Divide{
		Dividend: &plan.Product{Left: scan("r1s", r1s), Right: scan("r1ss", r1ss)},
		Divisor:  scan("r2", r2),
	}
}

func buildLaw10(scale int, seed int64) plan.Node {
	r1, r2 := standardPair(scale, seed)
	// Small filter relation over the quotient attributes.
	r3 := relation.New(schema.New("a"))
	for i := 0; i < 4; i++ {
		r3.Insert(relation.Tuple{value.Int(int64(i))})
	}
	return &plan.SemiJoin{
		Left:  &plan.Divide{Dividend: scan("r1", r1), Divisor: scan("r2", r2)},
		Right: scan("r3", r3),
	}
}

func buildLaw11(scale int, seed int64) plan.Node {
	rng := rand.New(rand.NewSource(seed))
	r0 := relation.New(schema.New("a", "x"))
	for a := 0; a < scale/4; a++ {
		for i := 0; i < 4; i++ {
			r0.Insert(relation.Tuple{value.Int(int64(a)), value.Int(int64(rng.Intn(64)))})
		}
	}
	group := &plan.Group{
		Input: scan("r0", r0),
		By:    []string{"a"},
		Aggs:  []agg.AggSpec{{Func: agg.Sum, Attr: "x", As: "b"}},
	}
	r2 := relation.Ints([]string{"b"}, [][]int64{{64}})
	return &plan.Divide{Dividend: group, Divisor: scan("r2", r2)}
}

func buildLaw12(scale int, seed int64) plan.Node {
	rng := rand.New(rand.NewSource(seed))
	r0 := relation.New(schema.New("x", "b"))
	nB := scale / 4
	for b := 0; b < nB; b++ {
		for i := 0; i < 4; i++ {
			r0.Insert(relation.Tuple{value.Int(int64(rng.Intn(64))), value.Int(int64(b))})
		}
	}
	group := &plan.Group{
		Input: scan("r0", r0),
		By:    []string{"b"},
		Aggs:  []agg.AggSpec{{Func: agg.Sum, Attr: "x", As: "a"}},
	}
	r2 := relation.Ints([]string{"b"}, [][]int64{{0}, {1}})
	return &plan.Divide{Dividend: group, Divisor: scan("r2", r2)}
}

// standardGreatPair generates a great-divide workload.
func standardGreatPair(scale int, seed int64) (*relation.Relation, *relation.Relation) {
	groups := scale / 8
	if groups < 4 {
		groups = 4
	}
	return datagen.GreatDividePair{
		Groups: groups, GroupSize: 8,
		DivisorGroups: 8, DivisorGroupSize: 4,
		Domain: 64, HitRate: 0.25, Seed: seed,
	}.Generate()
}

func buildLaw13(scale int, seed int64) plan.Node {
	r1, r2 := standardGreatPair(scale, seed)
	// Partition the divisor by c parity: πC disjoint.
	r2a, r2b := relation.New(r2.Schema()), relation.New(r2.Schema())
	for _, t := range r2.Tuples() {
		if t[1].AsInt()%2 == 0 {
			r2a.Insert(t)
		} else {
			r2b.Insert(t)
		}
	}
	return &plan.GreatDivide{
		Dividend: scan("r1", r1),
		Divisor:  plan.Union(scan("r2a", r2a), scan("r2b", r2b)),
	}
}

func buildLaw14(scale int, seed int64) plan.Node {
	r1, r2 := standardGreatPair(scale, seed)
	p := pred.Compare(pred.Attr("a"), pred.Lt, pred.ConstInt(int64(scale/80)))
	return &plan.Select{
		Input: &plan.GreatDivide{Dividend: scan("r1", r1), Divisor: scan("r2", r2)},
		Pred:  p,
	}
}

func buildLaw15(scale int, seed int64) plan.Node {
	r1, r2 := standardGreatPair(scale, seed)
	p := pred.Compare(pred.Attr("c"), pred.Eq, pred.ConstInt(1))
	return &plan.Select{
		Input: &plan.GreatDivide{Dividend: scan("r1", r1), Divisor: scan("r2", r2)},
		Pred:  p,
	}
}

func buildLaw16(scale int, seed int64) plan.Node {
	r1, r2 := standardGreatPair(scale, seed)
	p := pred.Compare(pred.Attr("b"), pred.Lt, pred.ConstInt(32))
	return &plan.GreatDivide{
		Dividend: scan("r1", r1),
		Divisor:  &plan.Select{Input: scan("r2", r2), Pred: p},
	}
}

func buildLaw17(scale int, seed int64) plan.Node {
	r1ss, r2 := standardGreatPair(scale, seed)
	r1ss = algebra.RenameAll(r1ss, "a2", "b")
	r1s := relation.New(schema.New("a1"))
	for i := 0; i < 8; i++ {
		r1s.Insert(relation.Tuple{value.Int(int64(i))})
	}
	return &plan.GreatDivide{
		Dividend: &plan.Product{Left: scan("r1s", r1s), Right: scan("r1ss", r1ss)},
		Divisor:  scan("r2", r2),
	}
}

func buildExample1(scale int, seed int64) plan.Node {
	r1, r2 := standardPair(scale, seed)
	p := pred.Compare(pred.Attr("b"), pred.Lt, pred.ConstInt(48))
	return &plan.Divide{
		Dividend: &plan.Select{Input: scan("r1", r1), Pred: p},
		Divisor:  scan("r2", r2),
	}
}

func buildExample2(scale int, seed int64) plan.Node {
	r1, r2 := standardPair(scale, seed)
	r1 = algebra.RenameAll(r1, "a", "b1")
	r2 = algebra.RenameAll(r2, "b1")
	s := relation.New(schema.New("b2"))
	for i := 0; i < 4; i++ {
		s.Insert(relation.Tuple{value.Int(int64(i))})
	}
	sScan := scan("s", s)
	return &plan.Divide{
		Dividend: &plan.Product{Left: scan("r1", r1), Right: sScan},
		Divisor:  &plan.Product{Left: scan("r2", r2), Right: sScan},
	}
}

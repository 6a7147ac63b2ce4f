package datagen

import (
	"testing"

	"divlaws/internal/division"
	"divlaws/internal/schema"
)

func TestSuppliersPartsShape(t *testing.T) {
	g := SuppliersParts{Suppliers: 20, Parts: 30, Colors: 4, AvgSupplied: 6, Seed: 1}
	supplies, parts := g.Generate()
	if parts.Len() != 30 {
		t.Errorf("parts Len = %d", parts.Len())
	}
	if supplies.Empty() {
		t.Fatal("supplies empty")
	}
	if !supplies.Schema().Equal(schema.New("s#", "p#")) ||
		!parts.Schema().Equal(schema.New("p#", "color")) {
		t.Errorf("schemas: %v %v", supplies.Schema(), parts.Schema())
	}
	// Determinism.
	s2, p2 := g.Generate()
	if !s2.Equal(supplies) || !p2.Equal(parts) {
		t.Error("generator must be deterministic for a fixed seed")
	}
	// Different seeds should differ (overwhelmingly likely).
	s3, _ := SuppliersParts{Suppliers: 20, Parts: 30, Colors: 4, AvgSupplied: 6, Seed: 2}.Generate()
	if s3.Equal(supplies) {
		t.Error("different seeds should differ")
	}
}

func TestSuppliersPartsDivisible(t *testing.T) {
	// The generator biases toward whole-color coverage; the great
	// divide over its output must be nonempty.
	supplies, parts := SuppliersParts{Suppliers: 40, Parts: 30, Colors: 3, AvgSupplied: 8, Seed: 7}.Generate()
	q := division.GreatDivide(supplies, parts.Reorder([]string{"p#", "color"}))
	if q.Empty() {
		t.Error("generated scenario yields an empty quotient; bias failed")
	}
}

func TestBaskets(t *testing.T) {
	g := Baskets{Transactions: 50, Items: 20, AvgSize: 4, Skew: 0.8, Seed: 3}
	txs := g.Generate()
	if len(txs) != 50 {
		t.Fatalf("transactions = %d", len(txs))
	}
	total := 0
	for _, tx := range txs {
		if len(tx.Items) == 0 {
			t.Error("empty basket generated")
		}
		seen := map[int64]bool{}
		for _, it := range tx.Items {
			if it < 0 || it >= 20 {
				t.Errorf("item %d outside universe", it)
			}
			if seen[it] {
				t.Error("duplicate item in basket")
			}
			seen[it] = true
		}
		total += len(tx.Items)
	}
	avg := float64(total) / 50
	if avg < 1.5 || avg > 8 {
		t.Errorf("average basket size %.1f implausible for AvgSize 4", avg)
	}
	rel := g.Relation()
	if rel.Empty() || !rel.Schema().Equal(schema.New("tid", "item")) {
		t.Errorf("vertical relation wrong: %v", rel.Schema())
	}
}

func TestBasketsSkewConcentrates(t *testing.T) {
	uniform := Baskets{Transactions: 400, Items: 50, AvgSize: 4, Skew: 0, Seed: 5}
	skewed := Baskets{Transactions: 400, Items: 50, AvgSize: 4, Skew: 1.5, Seed: 5}
	top := func(g Baskets) float64 {
		counts := make(map[int64]int)
		n := 0
		for _, tx := range g.Generate() {
			for _, it := range tx.Items {
				counts[it]++
				n++
			}
		}
		best := 0
		for _, c := range counts {
			if c > best {
				best = c
			}
		}
		return float64(best) / float64(n)
	}
	if top(skewed) <= top(uniform) {
		t.Error("skewed distribution should concentrate on hot items")
	}
}

func TestDividePairHitRate(t *testing.T) {
	g := DividePair{Groups: 200, GroupSize: 5, DivisorSize: 6, Domain: 50, HitRate: 0.3, Seed: 9}
	r1, r2 := g.Generate()
	if r2.Len() != 6 {
		t.Fatalf("divisor Len = %d", r2.Len())
	}
	q := division.Divide(r1, r2)
	frac := float64(q.Len()) / 200
	// Constructed hits are 30%; random extras may add a few.
	if frac < 0.2 || frac > 0.7 {
		t.Errorf("quotient fraction = %.2f, want near 0.3", frac)
	}
	// Zero hit rate with a large domain yields a mostly-empty quotient.
	r1z, r2z := DividePair{Groups: 100, GroupSize: 3, DivisorSize: 8, Domain: 1000, HitRate: 0, Seed: 9}.Generate()
	if q := division.Divide(r1z, r2z); q.Len() > 5 {
		t.Errorf("zero hit rate should give few quotients, got %d", q.Len())
	}
}

func TestGreatDividePair(t *testing.T) {
	g := GreatDividePair{
		Groups: 100, GroupSize: 4,
		DivisorGroups: 5, DivisorGroupSize: 4,
		Domain: 40, HitRate: 0.5, Seed: 11,
	}
	r1, r2 := g.Generate()
	if got := r2.Len(); got != 20 {
		t.Fatalf("divisor tuples = %d, want 20", got)
	}
	q := division.GreatDivide(r1, r2)
	if q.Empty() {
		t.Error("expected nonempty great-divide quotient")
	}
}

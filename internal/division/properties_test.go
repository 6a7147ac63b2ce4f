package division_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"divlaws/internal/algebra"
	"divlaws/internal/division"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/value"
)

// relFromBytes deterministically builds a dividend and divisor from
// fuzz bytes, giving testing/quick a structured input space.
func relFromBytes(dividend, divisor []byte) (r1, r2 *relation.Relation) {
	r1 = relation.New(schema.New("a", "b"))
	for i := 0; i+1 < len(dividend); i += 2 {
		r1.Insert(relation.Tuple{
			value.Int(int64(dividend[i] % 6)),
			value.Int(int64(dividend[i+1] % 6)),
		})
	}
	r2 = relation.New(schema.New("b"))
	for _, b := range divisor {
		r2.Insert(relation.Tuple{value.Int(int64(b % 6))})
	}
	return r1, r2
}

func TestQuotientIsSubsetOfCandidates(t *testing.T) {
	// r1 ÷ r2 ⊆ πA(r1), always.
	f := func(dividend, divisor []byte) bool {
		r1, r2 := relFromBytes(dividend, divisor)
		if r2.Empty() {
			return true
		}
		q := algebra.Divide(r1, r2)
		candidates := algebra.Project(r1, "a")
		for _, tp := range q.Tuples() {
			if !candidates.Contains(tp) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuotientTimesDivisorWithinDividend(t *testing.T) {
	// (r1 ÷ r2) × r2 ⊆ r1: every quotient group contains the whole
	// divisor.
	f := func(dividend, divisor []byte) bool {
		r1, r2 := relFromBytes(dividend, divisor)
		if r2.Empty() {
			return true
		}
		q := algebra.Divide(r1, r2)
		back := algebra.Product(q, r2)
		for _, tp := range back.Tuples() {
			if !r1.Contains(tp) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuotientIsMaximal(t *testing.T) {
	// The quotient is the LARGEST x with x × r2 ⊆ r1: every excluded
	// candidate a must be missing some divisor element.
	f := func(dividend, divisor []byte) bool {
		r1, r2 := relFromBytes(dividend, divisor)
		if r2.Empty() {
			return true
		}
		q := algebra.Divide(r1, r2)
		for _, cand := range algebra.Project(r1, "a").Tuples() {
			if q.Contains(cand) {
				continue
			}
			covered := true
			for _, d := range r2.Tuples() {
				if !r1.Contains(cand.Concat(d)) {
					covered = false
					break
				}
			}
			if covered {
				return false // excluded but fully covered: not maximal
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDivideAntiMonotoneInDivisor(t *testing.T) {
	// r2 ⊆ r2' implies r1 ÷ r2 ⊇ r1 ÷ r2'.
	f := func(dividend, divisor, extra []byte) bool {
		r1, r2 := relFromBytes(dividend, divisor)
		bigger := r2.Clone()
		for _, b := range extra {
			bigger.Insert(relation.Tuple{value.Int(int64(b % 6))})
		}
		qSmall := algebra.Divide(r1, r2)
		qBig := algebra.Divide(r1, bigger)
		for _, tp := range qBig.Tuples() {
			if !qSmall.Contains(tp) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDivideMonotoneInDividend(t *testing.T) {
	// r1 ⊆ r1' implies r1 ÷ r2 ⊆ r1' ÷ r2.
	f := func(dividend, divisor, extra []byte) bool {
		r1, r2 := relFromBytes(dividend, divisor)
		bigger := r1.Clone()
		for i := 0; i+1 < len(extra); i += 2 {
			bigger.Insert(relation.Tuple{
				value.Int(int64(extra[i] % 6)),
				value.Int(int64(extra[i+1] % 6)),
			})
		}
		qSmall := algebra.Divide(r1, r2)
		qBig := algebra.Divide(bigger, r2)
		for _, tp := range qSmall.Tuples() {
			if !qBig.Contains(tp) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGreatDivideRestrictionIsSmallDivide(t *testing.T) {
	// For each divisor group c, σ_{c}(r1 ÷* r2) projected to A equals
	// r1 ÷ πB(σ_{C=c}(r2)) — Definition 4 itself, for the hash kernel
	// against the reference's small divide.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 100; trial++ {
		r1, r2 := randDatabase(rng, rng.Intn(30), 1+rng.Intn(12), 4, 5, 3)
		if r2.Empty() {
			continue
		}
		great := division.HashGreatDivide(r1, r2)
		for _, c := range algebra.Project(r2, "c").Tuples() {
			group := relation.New(schema.New("b"))
			for _, tp := range r2.Tuples() {
				if tp[1].Equal(c[0]) {
					group.Insert(tp[:1])
				}
			}
			small := algebra.Divide(r1, group)
			// Collect the great-divide rows for this c.
			fromGreat := relation.New(schema.New("a"))
			for _, tp := range great.Tuples() {
				if tp[1].Equal(c[0]) {
					fromGreat.Insert(tp[:1])
				}
			}
			if !small.Equal(fromGreat) {
				t.Fatalf("trial %d group %v: small=%v greatslice=%v", trial, c, small, fromGreat)
			}
		}
	}
}

func TestGreatDivideQuotientCountBounds(t *testing.T) {
	// |r1 ÷* r2| ≤ |πA(r1)| · |πC(r2)|.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		r1, r2 := randDatabase(rng, rng.Intn(40), rng.Intn(15), 5, 5, 4)
		if r1.Empty() || r2.Empty() {
			continue
		}
		q := algebra.GreatDivide(r1, r2)
		bound := algebra.Project(r1, "a").Len() * algebra.Project(r2, "c").Len()
		if q.Len() > bound {
			t.Fatalf("quotient %d exceeds bound %d", q.Len(), bound)
		}
	}
}

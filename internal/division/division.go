// Package division holds what the engine runs of the paper's two
// division operators, small divide r1 ÷ r2 (Codd's relational
// division, §2.1) and great divide r1 ÷* r2 (§2.2):
//
//   - the schema split into the paper's attribute sets A, B and C
//     (SmallSplit, GreatSplit, SplitOf);
//   - the streaming hash divisions exec feeds from its iterators,
//     DivideState (Graefe's hash-division) and GreatDivideState
//     (counting set-containment division), and HashDivide and
//     HashGreatDivide, which run them over materialized relations.
//
// The reference the engine is checked against divides by sorting and
// merging instead (algebra.Divide, algebra.GreatDivide). The paper's
// other definitions of ÷ (Healy's, Maier's, counting division) and of
// ÷* (Theorem 1's Definitions 4–6) are plans in this package's tests,
// checked against the reference through plan.Eval and exec.
//
// Schema conventions follow the paper. For the small divide, the
// dividend r1 has schema A ∪ B and the divisor r2 has schema B, with
// A and B nonempty and disjoint; the quotient has schema A. For the
// great divide the divisor has schema B ∪ C and the quotient A ∪ C.
package division

import (
	"fmt"

	"divlaws/internal/relation"
	"divlaws/internal/schema"
)

// Split describes how a division decomposes the operand schemas into
// the paper's attribute sets.
type Split struct {
	A schema.Schema // quotient attributes (dividend-only)
	B schema.Schema // common "element" attributes
	C schema.Schema // divisor group attributes (great divide only)
}

// SmallSplit computes and validates the A/B split for r1 ÷ r2:
// B is r2's entire schema, which must be a nonempty subset of r1's,
// and A = R1 − B must be nonempty (paper §2.1).
func SmallSplit(r1, r2 schema.Schema) (Split, error) {
	b := r2
	if b.Len() == 0 {
		return Split{}, fmt.Errorf("division: divisor schema must be nonempty")
	}
	if !b.SubsetOf(r1) {
		return Split{}, fmt.Errorf("division: divisor schema %v not contained in dividend schema %v", b, r1)
	}
	a := r1.Minus(b)
	if a.Len() == 0 {
		return Split{}, fmt.Errorf("division: dividend schema %v adds no quotient attributes over divisor %v", r1, b)
	}
	return Split{A: a, B: b}, nil
}

// GreatSplit computes and validates the A/B/C split for r1 ÷* r2:
// B = R1 ∩ R2 nonempty, A = R1 − B nonempty, C = R2 − B nonempty
// (paper §2.2; with C = ∅ great divide degenerates to small divide,
// which callers should express as Divide).
func GreatSplit(r1, r2 schema.Schema) (Split, error) {
	b := r1.Intersect(r2)
	if b.Len() == 0 {
		return Split{}, fmt.Errorf("division: dividend %v and divisor %v share no attributes", r1, r2)
	}
	a := r1.Minus(b)
	if a.Len() == 0 {
		return Split{}, fmt.Errorf("division: dividend %v has no quotient attributes", r1)
	}
	c := r2.Minus(b)
	if c.Len() == 0 {
		return Split{}, fmt.Errorf("division: divisor %v has no group attributes; use small divide", r2)
	}
	return Split{A: a, B: b, C: c}, nil
}

// SplitOf is SmallSplit when r2's schema is contained in r1's
// (C = ∅: ÷ is ÷* with no group attributes) and GreatSplit otherwise.
func SplitOf(r1, r2 schema.Schema) (Split, error) {
	if r2.SubsetOf(r1) {
		return SmallSplit(r1, r2)
	}
	return GreatSplit(r1, r2)
}

// Quotient is the quotient schema A ∪ C (A itself for ÷).
func (s Split) Quotient() schema.Schema {
	if s.C.Len() == 0 {
		return s.A
	}
	return s.A.Concat(s.C)
}

// Algorithm names a physical division implementation; a plan.Divide
// may pin one for the engine.
type Algorithm string

// The algorithms the engine runs: hash-division for ÷ and ÷* (the
// streaming states of this package) and the group-preserving merge
// division exec runs over a dividend sorted on A.
const (
	AlgoHash      Algorithm = "hash"       // Graefe's hash-division
	AlgoMergeSort Algorithm = "merge-sort" // sort-based group scan
	GreatAlgoHash Algorithm = "hash"       // counting set-containment division
)

// HashDivide is Graefe's hash-division over materialized relations:
// the divisor is loaded into a hash table assigning each tuple a bit
// position; a single scan of the dividend sets bits in a per-group
// bitmap; groups with all bits set are quotients. It wraps
// DivideState and panics on schema violations.
func HashDivide(r1, r2 *relation.Relation) *relation.Relation {
	st, err := NewDivideState(r1.Schema(), r2.Schema())
	if err != nil {
		panic(err)
	}
	for _, d := range r2.Tuples() {
		st.AddDivisor(d)
	}
	for _, t := range r1.Tuples() {
		st.AddDividend(t)
	}
	return st.Result()
}

// HashGreatDivide is the counting set-containment division over
// materialized relations: a pair (a, c) qualifies when a's group
// covers every distinct B value of divisor group c. It wraps
// GreatDivideState and panics on schema violations.
func HashGreatDivide(r1, r2 *relation.Relation) *relation.Relation {
	st, err := NewGreatDivideState(r1.Schema(), r2.Schema())
	if err != nil {
		panic(err)
	}
	for _, t := range r2.Tuples() {
		st.AddDivisor(t)
	}
	for _, t := range r1.Tuples() {
		st.AddDividend(t)
	}
	return st.Result()
}

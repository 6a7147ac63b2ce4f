// Package division implements the paper's two division operators as
// first-class physical algorithms:
//
//   - small divide r1 ÷ r2 (Codd's relational division, §2.1), with
//     the three equivalent logical definitions (Codd, Healy, Maier)
//     plus the efficient special-purpose algorithms the paper cites:
//     hash-division, merge-sort division, and counting division
//     (Graefe; Graefe & Cole; Rantzau et al.).
//
//   - great divide r1 ÷* r2 (§2.2), with the three equivalent
//     definitions of Theorem 1 — set containment division (Def. 4),
//     Demolombe's generalized division (Def. 5), Todd's great divide
//     (Def. 6) — plus a hash-based many-to-many algorithm.
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

// mustSmallSplit panics on invalid schemas; the division operators
// treat schema violations as programming errors, like package algebra.
func mustSmallSplit(r1, r2 *relation.Relation) Split {
	s, err := SmallSplit(r1.Schema(), r2.Schema())
	if err != nil {
		panic(err)
	}
	return s
}

func mustGreatSplit(r1, r2 *relation.Relation) Split {
	s, err := GreatSplit(r1.Schema(), r2.Schema())
	if err != nil {
		panic(err)
	}
	return s
}

// Algorithm names a physical small-divide implementation.
type Algorithm string

// The registered small-divide algorithms.
const (
	AlgoNaive     Algorithm = "naive"      // Codd's image-set definition, nested loops
	AlgoHealy     Algorithm = "healy"      // Healy's algebraic simulation (Definition 2)
	AlgoMaier     Algorithm = "maier"      // Maier's per-divisor intersection (Definition 3)
	AlgoHash      Algorithm = "hash"       // Graefe's hash-division
	AlgoMergeSort Algorithm = "merge-sort" // sort-based group scan
	AlgoCount     Algorithm = "count"      // counting division (semi-join + group count)
)

// Algorithms lists the registered small-divide algorithms in a
// stable order.
func Algorithms() []Algorithm {
	return []Algorithm{AlgoNaive, AlgoHealy, AlgoMaier, AlgoHash, AlgoMergeSort, AlgoCount}
}

// Divide computes r1 ÷ r2 with the default algorithm
// (hash-division). It panics on schema violations.
func Divide(r1, r2 *relation.Relation) *relation.Relation {
	return HashDivide(r1, r2)
}

// DivideWith computes r1 ÷ r2 using the named algorithm.
func DivideWith(algo Algorithm, r1, r2 *relation.Relation) *relation.Relation {
	switch algo {
	case AlgoNaive:
		return NaiveDivide(r1, r2)
	case AlgoHealy:
		return HealyDivide(r1, r2)
	case AlgoMaier:
		return MaierDivide(r1, r2)
	case AlgoHash:
		return HashDivide(r1, r2)
	case AlgoMergeSort:
		return MergeSortDivide(r1, r2)
	case AlgoCount:
		return CountDivide(r1, r2)
	default:
		panic(fmt.Sprintf("division: unknown algorithm %q", algo))
	}
}

// The registered great-divide algorithms, one per definition of
// Theorem 1 plus the hash-based physical operator.
const (
	GreatAlgoGroupLoop Algorithm = "group-loop" // Definition 4 (set containment division)
	GreatAlgoDemolombe Algorithm = "demolombe"  // Definition 5 (generalized division)
	GreatAlgoTodd      Algorithm = "todd"       // Definition 6 (great divide)
	GreatAlgoHash      Algorithm = "hash"       // counting set-containment division
	GreatAlgoMerge     Algorithm = "merge-sort" // sort-based set-containment division
)

// GreatAlgorithms lists the registered great-divide algorithms.
func GreatAlgorithms() []Algorithm {
	return []Algorithm{GreatAlgoGroupLoop, GreatAlgoDemolombe, GreatAlgoTodd, GreatAlgoHash, GreatAlgoMerge}
}

// GreatDivide computes r1 ÷* r2 with the default algorithm (hash).
// It panics on schema violations.
func GreatDivide(r1, r2 *relation.Relation) *relation.Relation {
	return HashGreatDivide(r1, r2)
}

// GreatDivideWith computes r1 ÷* r2 using the named algorithm.
func GreatDivideWith(algo Algorithm, r1, r2 *relation.Relation) *relation.Relation {
	switch algo {
	case GreatAlgoGroupLoop:
		return GroupLoopGreatDivide(r1, r2)
	case GreatAlgoDemolombe:
		return DemolombeGreatDivide(r1, r2)
	case GreatAlgoTodd:
		return ToddGreatDivide(r1, r2)
	case GreatAlgoHash:
		return HashGreatDivide(r1, r2)
	case GreatAlgoMerge:
		return MergeGreatDivide(r1, r2)
	default:
		panic(fmt.Sprintf("division: unknown great-divide algorithm %q", algo))
	}
}

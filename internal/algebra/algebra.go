// Package algebra implements the basic relational operators of the
// paper's Appendix A with set semantics: union, intersection,
// difference, Cartesian product, projection, selection, theta-join,
// natural join, semi-join, anti-semi-join, left outer join, grouping
// with aggregation, and rename.
//
// Division (small and great divide) is a derived operator built on
// these; it lives in package division.
package algebra

import (
	"fmt"

	"divlaws/internal/pred"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/value"
)

// align returns s with its columns reordered to match r's schema.
// It panics if the attribute sets differ: the set operators are only
// defined over union-compatible relations.
func align(r, s *relation.Relation) *relation.Relation {
	if r.Schema().Equal(s.Schema()) {
		return s
	}
	if !r.Schema().EqualSet(s.Schema()) {
		panic(fmt.Sprintf("algebra: set operator over incompatible schemas %v and %v",
			r.Schema(), s.Schema()))
	}
	return s.Reorder(r.Schema().Attrs())
}

// Union returns r ∪ s.
func Union(r, s *relation.Relation) *relation.Relation {
	s = align(r, s)
	out := relation.New(r.Schema())
	out.InsertAll(r)
	out.InsertAll(s)
	return out
}

// Intersect returns r ∩ s.
func Intersect(r, s *relation.Relation) *relation.Relation {
	s = align(r, s)
	out := relation.New(r.Schema())
	for _, t := range r.Tuples() {
		if s.Contains(t) {
			out.InsertOwned(t)
		}
	}
	return out
}

// Diff returns r − s.
func Diff(r, s *relation.Relation) *relation.Relation {
	s = align(r, s)
	out := relation.New(r.Schema())
	for _, t := range r.Tuples() {
		if !s.Contains(t) {
			out.InsertOwned(t)
		}
	}
	return out
}

// Product returns the Cartesian product r × s. The schemas must be
// disjoint (rename first otherwise).
func Product(r, s *relation.Relation) *relation.Relation {
	out := relation.New(r.Schema().Concat(s.Schema()))
	for _, t := range r.Tuples() {
		for _, u := range s.Tuples() {
			out.InsertOwned(t.Concat(u))
		}
	}
	return out
}

// Project returns π_attrs(r), eliminating duplicates.
func Project(r *relation.Relation, attrs ...string) *relation.Relation {
	sch, pos := r.Schema().Project(attrs)
	out := relation.New(sch)
	for _, t := range r.Tuples() {
		out.InsertOwned(t.Project(pos))
	}
	return out
}

// Select returns σ_p(r).
func Select(r *relation.Relation, p pred.Predicate) *relation.Relation {
	out := relation.New(r.Schema())
	for _, t := range r.Tuples() {
		if p.Eval(t, r.Schema()) {
			out.InsertOwned(t)
		}
	}
	return out
}

// ThetaJoin returns r ⋈θ s = σθ(r × s). The schemas must be
// disjoint; qualify or rename attributes first.
func ThetaJoin(r, s *relation.Relation, theta pred.Predicate) *relation.Relation {
	out := relation.New(r.Schema().Concat(s.Schema()))
	outSch := out.Schema()
	for _, t := range r.Tuples() {
		for _, u := range s.Tuples() {
			joined := t.Concat(u)
			if theta.Eval(joined, outSch) {
				out.InsertOwned(joined)
			}
		}
	}
	return out
}

// NaturalJoin returns r ⋈ s, joining on the attributes common to both
// schemas and emitting each common attribute once. With no common
// attributes it degenerates to the Cartesian product, as in the
// textbook definition.
func NaturalJoin(r, s *relation.Relation) *relation.Relation {
	common := r.Schema().Intersect(s.Schema())
	if common.Len() == 0 {
		return Product(r, s)
	}
	rPos := r.Schema().Positions(common.Attrs())
	sPos := s.Schema().Positions(common.Attrs())
	sExtra := s.Schema().Minus(common)
	sExtraPos := s.Schema().Positions(sExtra.Attrs())

	// Hash s on the common attributes: key id -> matching s tuples.
	var keyIx relation.TupleIndex
	var rows [][]relation.Tuple
	for _, u := range s.Tuples() {
		id, created := keyIx.IDProj(u, sPos)
		if created {
			rows = append(rows, nil)
		}
		rows[id] = append(rows[id], u)
	}

	out := relation.New(r.Schema().Union(sExtra))
	for _, t := range r.Tuples() {
		if id := keyIx.LookupProj(t, rPos); id >= 0 {
			for _, u := range rows[id] {
				out.InsertOwned(t.ConcatProj(u, sExtraPos))
			}
		}
	}
	return out
}

// SemiJoin returns the left semi-join r ⋉ s: tuples of r that join
// with at least one tuple of s on the common attributes.
func SemiJoin(r, s *relation.Relation) *relation.Relation {
	common := r.Schema().Intersect(s.Schema())
	out := relation.New(r.Schema())
	if common.Len() == 0 {
		// Degenerate: natural join is a product, so r ⋉ s is r when s
		// is nonempty and ∅ otherwise.
		if !s.Empty() {
			out.InsertAll(r)
		}
		return out
	}
	rPos := r.Schema().Positions(common.Attrs())
	sPos := s.Schema().Positions(common.Attrs())
	var keys relation.TupleIndex
	for _, u := range s.Tuples() {
		keys.IDProj(u, sPos)
	}
	for _, t := range r.Tuples() {
		if keys.LookupProj(t, rPos) >= 0 {
			out.InsertOwned(t)
		}
	}
	return out
}

// AntiSemiJoin returns r ▷ s = r − (r ⋉ s): tuples of r with no join
// partner in s.
func AntiSemiJoin(r, s *relation.Relation) *relation.Relation {
	return Diff(r, SemiJoin(r, s))
}

// LeftOuterJoin returns r ⟕ s: the natural join plus the dangling
// tuples of r padded with NULLs for s's extra attributes (paper
// Appendix A, after Griffin & Kumar).
func LeftOuterJoin(r, s *relation.Relation) *relation.Relation {
	inner := NaturalJoin(r, s)
	out := relation.New(inner.Schema())
	out.InsertAll(inner)
	pad := inner.Schema().Len() - r.Schema().Len()
	for _, t := range AntiSemiJoin(r, s).Tuples() {
		padded := t.Clone()
		for i := 0; i < pad; i++ {
			padded = append(padded, value.Null)
		}
		out.InsertOwned(padded)
	}
	return out
}

// Rename returns r with attribute from renamed to to. ρ changes no
// tuple, so the result is an O(1) schema-only view sharing r's storage
// (relation.WithSchema), not a copy.
func Rename(r *relation.Relation, from, to string) *relation.Relation {
	return r.WithSchema(r.Schema().Rename(from, to))
}

// RenameAll returns r with its schema replaced by the given attribute
// names (same arity), used to qualify operands apart before products.
// Like Rename it is an O(1) view, whatever r's cardinality.
func RenameAll(r *relation.Relation, attrs ...string) *relation.Relation {
	if len(attrs) != r.Schema().Len() {
		panic(fmt.Sprintf("algebra: RenameAll arity %d vs schema %v", len(attrs), r.Schema()))
	}
	return r.WithSchema(schema.New(attrs...))
}

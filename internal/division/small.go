package division

import (
	"sort"

	"divlaws/internal/agg"
	"divlaws/internal/algebra"
	"divlaws/internal/relation"
)

// NaiveDivide evaluates Codd's definition directly (Definition 1):
// a dividend group qualifies iff its image set under r1 contains the
// divisor. O(|r1| · |r2|) with hashed image sets.
func NaiveDivide(r1, r2 *relation.Relation) *relation.Relation {
	split := mustSmallSplit(r1, r2)
	aPos := r1.Schema().Positions(split.A.Attrs())
	bPos := r1.Schema().Positions(split.B.Attrs())
	bOrder := r2.Schema().Positions(split.B.Attrs())

	// Image sets: i_r1(a) = { b | (a,b) ∈ r1 }.
	type group struct {
		a     relation.Tuple
		image map[string]struct{}
	}
	groups := make(map[string]*group)
	var order []string
	for _, t := range r1.Tuples() {
		at := t.Project(aPos)
		k := at.Key()
		g, ok := groups[k]
		if !ok {
			g = &group{a: at, image: make(map[string]struct{})}
			groups[k] = g
			order = append(order, k)
		}
		g.image[t.Project(bPos).Key()] = struct{}{}
	}

	out := relation.New(split.A)
	for _, k := range order {
		g := groups[k]
		contains := true
		for _, d := range r2.Tuples() {
			if _, ok := g.image[d.Project(bOrder).Key()]; !ok {
				contains = false
				break
			}
		}
		if contains {
			out.Insert(g.a)
		}
	}
	return out
}

// HealyDivide evaluates Definition 2:
//
//	r1 ÷ r2 = πA(r1) − πA((πA(r1) × r2) − r1)
//
// This is the pure-algebra simulation whose intermediate result
// πA(r1) × r2 is quadratic — the behaviour Leinders & Van den
// Bussche proved unavoidable for any basic-algebra expression [25].
func HealyDivide(r1, r2 *relation.Relation) *relation.Relation {
	split := mustSmallSplit(r1, r2)
	piA := algebra.Project(r1, split.A.Attrs()...)
	candidates := algebra.Product(piA, r2)
	// Align the dividend's columns to A then B before the difference.
	r1Aligned := r1.Reorder(candidates.Schema().Attrs())
	missing := algebra.Diff(candidates, r1Aligned)
	return algebra.Diff(piA, algebra.Project(missing, split.A.Attrs()...))
}

// MaierDivide evaluates Definition 3:
//
//	r1 ÷ r2 = ⋂_{t∈r2} πA(σ_{B=t}(r1))
//
// An empty divisor yields πA(r1), the intersection over an empty
// index set within the quotient-candidate universe (consistent with
// the other definitions).
func MaierDivide(r1, r2 *relation.Relation) *relation.Relation {
	split := mustSmallSplit(r1, r2)
	aPos := r1.Schema().Positions(split.A.Attrs())
	bPos := r1.Schema().Positions(split.B.Attrs())
	bOrder := r2.Schema().Positions(split.B.Attrs())

	var result *relation.Relation
	for _, d := range r2.Tuples() {
		want := d.Project(bOrder).Key()
		sel := relation.New(split.A)
		for _, t := range r1.Tuples() {
			if t.Project(bPos).Key() == want {
				sel.Insert(t.Project(aPos))
			}
		}
		if result == nil {
			result = sel
		} else {
			result = algebra.Intersect(result, sel)
		}
		if result.Empty() {
			break // intersection can only shrink
		}
	}
	if result == nil {
		return algebra.Project(r1, split.A.Attrs()...)
	}
	return result
}

// HashDivide is Graefe's hash-division: the divisor is loaded into a
// hash table assigning each tuple a bit position; a single scan of
// the dividend sets bits in a per-group bitmap; groups with all bits
// set are quotients. O(|r1| + |r2|) expected time, with no per-tuple
// key allocations (see DivideState, which it wraps).
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

// MergeSortDivide sorts the dividend on (A, B) and the divisor on B,
// then merges each dividend group against the sorted divisor in one
// pass per group — the merge-sort division of Graefe & Cole.
func MergeSortDivide(r1, r2 *relation.Relation) *relation.Relation {
	split := mustSmallSplit(r1, r2)
	aPos := r1.Schema().Positions(split.A.Attrs())
	bPos := r1.Schema().Positions(split.B.Attrs())
	bOrder := r2.Schema().Positions(split.B.Attrs())

	// Sorted divisor B-tuples (deduplicated by set semantics already).
	divisor := make([]relation.Tuple, 0, r2.Len())
	for _, d := range r2.Tuples() {
		divisor = append(divisor, d.Project(bOrder))
	}
	sort.Slice(divisor, func(i, j int) bool { return divisor[i].Compare(divisor[j]) < 0 })

	// Dividend sorted by (A, B).
	type row struct{ a, b relation.Tuple }
	rows := make([]row, 0, r1.Len())
	for _, t := range r1.Tuples() {
		rows = append(rows, row{a: t.Project(aPos), b: t.Project(bPos)})
	}
	sort.Slice(rows, func(i, j int) bool {
		if c := rows[i].a.Compare(rows[j].a); c != 0 {
			return c < 0
		}
		return rows[i].b.Compare(rows[j].b) < 0
	})

	out := relation.New(split.A)
	if len(divisor) == 0 {
		for _, r := range rows {
			out.Insert(r.a)
		}
		return out
	}
	i := 0
	for i < len(rows) {
		// Scan one dividend group, merging with the divisor list.
		groupA := rows[i].a
		d := 0
		for i < len(rows) && rows[i].a.Compare(groupA) == 0 {
			if d < len(divisor) {
				switch c := rows[i].b.Compare(divisor[d]); {
				case c == 0:
					d++
				case c > 0:
					// Divisor element missing from the group; group
					// cannot qualify, but we must still consume it.
					// (No advance of d: divisor[d] was skipped.)
				}
			}
			i++
		}
		if d == len(divisor) {
			out.Insert(groupA)
		}
	}
	return out
}

// CountDivide is the indirect counting approach (paper footnote 1,
// after Graefe & Cole): semi-join the dividend with the divisor,
// count matching B values per group, and keep groups whose count
// equals |r2|. Correct because relations are sets.
func CountDivide(r1, r2 *relation.Relation) *relation.Relation {
	split := mustSmallSplit(r1, r2)
	if r2.Empty() {
		return algebra.Project(r1, split.A.Attrs()...)
	}
	matched := algebra.SemiJoin(r1, r2)
	counted := algebra.Group(matched, split.A.Attrs(),
		[]agg.AggSpec{{Func: agg.Count, As: "·count"}})
	out := relation.New(split.A)
	n := int64(r2.Len())
	last := counted.Schema().Len() - 1
	aPos := make([]int, split.A.Len())
	for i := range aPos {
		aPos[i] = i
	}
	for _, t := range counted.Tuples() {
		if t[last].AsInt() == n {
			out.Insert(t.Project(aPos))
		}
	}
	return out
}

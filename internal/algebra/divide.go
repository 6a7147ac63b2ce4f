package algebra

import (
	"cmp"
	"math"
	"slices"

	"divlaws/internal/division"
	"divlaws/internal/relation"
	"divlaws/internal/value"
)

// Divide returns r1 ÷ r2 by Codd's definition (Definition 1): the
// A-values whose image set under r1 contains every divisor tuple.
// An empty divisor yields πA(r1). It panics on schema violations.
func Divide(r1, r2 *relation.Relation) *relation.Relation {
	split, err := division.SmallSplit(r1.Schema(), r2.Schema())
	if err != nil {
		panic(err)
	}
	return mergeDivide(r1, r2, split)
}

// GreatDivide returns r1 ÷* r2 by set containment (Definition 4):
// the pairs (a, c) whose dividend group a contains every B-value of
// divisor group c. It panics on schema violations.
func GreatDivide(r1, r2 *relation.Relation) *relation.Relation {
	split, err := division.GreatSplit(r1.Schema(), r2.Schema())
	if err != nil {
		panic(err)
	}
	return mergeDivide(r1, r2, split)
}

// mergeDivide is the merge-sort division of Graefe & Cole, lifted to
// ÷* as in Rantzau et al.: it sorts row indices of the dividend on
// (A, B) and of the divisor on (C, B), then merges every dividend
// group against every divisor group. ÷ is the case C = ∅, whose
// divisor is one group even when empty. Membership, grouping and
// containment are decided by compareValues alone: no hashing and no
// per-row projection, so the engine's hash kernels have an
// independent oracle.
func mergeDivide(r1, r2 *relation.Relation, split division.Split) *relation.Relation {
	dividend, divisor := r1.Tuples(), r2.Tuples()
	aPos := r1.Schema().Positions(split.A.Attrs())
	b1Pos := r1.Schema().Positions(split.B.Attrs())
	cPos := r2.Schema().Positions(split.C.Attrs())
	b2Pos := r2.Schema().Positions(split.B.Attrs())
	x := sortedIndex(dividend, aPos, b1Pos)
	y := sortedIndex(divisor, cPos, b2Pos)

	var groups [][]int // runs of y with one C-value
	for i := 0; i < len(y); {
		j := runEnd(divisor, y, i, cPos)
		groups = append(groups, y[i:j])
		i = j
	}
	if len(cPos) == 0 && len(groups) == 0 {
		groups = [][]int{nil}
	}

	out := relation.New(split.Quotient())
	for i := 0; i < len(x); {
		j := runEnd(dividend, x, i, aPos)
		for _, g := range groups {
			if !containsAll(dividend, x[i:j], b1Pos, divisor, g, b2Pos) {
				continue
			}
			q := make(relation.Tuple, 0, len(aPos)+len(cPos))
			for _, p := range aPos {
				q = append(q, dividend[x[i]][p])
			}
			for _, p := range cPos {
				q = append(q, divisor[g[0]][p])
			}
			out.InsertOwned(q)
		}
		i = j
	}
	return out
}

// sortedIndex returns the indices of rows sorted on the columns
// first, then second.
func sortedIndex(rows []relation.Tuple, first, second []int) []int {
	idx := make([]int, len(rows))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(i, j int) int {
		if c := compareAt(rows[i], first, rows[j], first); c != 0 {
			return c
		}
		return compareAt(rows[i], second, rows[j], second)
	})
	return idx
}

// runEnd returns the end of the run of idx starting at i whose rows
// agree on pos.
func runEnd(rows []relation.Tuple, idx []int, i int, pos []int) int {
	j := i + 1
	for j < len(idx) && compareAt(rows[idx[j]], pos, rows[idx[i]], pos) == 0 {
		j++
	}
	return j
}

// containsAll reports whether the B-values of the rows have[...] (at
// hPos) include those of want[...] (at wPos); both are sorted on B,
// so one linear merge decides it.
func containsAll(hRows []relation.Tuple, have []int, hPos []int, wRows []relation.Tuple, want []int, wPos []int) bool {
	h := 0
	for _, w := range want {
		c := -1
		for ; h < len(have); h++ {
			if c = compareAt(hRows[have[h]], hPos, wRows[w], wPos); c >= 0 {
				break
			}
		}
		if c != 0 {
			return false
		}
		h++
	}
	return true
}

// compareAt orders t[tPos...] against u[uPos...] lexicographically by
// compareValues.
func compareAt(t relation.Tuple, tPos []int, u relation.Tuple, uPos []int) int {
	for i, p := range tPos {
		if c := compareValues(t[p], u[uPos[i]]); c != 0 {
			return c
		}
	}
	return 0
}

// compareValues is a total order whose ties are exactly the set key's
// (value.AppendKey): kind first, then payload, a float by its bit
// pattern with every NaN canonical. value.Compare is not that order:
// it equates Int(1) and Float(1.0), which the key and the engine tell
// apart, and it equates NaN with every number.
func compareValues(v, w value.Value) int {
	if v.Kind() != w.Kind() {
		return cmp.Compare(v.Kind(), w.Kind())
	}
	if v.Kind() == value.KindFloat {
		return cmp.Compare(floatBits(v.AsFloat()), floatBits(w.AsFloat()))
	}
	return value.Compare(v, w)
}

// floatBits is f's bit pattern, with every NaN mapped to one.
func floatBits(f float64) uint64 {
	if math.IsNaN(f) {
		f = math.NaN()
	}
	return math.Float64bits(f)
}

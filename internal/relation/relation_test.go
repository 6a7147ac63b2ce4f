package relation

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"divlaws/internal/hashkey"
	"divlaws/internal/schema"
	"divlaws/internal/value"
)

func tup(xs ...int64) Tuple {
	t := make(Tuple, len(xs))
	for i, x := range xs {
		t[i] = value.Int(x)
	}
	return t
}

func TestTupleEqual(t *testing.T) {
	if !tup(1, 2).Equal(tup(1, 2)) {
		t.Error("equal tuples")
	}
	if tup(1, 2).Equal(tup(1, 3)) || tup(1).Equal(tup(1, 2)) {
		t.Error("unequal tuples")
	}
}

func TestTupleKeyInjective(t *testing.T) {
	a := Tuple{value.String("a"), value.String("bc")}
	b := Tuple{value.String("ab"), value.String("c")}
	if a.Key() == b.Key() {
		t.Error("tuple keys must be injective across boundaries")
	}
	if tup(1, 2).Key() != tup(1, 2).Key() {
		t.Error("equal tuples must share a key")
	}
}

func TestTupleCloneConcatProject(t *testing.T) {
	orig := tup(1, 2, 3)
	c := orig.Clone()
	c[0] = value.Int(99)
	if !orig[0].Equal(value.Int(1)) {
		t.Error("Clone must not share storage")
	}
	if got := tup(1).Concat(tup(2, 3)); !got.Equal(tup(1, 2, 3)) {
		t.Errorf("Concat = %v", got)
	}
	if got := tup(10, 20, 30).Project([]int{2, 0}); !got.Equal(tup(30, 10)) {
		t.Errorf("Project = %v", got)
	}
}

func TestTupleCompare(t *testing.T) {
	cases := []struct {
		a, b Tuple
		want int
	}{
		{tup(1, 2), tup(1, 2), 0},
		{tup(1, 2), tup(1, 3), -1},
		{tup(2), tup(1, 9), 1},
		{tup(1), tup(1, 0), -1}, // prefix sorts first
	}
	for _, tc := range cases {
		if got := tc.a.Compare(tc.b); got != tc.want {
			t.Errorf("Compare(%v,%v) = %d want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestTupleString(t *testing.T) {
	tt := Tuple{value.Int(1), value.String("blue")}
	if tt.String() != "1, blue" {
		t.Errorf("String = %q", tt.String())
	}
}

func TestInsertSetSemantics(t *testing.T) {
	r := New(schema.New("a", "b"))
	if !r.Insert(tup(1, 2)) {
		t.Error("first insert should be new")
	}
	if r.Insert(tup(1, 2)) {
		t.Error("duplicate insert should report false")
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
	if !r.Contains(tup(1, 2)) || r.Contains(tup(2, 1)) {
		t.Error("Contains wrong")
	}
	if !r.ContainsKey(tup(1, 2).Key()) {
		t.Error("ContainsKey wrong")
	}
}

// TestInsertEqualFloatsOnce: floats value.Equal equates — ±0, and NaNs
// of different payloads — are one tuple, whether the hashes tell them
// apart or (at a 1-bit mask) every tuple collides and Equal decides.
func TestInsertEqualFloatsOnce(t *testing.T) {
	cases := []struct {
		name string
		a, b float64
	}{
		{"zeros", 0, math.Copysign(0, -1)},
		{"NaN payloads", math.NaN(), math.Float64frombits(0x7ff8000000000abc)},
	}
	for _, c := range cases {
		for _, mask := range []uint64{0, 0x1} {
			restore := hashkey.SetMaskForTesting(mask)
			r := New(schema.New("x"))
			r.Insert(Tuple{value.Float(c.a)})
			r.Insert(Tuple{value.Float(c.b)})
			if r.Len() != 1 || !r.Contains(Tuple{value.Float(c.b)}) {
				t.Errorf("%s, mask %#x: %d tuples, want 1", c.name, mask, r.Len())
			}
			restore()
		}
	}
}

func TestInsertArityPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected arity panic")
		}
	}()
	New(schema.New("a")).Insert(tup(1, 2))
}

func TestInsertClonesTuple(t *testing.T) {
	r := New(schema.New("a"))
	raw := tup(1)
	r.Insert(raw)
	raw[0] = value.Int(99)
	if !r.Tuples()[0].Equal(tup(1)) {
		t.Error("Insert must clone the tuple")
	}
}

func TestInsertAll(t *testing.T) {
	r := Ints([]string{"a"}, [][]int64{{1}, {2}})
	s := Ints([]string{"a"}, [][]int64{{2}, {3}})
	r.InsertAll(s)
	if r.Len() != 3 {
		t.Errorf("union Len = %d", r.Len())
	}
}

func TestSortedAndString(t *testing.T) {
	r := Ints([]string{"a", "b"}, [][]int64{{2, 1}, {1, 2}, {1, 1}})
	got := r.Sorted()
	if !got[0].Equal(tup(1, 1)) || !got[1].Equal(tup(1, 2)) || !got[2].Equal(tup(2, 1)) {
		t.Errorf("Sorted = %v", got)
	}
	want := "a b\n1 1\n1 2\n2 1"
	if r.String() != want {
		t.Errorf("String = %q want %q", r.String(), want)
	}
}

func TestCloneAndEqual(t *testing.T) {
	r := Ints([]string{"a", "b"}, [][]int64{{1, 2}, {3, 4}})
	c := r.Clone()
	if !r.Equal(c) {
		t.Error("clone should be Equal")
	}
	c.Insert(tup(5, 6))
	if r.Equal(c) || r.Len() == c.Len() {
		t.Error("clone must be independent")
	}
	different := Ints([]string{"a", "b"}, [][]int64{{1, 2}, {3, 5}})
	if r.Equal(different) {
		t.Error("different tuples should not be Equal")
	}
	otherSchema := Ints([]string{"x", "y"}, [][]int64{{1, 2}, {3, 4}})
	if r.Equal(otherSchema) {
		t.Error("different schemas should not be Equal")
	}
}

func TestEquivalentToIgnoresColumnOrder(t *testing.T) {
	r := Ints([]string{"a", "b"}, [][]int64{{1, 2}, {3, 4}})
	s := Ints([]string{"b", "a"}, [][]int64{{2, 1}, {4, 3}})
	if !r.EquivalentTo(s) {
		t.Error("column-permuted relations should be equivalent")
	}
	ne := Ints([]string{"b", "a"}, [][]int64{{1, 2}, {3, 4}})
	if r.EquivalentTo(ne) {
		t.Error("value-permuted relation should not be equivalent")
	}
	other := Ints([]string{"a", "c"}, [][]int64{{1, 2}})
	if r.EquivalentTo(other) {
		t.Error("different attribute sets should not be equivalent")
	}
}

func TestReorder(t *testing.T) {
	r := Ints([]string{"a", "b"}, [][]int64{{1, 2}})
	got := r.Reorder([]string{"b", "a"})
	if !got.Schema().Equal(schema.New("b", "a")) {
		t.Errorf("Reorder schema = %v", got.Schema())
	}
	if !got.Contains(tup(2, 1)) {
		t.Error("Reorder should permute tuple values")
	}
	defer func() {
		if recover() == nil {
			t.Error("Reorder with non-permutation should panic")
		}
	}()
	r.Reorder([]string{"a", "z"})
}

func TestIntsValidatesRows(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for ragged row")
		}
	}()
	Ints([]string{"a", "b"}, [][]int64{{1}})
}

func TestFromRowsAndToValue(t *testing.T) {
	sch := schema.New("i", "f", "s", "b", "n")
	r := FromRows(sch, [][]any{{1, 2.5, "x", true, nil}})
	tpl := r.Tuples()[0]
	if !tpl[0].Equal(value.Int(1)) || !tpl[1].Equal(value.Float(2.5)) ||
		!tpl[2].Equal(value.String("x")) || !tpl[3].Equal(value.Bool(true)) || !tpl[4].IsNull() {
		t.Errorf("FromRows tuple = %v", tpl)
	}
	if !ToValue(int64(7)).Equal(value.Int(7)) {
		t.Error("ToValue(int64)")
	}
	if !ToValue(value.Int(3)).Equal(value.Int(3)) {
		t.Error("ToValue passthrough")
	}
	defer func() {
		if recover() == nil {
			t.Error("ToValue should panic on unsupported type")
		}
	}()
	ToValue(struct{}{})
}

func TestFromRowsArityPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected arity panic")
		}
	}()
	FromRows(schema.New("a"), [][]any{{1, 2}})
}

func TestSetSemanticsProperty(t *testing.T) {
	// Inserting any multiset of rows yields cardinality == number of
	// distinct rows, independent of order.
	f := func(xs []uint8) bool {
		r := New(schema.New("a"))
		distinct := map[uint8]bool{}
		for _, x := range xs {
			r.Insert(tup(int64(x)))
			distinct[x] = true
		}
		return r.Len() == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStringHeaderOnlyWhenEmpty(t *testing.T) {
	r := New(schema.New("a", "b"))
	if got := r.String(); got != "a b" || strings.Contains(got, "\n") {
		t.Errorf("empty relation String = %q", got)
	}
}

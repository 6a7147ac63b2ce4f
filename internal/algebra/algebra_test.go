package algebra

import (
	"testing"
	"testing/quick"

	"divlaws/internal/agg"
	"divlaws/internal/pred"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/value"
)

func ints(attrs []string, rows ...[]int64) *relation.Relation {
	return relation.Ints(attrs, rows)
}

func TestUnion(t *testing.T) {
	r := ints([]string{"a"}, []int64{1}, []int64{2})
	s := ints([]string{"a"}, []int64{2}, []int64{3})
	got := Union(r, s)
	want := ints([]string{"a"}, []int64{1}, []int64{2}, []int64{3})
	if !got.Equal(want) {
		t.Errorf("Union = %v", got)
	}
}

func TestUnionAlignsColumns(t *testing.T) {
	r := ints([]string{"a", "b"}, []int64{1, 2})
	s := ints([]string{"b", "a"}, []int64{4, 3})
	got := Union(r, s)
	want := ints([]string{"a", "b"}, []int64{1, 2}, []int64{3, 4})
	if !got.Equal(want) {
		t.Errorf("aligned Union = %v", got)
	}
}

func TestSetOpsIncompatiblePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for incompatible schemas")
		}
	}()
	Union(ints([]string{"a"}, []int64{1}), ints([]string{"b"}, []int64{1}))
}

func TestIntersect(t *testing.T) {
	r := ints([]string{"a"}, []int64{1}, []int64{2}, []int64{3})
	s := ints([]string{"a"}, []int64{2}, []int64{3}, []int64{4})
	got := Intersect(r, s)
	if !got.Equal(ints([]string{"a"}, []int64{2}, []int64{3})) {
		t.Errorf("Intersect = %v", got)
	}
}

func TestDiff(t *testing.T) {
	r := ints([]string{"a"}, []int64{1}, []int64{2}, []int64{3})
	s := ints([]string{"a"}, []int64{2})
	if got := Diff(r, s); !got.Equal(ints([]string{"a"}, []int64{1}, []int64{3})) {
		t.Errorf("Diff = %v", got)
	}
	if got := Diff(s, r); !got.Empty() {
		t.Errorf("Diff reversed = %v", got)
	}
}

func TestProduct(t *testing.T) {
	r := ints([]string{"a"}, []int64{1}, []int64{2})
	s := ints([]string{"b"}, []int64{10}, []int64{20})
	got := Product(r, s)
	want := ints([]string{"a", "b"},
		[]int64{1, 10}, []int64{1, 20}, []int64{2, 10}, []int64{2, 20})
	if !got.Equal(want) {
		t.Errorf("Product = %v", got)
	}
	if got := Product(r, relation.New(schema.New("c"))); !got.Empty() {
		t.Error("product with empty relation should be empty")
	}
}

func TestProject(t *testing.T) {
	r := ints([]string{"a", "b"}, []int64{1, 1}, []int64{1, 2}, []int64{2, 1})
	got := Project(r, "a")
	if !got.Equal(ints([]string{"a"}, []int64{1}, []int64{2})) {
		t.Errorf("Project should dedup: %v", got)
	}
	if got := Project(r, "b", "a"); !got.Contains(relation.Tuple{value.Int(2), value.Int(1)}) {
		t.Errorf("Project reorder = %v", got)
	}
}

func TestSelect(t *testing.T) {
	r := ints([]string{"a", "b"}, []int64{1, 5}, []int64{2, 3}, []int64{3, 9})
	p := pred.Compare(pred.Attr("b"), pred.Gt, pred.ConstInt(4))
	got := Select(r, p)
	want := ints([]string{"a", "b"}, []int64{1, 5}, []int64{3, 9})
	if !got.Equal(want) {
		t.Errorf("Select = %v", got)
	}
	if got := Select(r, pred.False); !got.Empty() {
		t.Error("Select FALSE should be empty")
	}
	if got := Select(r, pred.True); !got.Equal(r) {
		t.Error("Select TRUE should be identity")
	}
}

func TestThetaJoin(t *testing.T) {
	r := ints([]string{"a"}, []int64{1}, []int64{2}, []int64{3})
	s := ints([]string{"b"}, []int64{2}, []int64{3})
	lt := pred.Compare(pred.Attr("a"), pred.Lt, pred.Attr("b"))
	got := ThetaJoin(r, s, lt)
	want := ints([]string{"a", "b"},
		[]int64{1, 2}, []int64{1, 3}, []int64{2, 3})
	if !got.Equal(want) {
		t.Errorf("ThetaJoin = %v", got)
	}
	// r ⋈θ s == σθ(r × s), the defining identity.
	if !got.Equal(Select(Product(r, s), lt)) {
		t.Error("theta-join must equal selection over product")
	}
}

func TestNaturalJoin(t *testing.T) {
	r := ints([]string{"a", "b"}, []int64{1, 10}, []int64{2, 20})
	s := ints([]string{"b", "c"}, []int64{10, 100}, []int64{10, 101}, []int64{30, 300})
	got := NaturalJoin(r, s)
	want := ints([]string{"a", "b", "c"},
		[]int64{1, 10, 100}, []int64{1, 10, 101})
	if !got.Equal(want) {
		t.Errorf("NaturalJoin = %v", got)
	}
}

func TestNaturalJoinNoCommonIsProduct(t *testing.T) {
	r := ints([]string{"a"}, []int64{1})
	s := ints([]string{"b"}, []int64{2})
	if got := NaturalJoin(r, s); !got.Equal(Product(r, s)) {
		t.Errorf("NaturalJoin disjoint = %v", got)
	}
}

func TestSemiJoin(t *testing.T) {
	r := ints([]string{"a", "b"}, []int64{1, 10}, []int64{2, 20}, []int64{3, 30})
	s := ints([]string{"b"}, []int64{10}, []int64{30})
	got := SemiJoin(r, s)
	want := ints([]string{"a", "b"}, []int64{1, 10}, []int64{3, 30})
	if !got.Equal(want) {
		t.Errorf("SemiJoin = %v", got)
	}
	// Defining identity: r ⋉ s = π[r](r ⋈ s).
	if !got.Equal(Project(NaturalJoin(r, s), "a", "b")) {
		t.Error("semi-join identity violated")
	}
}

func TestSemiJoinDegenerate(t *testing.T) {
	r := ints([]string{"a"}, []int64{1}, []int64{2})
	nonempty := ints([]string{"b"}, []int64{9})
	empty := relation.New(schema.New("b"))
	if got := SemiJoin(r, nonempty); !got.Equal(r) {
		t.Errorf("semi-join with disjoint nonempty = %v", got)
	}
	if got := SemiJoin(r, empty); !got.Empty() {
		t.Errorf("semi-join with disjoint empty = %v", got)
	}
}

func TestAntiSemiJoin(t *testing.T) {
	r := ints([]string{"a", "b"}, []int64{1, 10}, []int64{2, 20})
	s := ints([]string{"b"}, []int64{10})
	got := AntiSemiJoin(r, s)
	if !got.Equal(ints([]string{"a", "b"}, []int64{2, 20})) {
		t.Errorf("AntiSemiJoin = %v", got)
	}
	// r ⋉ s ∪ r ▷ s partitions r.
	if !Union(SemiJoin(r, s), got).Equal(r) {
		t.Error("semi/anti-semi must partition r")
	}
}

func TestLeftOuterJoin(t *testing.T) {
	r := ints([]string{"a", "b"}, []int64{1, 10}, []int64{2, 20})
	s := ints([]string{"b", "c"}, []int64{10, 100})
	got := LeftOuterJoin(r, s)
	if got.Len() != 2 {
		t.Fatalf("LeftOuterJoin Len = %d", got.Len())
	}
	if !got.Contains(relation.Tuple{value.Int(1), value.Int(10), value.Int(100)}) {
		t.Error("matched tuple missing")
	}
	if !got.Contains(relation.Tuple{value.Int(2), value.Int(20), value.Null}) {
		t.Error("dangling tuple should be NULL-padded")
	}
}

func TestRename(t *testing.T) {
	r := ints([]string{"a", "b"}, []int64{1, 2})
	got := Rename(r, "b", "c")
	if !got.Schema().Equal(schema.New("a", "c")) {
		t.Errorf("Rename schema = %v", got.Schema())
	}
	got2 := RenameAll(r, "x", "y")
	if !got2.Schema().Equal(schema.New("x", "y")) {
		t.Errorf("RenameAll schema = %v", got2.Schema())
	}
	defer func() {
		if recover() == nil {
			t.Error("RenameAll arity mismatch should panic")
		}
	}()
	RenameAll(r, "x")
}

func TestGroupPaperFigure10(t *testing.T) {
	// Fig. 10(a,b): r1 = aγsum(x)→b(r0).
	r0 := ints([]string{"a", "x"},
		[]int64{1, 1}, []int64{1, 2}, []int64{1, 3},
		[]int64{2, 1}, []int64{2, 3},
		[]int64{3, 1}, []int64{3, 3}, []int64{3, 4})
	got := Group(r0, []string{"a"}, []agg.AggSpec{{Func: agg.Sum, Attr: "x", As: "b"}})
	want := ints([]string{"a", "b"}, []int64{1, 6}, []int64{2, 4}, []int64{3, 8})
	if !got.Equal(want) {
		t.Errorf("Group sum = %v want %v", got, want)
	}
}

func TestGroupAggregates(t *testing.T) {
	r := ints([]string{"g", "x"},
		[]int64{1, 4}, []int64{1, 2}, []int64{2, 10})
	got := Group(r, []string{"g"}, []agg.AggSpec{
		{Func: agg.Count, As: "c"},
		{Func: agg.Sum, Attr: "x", As: "s"},
		{Func: agg.Min, Attr: "x", As: "lo"},
		{Func: agg.Max, Attr: "x", As: "hi"},
		{Func: agg.Avg, Attr: "x", As: "m"},
	})
	if got.Len() != 2 {
		t.Fatalf("groups = %d", got.Len())
	}
	want1 := relation.Tuple{value.Int(1), value.Int(2), value.Int(6), value.Int(2), value.Int(4), value.Float(3)}
	want2 := relation.Tuple{value.Int(2), value.Int(1), value.Int(10), value.Int(10), value.Int(10), value.Float(10)}
	if !got.Contains(want1) || !got.Contains(want2) {
		t.Errorf("Group aggregates = %v", got)
	}
}

func TestGroupCountAttr(t *testing.T) {
	// count(B) with explicit attribute, as in Law 11's side condition.
	r := ints([]string{"b"}, []int64{1}, []int64{3})
	got := Group(r, nil, []agg.AggSpec{{Func: agg.Count, Attr: "b", As: "c"}})
	if got.Len() != 1 || !got.Tuples()[0][0].Equal(value.Int(2)) {
		t.Errorf("global count = %v", got)
	}
}

func TestGroupGlobalOnEmpty(t *testing.T) {
	r := relation.New(schema.New("x"))
	got := Group(r, nil, []agg.AggSpec{
		{Func: agg.Count, As: "c"},
		{Func: agg.Sum, Attr: "x", As: "s"},
	})
	if got.Len() != 1 {
		t.Fatalf("global agg over empty = %v", got)
	}
	tpl := got.Tuples()[0]
	if !tpl[0].Equal(value.Int(0)) || !tpl[1].IsNull() {
		t.Errorf("empty-input aggregates = %v", tpl)
	}
}

func TestGroupByEmptyInputWithKeys(t *testing.T) {
	r := relation.New(schema.New("g", "x"))
	got := Group(r, []string{"g"}, []agg.AggSpec{{Func: agg.Count, As: "c"}})
	if !got.Empty() {
		t.Errorf("grouped agg over empty should be empty, got %v", got)
	}
}

// --- algebraic identities as property tests ---

func randRel(attrs []string, rows []uint8, width int) *relation.Relation {
	r := relation.New(schema.New(attrs...))
	for i := 0; i+width <= len(rows); i += width {
		t := make(relation.Tuple, width)
		for j := 0; j < width; j++ {
			t[j] = value.Int(int64(rows[i+j] % 8)) // small domain to force overlaps
		}
		r.Insert(t)
	}
	return r
}

func TestSetAlgebraProperties(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		r := randRel([]string{"a", "b"}, xs, 2)
		s := randRel([]string{"a", "b"}, ys, 2)
		// Commutativity of ∪ and ∩.
		if !Union(r, s).Equal(Union(s, r)) || !Intersect(r, s).Equal(Intersect(s, r)) {
			return false
		}
		// r − s = r − (r ∩ s).
		if !Diff(r, s).Equal(Diff(r, Intersect(r, s))) {
			return false
		}
		// (r − s) ∪ (r ∩ s) = r.
		if !Union(Diff(r, s), Intersect(r, s)).Equal(r) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestJoinDecompositionProperty(t *testing.T) {
	// r ⋈ s over shared attr b equals π(σ(r × s')) with rename.
	f := func(xs, ys []uint8) bool {
		r := randRel([]string{"a", "b"}, xs, 2)
		s := randRel([]string{"b", "c"}, ys, 2)
		viaJoin := NaturalJoin(r, s)
		s2 := RenameAll(s, "b2", "c")
		eq := pred.Compare(pred.Attr("b"), pred.Eq, pred.Attr("b2"))
		viaProduct := Project(Select(Product(r, s2), eq), "a", "b", "c")
		return viaJoin.Equal(viaProduct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestGroupNonNumericAggregatesYieldNull(t *testing.T) {
	// SUM/AVG over string columns must be NULL, not a crash; MIN/MAX
	// still work via the total order.
	r := relation.FromRows(schema.New("g", "s"), [][]any{
		{1, "b"}, {1, "a"},
	})
	got := Group(r, []string{"g"}, []agg.AggSpec{
		{Func: agg.Sum, Attr: "s", As: "sum"},
		{Func: agg.Avg, Attr: "s", As: "avg"},
		{Func: agg.Min, Attr: "s", As: "lo"},
		{Func: agg.Max, Attr: "s", As: "hi"},
	})
	tpl := got.Tuples()[0]
	if !tpl[1].IsNull() || !tpl[2].IsNull() {
		t.Errorf("sum/avg over strings = %v, %v; want NULLs", tpl[1], tpl[2])
	}
	if !tpl[3].Equal(value.String("a")) || !tpl[4].Equal(value.String("b")) {
		t.Errorf("min/max over strings = %v, %v", tpl[3], tpl[4])
	}
}

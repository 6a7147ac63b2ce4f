package relation

import (
	"testing"

	"divlaws/internal/hashkey"
	"divlaws/internal/schema"
)

// pairs builds {(i, i%7) | 0 <= i < n} over (a, b).
func pairs(n int) *Relation {
	r := New(schema.New("a", "b"))
	for i := 0; i < n; i++ {
		r.InsertOwned(tup(int64(i), int64(i%7)))
	}
	return r
}

func TestWithSchemaSharesStorage(t *testing.T) {
	src := pairs(1000)
	view := src.WithSchema(schema.New("x", "y"))
	if got := view.Schema().Attrs(); got[0] != "x" || got[1] != "y" {
		t.Fatalf("view schema = %v", got)
	}
	if src.Schema().Attr(0) != "a" {
		t.Fatal("WithSchema changed the source's schema")
	}
	if view.Len() != src.Len() {
		t.Fatalf("view has %d tuples, source %d", view.Len(), src.Len())
	}
	if &view.Tuples()[0] != &src.Tuples()[0] {
		t.Error("view copied the tuple slice")
	}
	// No table copy either: a view costs the same objects (the
	// Relation header) over 10 rows and over 100 000.
	small, large := pairs(10), pairs(100_000)
	sch := schema.New("x", "y")
	allocs := func(r *Relation) float64 {
		return testing.AllocsPerRun(100, func() { _ = r.WithSchema(sch) })
	}
	if s, l := allocs(small), allocs(large); s != l || l > 1 {
		t.Errorf("WithSchema allocates %v objects over 10 rows, %v over 100000; want equal and <= 1", s, l)
	}
}

func TestWithSchemaArityPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("WithSchema with the wrong arity must panic")
		}
	}()
	pairs(1).WithSchema(schema.New("x"))
}

// TestWithSchemaCopyOnWrite inserts on either side of a view and
// checks the other side stays the set it was — with the full hash
// and with every hash cut to 3 bits, where each probe chain holds
// many unequal candidates and a stale shared-table entry would be
// walked over constantly.
func TestWithSchemaCopyOnWrite(t *testing.T) {
	for _, mask := range []uint64{0, 7} {
		restore := hashkey.SetMaskForTesting(mask)
		const n = 200
		src := pairs(n)
		frozen := src.Clone()
		view := src.WithSchema(schema.New("x", "y"))
		frozenView := view.Clone()

		// Insert into the view: new tuples, and one duplicate.
		if view.Insert(tup(3, 3)) {
			t.Errorf("mask %d: view accepted a duplicate", mask)
		}
		for i := int64(0); i < 50; i++ {
			if !view.Insert(tup(1000+i, i)) {
				t.Errorf("mask %d: view rejected new tuple %d", mask, i)
			}
		}
		if view.Len() != n+50 || !view.Contains(tup(1007, 7)) || !view.Contains(tup(5, 5)) {
			t.Errorf("mask %d: view after inserts has %d tuples", mask, view.Len())
		}
		if !src.Equal(frozen) || src.Contains(tup(1007, 7)) {
			t.Errorf("mask %d: insert into the view changed the source", mask)
		}

		// Insert into the source: a second, still-shared view must not
		// see it, through Contains, ContainsKey, Equal or EquivalentTo.
		view2 := src.WithSchema(schema.New("x", "y"))
		for i := int64(0); i < 50; i++ {
			if !src.Insert(tup(2000+i, i)) {
				t.Errorf("mask %d: source rejected new tuple %d", mask, i)
			}
		}
		if view2.Len() != n || view2.Contains(tup(2007, 7)) || view2.ContainsKey(tup(2007, 7).Key()) {
			t.Errorf("mask %d: insert into the source leaked into the view", mask)
		}
		if !view2.Contains(tup(5, 5)) || !view2.ContainsKey(tup(5, 5).Key()) {
			t.Errorf("mask %d: view lost a tuple after the source grew", mask)
		}
		if !view2.Equal(frozenView) || !frozenView.Equal(view2) {
			t.Errorf("mask %d: view != its pre-insert clone", mask)
		}
		if !view2.EquivalentTo(frozenView.Reorder([]string{"y", "x"})) {
			t.Errorf("mask %d: view not EquivalentTo its reordered clone", mask)
		}
		// The view can take the very tuple the source took, once.
		if !view2.Insert(tup(2007, 7)) || view2.Insert(tup(2007, 7)) || view2.Len() != n+1 {
			t.Errorf("mask %d: view insert after source insert misbehaved", mask)
		}
		if src.Len() != n+50 {
			t.Errorf("mask %d: source has %d tuples, want %d", mask, src.Len(), n+50)
		}
		restore()
	}
}

func TestViewSetComparisons(t *testing.T) {
	src := pairs(100)
	view := src.WithSchema(schema.New("x", "y"))
	same := src.WithSchema(src.Schema())
	if !same.Equal(src) || !src.Equal(same) {
		t.Error("a view under the source's own schema must Equal the source")
	}
	if view.Equal(src) {
		t.Error("Equal must still compare schemas")
	}
	// A view of a view is a view of the source.
	vv := view.WithSchema(schema.New("b", "a"))
	if !vv.EquivalentTo(src.Reorder([]string{"b", "a"}).WithSchema(schema.New("a", "b"))) {
		t.Error("view of a view lost tuples")
	}
	if !view.Contains(tup(99, 1)) || view.Contains(tup(100, 2)) {
		t.Error("Contains on a view")
	}
	// Views of the empty relation work and take inserts.
	e := New(schema.New("a")).WithSchema(schema.New("z"))
	if !e.Empty() || e.Contains(tup(1)) || !e.Insert(tup(1)) || e.Len() != 1 {
		t.Error("view of the empty relation")
	}
}

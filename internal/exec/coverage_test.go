package exec

import (
	"context"
	"testing"

	"divlaws/internal/relation"
	"divlaws/internal/schema"
)

func TestCloseIdempotent(t *testing.T) {
	r := relation.Ints([]string{"a"}, [][]int64{{1}})
	iters := []BatchIterator{
		&ScanIter{Rel: r},
		&FilterBatch{Input: &ScanIter{Rel: r}, Pred: truePred{}},
		&ProjectBatch{Input: &ScanIter{Rel: r}, Attrs: []string{"a"}},
		&SortIter{Input: &ScanIter{Rel: r}},
	}
	for _, it := range iters {
		if err := it.Open(context.Background()); err != nil {
			t.Fatalf("%T open: %v", it, err)
		}
		if err := it.Close(); err != nil {
			t.Errorf("%T close: %v", it, err)
		}
		if err := it.Close(); err != nil {
			t.Errorf("%T second close: %v", it, err)
		}
	}
}

type truePred struct{}

func (truePred) Eval(relation.Tuple, schema.Schema) bool { return true }
func (truePred) Attrs() []string                         { return nil }
func (truePred) String() string                          { return "TRUE" }

func TestHashSetOpIncompatibleSchemas(t *testing.T) {
	op := &SemiJoinIter{
		Left:  &ScanIter{Rel: relation.Ints([]string{"a"}, nil)},
		Right: &ScanIter{Rel: relation.Ints([]string{"z"}, nil)},
		SetOp: "difference",
	}
	if err := op.Open(context.Background()); err == nil {
		t.Error("expected schema error")
	}
}

func TestProductIterEmptyRight(t *testing.T) {
	p := &ProductIter{
		Left:  &ScanIter{Rel: relation.Ints([]string{"a"}, [][]int64{{1}, {2}})},
		Right: &ScanIter{Rel: relation.Ints([]string{"b"}, nil)},
	}
	out, err := Run(context.Background(), &FromBatch{Input: p})
	if err != nil || !out.Empty() {
		t.Errorf("product with empty right = %v, %v", out, err)
	}
}

func TestDivideItersRejectBadSchemasAtOpen(t *testing.T) {
	good := &ScanIter{Rel: relation.Ints([]string{"a", "b"}, [][]int64{{1, 1}})}
	bad := &ScanIter{Rel: relation.Ints([]string{"z"}, [][]int64{{1}})}
	h := &DivideIter{Dividend: good, Divisor: bad}
	if err := h.Open(context.Background()); err == nil {
		t.Error("hash divide should reject schema violation")
	}
	m := &MergeGroupDivideIter{Dividend: good, Divisor: bad}
	if err := m.Open(context.Background()); err == nil {
		t.Error("merge divide should reject schema violation")
	}
	g := &DivideIter{Dividend: bad, Divisor: bad}
	if err := g.Open(context.Background()); err == nil {
		t.Error("great divide should reject schema violation")
	}
}

func TestDivideItersNotOpen(t *testing.T) {
	r1 := &ScanIter{Rel: relation.Ints([]string{"a", "b"}, [][]int64{{1, 1}})}
	r2 := &ScanIter{Rel: relation.Ints([]string{"b"}, [][]int64{{1}})}
	for _, it := range []BatchIterator{
		&DivideIter{Dividend: r1, Divisor: r2},
		&MergeGroupDivideIter{Dividend: r1, Divisor: r2},
		&DivideIter{
			Dividend: &ScanIter{Rel: relation.Ints([]string{"a", "b"}, [][]int64{{1, 1}})},
			Divisor:  &ScanIter{Rel: relation.Ints([]string{"b", "c"}, [][]int64{{1, 1}})},
		},
		&SemiJoinIter{Left: r1, Right: r2},
		&GroupIter{Input: r1, By: []string{"a"}},
		&ThetaJoinIter{Left: r1, Right: r2, Pred: truePred{}},
	} {
		if _, err := it.NextBatch(); err == nil {
			t.Errorf("%T.NextBatch before Open should error", it)
		}
	}
}

func TestRunPropagatesOpenError(t *testing.T) {
	op := &SemiJoinIter{
		Left:  &ScanIter{Rel: relation.Ints([]string{"a"}, nil)},
		Right: &ScanIter{Rel: relation.Ints([]string{"z"}, nil)},
		SetOp: "difference",
	}
	if _, err := Run(context.Background(), &FromBatch{Input: op}); err == nil {
		t.Error("Run must surface Open errors")
	}
	if _, err := Drain(context.Background(), &FromBatch{Input: op}); err == nil {
		t.Error("Drain must surface Open errors")
	}
}

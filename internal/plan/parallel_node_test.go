package plan

import (
	"strings"
	"testing"

	"divlaws/internal/division"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/value"
)

func parallelFixture() (*relation.Relation, *relation.Relation, *relation.Relation) {
	r1 := relation.New(schema.New("a", "b"))
	for i := int64(0); i < 24; i++ {
		r1.Insert(relation.Tuple{value.Int(i % 6), value.Int(i % 4)})
	}
	r2 := relation.New(schema.New("b"))
	r2.Insert(relation.Tuple{value.Int(1)})
	r2.Insert(relation.Tuple{value.Int(2)})
	rg := relation.New(schema.New("b", "c"))
	for i := int64(0); i < 12; i++ {
		rg.Insert(relation.Tuple{value.Int(i % 4), value.Int(i % 3)})
	}
	return r1, r2, rg
}

func TestParallelDivideNode(t *testing.T) {
	r1, r2, _ := parallelFixture()
	seq := &Divide{Dividend: NewScan("r1", r1), Divisor: NewScan("r2", r2)}
	par := &ParallelDivide{Dividend: NewScan("r1", r1), Divisor: NewScan("r2", r2), Workers: 3}

	if !par.Schema().EqualSet(seq.Schema()) {
		t.Errorf("schema mismatch: %v vs %v", par.Schema(), seq.Schema())
	}
	if !Eval(par).Equal(Eval(seq)) {
		t.Error("ParallelDivide Eval diverged from Divide")
	}
	s := par.String()
	for _, want := range []string{"workers=3", "hash(a)", string(division.AlgoHash)} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
	rebuilt := par.WithChildren(par.Children()).(*ParallelDivide)
	if rebuilt.Workers != 3 {
		t.Errorf("WithChildren dropped fields: %+v", rebuilt)
	}
}

func TestParallelGreatDivideNode(t *testing.T) {
	r1, _, rg := parallelFixture()
	seq := &GreatDivide{Dividend: NewScan("r1", r1), Divisor: NewScan("rg", rg)}
	par := &ParallelGreatDivide{Dividend: NewScan("r1", r1), Divisor: NewScan("rg", rg), Workers: 5}

	if !par.Schema().EqualSet(seq.Schema()) {
		t.Errorf("schema mismatch: %v vs %v", par.Schema(), seq.Schema())
	}
	if !Eval(par).EquivalentTo(Eval(seq)) {
		t.Error("ParallelGreatDivide Eval diverged from GreatDivide")
	}
	s := par.String()
	for _, want := range []string{"workers=5", "hash(a)"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
	if n := CountDivides(par); n != 1 {
		t.Errorf("CountDivides = %d, want 1", n)
	}
}

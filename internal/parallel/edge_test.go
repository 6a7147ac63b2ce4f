package parallel

import (
	"testing"

	"divlaws/internal/datagen"
	"divlaws/internal/division"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/value"
)

func TestParallelDivideEmptyDividend(t *testing.T) {
	r1 := relation.New(schema.New("a", "b"))
	r2 := relation.New(schema.New("b"))
	r2.Insert(relation.Tuple{value.Int(1)})
	for _, workers := range []int{1, 4} {
		got := divide(t, "", r1, r2, workers)
		if !got.Equal(division.Divide(r1, r2)) {
			t.Errorf("workers=%d: empty dividend diverged from sequential", workers)
		}
		if !got.Empty() {
			t.Errorf("workers=%d: empty dividend produced %d rows", workers, got.Len())
		}
	}
}

func TestParallelDivideEmptyDivisor(t *testing.T) {
	r1 := relation.New(schema.New("a", "b"))
	for i := int64(0); i < 20; i++ {
		r1.Insert(relation.Tuple{value.Int(i % 5), value.Int(i)})
	}
	r2 := relation.New(schema.New("b"))
	for _, workers := range []int{1, 4} {
		got := divide(t, "", r1, r2, workers)
		want := division.Divide(r1, r2)
		if !got.Equal(want) {
			t.Errorf("workers=%d: empty divisor diverged (%d vs %d rows)", workers, got.Len(), want.Len())
		}
	}
}

func TestParallelGreatDivideEmptyInputs(t *testing.T) {
	empty1 := relation.New(schema.New("a", "b"))
	empty2 := relation.New(schema.New("b", "c"))
	full1 := relation.New(schema.New("a", "b"))
	full2 := relation.New(schema.New("b", "c"))
	for i := int64(0); i < 16; i++ {
		full1.Insert(relation.Tuple{value.Int(i % 4), value.Int(i % 3)})
		full2.Insert(relation.Tuple{value.Int(i % 3), value.Int(i % 2)})
	}
	cases := []struct {
		name   string
		r1, r2 *relation.Relation
	}{
		{"empty-dividend", empty1, full2},
		{"empty-divisor", full1, empty2},
		{"both-empty", empty1, empty2},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			got := divide(t, "", tc.r1, tc.r2, workers)
			want := division.GreatDivide(tc.r1, tc.r2)
			if !got.EquivalentTo(want) {
				t.Errorf("%s workers=%d: diverged (%d vs %d rows)", tc.name, workers, got.Len(), want.Len())
			}
		}
	}
}

// TestWorkersExceedPartitions asks for far more workers than the
// dividend has distinct quotient values (and the divisor has
// groups); most partitions stay empty and results must still match
// the sequential reference.
func TestWorkersExceedPartitions(t *testing.T) {
	r1 := relation.New(schema.New("a", "b"))
	for i := int64(0); i < 12; i++ {
		r1.Insert(relation.Tuple{value.Int(i % 2), value.Int(i)}) // 2 quotient values
	}
	r2 := relation.New(schema.New("b"))
	r2.Insert(relation.Tuple{value.Int(1)})
	r2.Insert(relation.Tuple{value.Int(3)})

	if got := divide(t, "", r1, r2, 16); !got.Equal(division.Divide(r1, r2)) {
		t.Error("workers=16 over 2 quotient groups diverged")
	}

	g1, g2 := datagen.GreatDividePair{
		Groups: 40, GroupSize: 4,
		DivisorGroups: 3, DivisorGroupSize: 3,
		Domain: 30, HitRate: 0.4, Seed: 4,
	}.Generate()
	if got := divide(t, "", g1, g2, 32); !got.EquivalentTo(division.GreatDivide(g1, g2)) {
		t.Error("great divide with workers=32 over 3 divisor groups diverged")
	}
}

// TestWorkerOneEquivalence pins the contract that workers=1 is
// exactly the sequential algorithm, per registered algorithm.
func TestWorkerOneEquivalence(t *testing.T) {
	r1, r2 := datagen.DividePair{
		Groups: 120, GroupSize: 5, DivisorSize: 5,
		Domain: 40, HitRate: 0.3, Seed: 6,
	}.Generate()
	for _, algo := range division.Algorithms() {
		if !divide(t, algo, r1, r2, 1).Equal(division.DivideWith(algo, r1, r2)) {
			t.Errorf("%s: workers=1 diverged from sequential", algo)
		}
	}
	g1, g2 := datagen.GreatDividePair{
		Groups: 80, GroupSize: 5,
		DivisorGroups: 8, DivisorGroupSize: 4,
		Domain: 40, HitRate: 0.3, Seed: 6,
	}.Generate()
	if !divide(t, division.GreatAlgoHash, g1, g2, 1).EquivalentTo(division.GreatDivide(g1, g2)) {
		t.Error("great: workers=1 diverged from sequential")
	}
}

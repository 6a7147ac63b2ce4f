package parallel

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"divlaws/internal/datagen"
	"divlaws/internal/division"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/value"
)

// scatter hash-partitions the partitioned input of r1 ÷ r2 (the
// dividend on A) or r1 ÷* r2 (the divisor on C) into at most workers
// non-empty parts — the partitioning the exchange operator hands Run.
func scatter(t testing.TB, r1, r2 *relation.Relation, workers int) []Part {
	t.Helper()
	split, err := division.SplitOf(r1.Schema(), r2.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	src, key := r1, split.A
	if split.C.Len() > 0 {
		src, key = r2, split.C
	}
	pos := src.Schema().Positions(key.Attrs())
	rels := make([]*relation.Relation, workers)
	for i := range rels {
		rels[i] = relation.New(src.Schema())
	}
	for _, tp := range src.Tuples() {
		rels[tp.Hash64Proj(pos)%uint64(workers)].InsertOwned(tp)
	}
	var parts []Part
	for _, r := range rels {
		switch {
		case r.Empty():
		case split.C.Len() == 0:
			parts = append(parts, Part{Dividend: r, Divisor: r2})
		default:
			parts = append(parts, Part{Dividend: r1, Divisor: r})
		}
	}
	return parts
}

// collect runs parts through Run and merges the streamed quotients
// into a relation over out.
func collect(ctx context.Context, algo division.Algorithm, parts []Part, out schema.Schema) (*relation.Relation, error) {
	var mu sync.Mutex
	q := relation.New(out)
	err := Run(ctx, algo, parts, nil, Tuning{}, func(_ int, batch []relation.Tuple) error {
		mu.Lock()
		defer mu.Unlock()
		for _, t := range batch {
			q.InsertOwned(t)
		}
		return nil
	})
	return q, err
}

// divide computes r1 ÷ r2 (or r1 ÷* r2) with algo across workers
// hash partitions.
func divide(t testing.TB, algo division.Algorithm, r1, r2 *relation.Relation, workers int) *relation.Relation {
	t.Helper()
	split, err := division.SplitOf(r1.Schema(), r2.Schema())
	if err != nil {
		t.Fatal(err)
	}
	q, err := collect(context.Background(), algo, scatter(t, r1, r2, workers), split.Quotient())
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestParallelDivideMatchesSequential(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		r1, r2 := datagen.DividePair{
			Groups: 300, GroupSize: 6, DivisorSize: 6,
			Domain: 50, HitRate: 0.3, Seed: int64(workers),
		}.Generate()
		got := divide(t, "", r1, r2, workers)
		want := division.Divide(r1, r2)
		if !got.Equal(want) {
			t.Errorf("workers=%d: parallel divide diverged (%d vs %d rows)",
				workers, got.Len(), want.Len())
		}
	}
}

func TestParallelGreatDivideMatchesSequential(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		r1, r2 := datagen.GreatDividePair{
			Groups: 200, GroupSize: 6,
			DivisorGroups: 12, DivisorGroupSize: 4,
			Domain: 50, HitRate: 0.3, Seed: int64(workers),
		}.Generate()
		got := divide(t, "", r1, r2, workers)
		want := division.GreatDivide(r1, r2)
		if !got.EquivalentTo(want) {
			t.Errorf("workers=%d: parallel great divide diverged (%d vs %d rows)",
				workers, got.Len(), want.Len())
		}
	}
}

func TestParallelRandomizedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		r1 := relation.New(schema.New("a", "b"))
		for i := 0; i < rng.Intn(80); i++ {
			r1.Insert(relation.Tuple{
				value.Int(int64(rng.Intn(12))), value.Int(int64(rng.Intn(8))),
			})
		}
		r2 := relation.New(schema.New("b"))
		for i := 0; i < 1+rng.Intn(4); i++ {
			r2.Insert(relation.Tuple{value.Int(int64(rng.Intn(8)))})
		}
		workers := 1 + rng.Intn(6)
		if !divide(t, "", r1, r2, workers).Equal(division.Divide(r1, r2)) {
			t.Fatalf("trial %d (workers=%d): mismatch\nr1:\n%v\nr2:\n%v", trial, workers, r1, r2)
		}
		r2g := relation.New(schema.New("b", "c"))
		for i := 0; i < 1+rng.Intn(10); i++ {
			r2g.Insert(relation.Tuple{
				value.Int(int64(rng.Intn(8))), value.Int(int64(rng.Intn(4))),
			})
		}
		if !divide(t, "", r1, r2g, workers).EquivalentTo(division.GreatDivide(r1, r2g)) {
			t.Fatalf("trial %d (workers=%d): great mismatch\nr1:\n%v\nr2:\n%v", trial, workers, r1, r2g)
		}
	}
}

// TestSmallInputsFallBack runs a one-tuple input under eight workers:
// the empty partitions get no worker and the one left divides alone.
func TestSmallInputsFallBack(t *testing.T) {
	r1 := relation.Ints([]string{"a", "b"}, [][]int64{{1, 1}})
	r2 := relation.Ints([]string{"b"}, [][]int64{{1}})
	if got := divide(t, "", r1, r2, 8); got.Len() != 1 {
		t.Errorf("tiny input divide = %v", got)
	}
	r2g := relation.Ints([]string{"b", "c"}, [][]int64{{1, 1}})
	if got := divide(t, "", r1, r2g, 8); got.Len() != 1 {
		t.Errorf("tiny input great divide = %v", got)
	}
}

func TestEmptyDividend(t *testing.T) {
	r1 := relation.New(schema.New("a", "b"))
	r2 := relation.Ints([]string{"b"}, [][]int64{{1}})
	if got := divide(t, "", r1, r2, 4); !got.Empty() {
		t.Errorf("empty dividend = %v", got)
	}
}

func TestDefaultWorkers(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Error("DefaultWorkers must be positive")
	}
	r1, r2 := datagen.DividePair{
		Groups: 100, GroupSize: 5, DivisorSize: 5, Domain: 40, HitRate: 0.3, Seed: 1,
	}.Generate()
	if !divide(t, "", r1, r2, 0).Equal(division.Divide(r1, r2)) {
		t.Error("workers=0 should use the default and stay correct")
	}
}

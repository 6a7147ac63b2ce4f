package exec

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"divlaws/internal/datagen"
	"divlaws/internal/division"
	"divlaws/internal/plan"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/value"
)

func TestParallelDivideIterMatchesSequential(t *testing.T) {
	r1, r2 := datagen.DividePair{
		Groups: 200, GroupSize: 5, DivisorSize: 6,
		Domain: 50, HitRate: 0.3, Seed: 3,
	}.Generate()
	want := division.Divide(r1, r2)
	for _, workers := range []int{0, 1, 2, 4, 8} {
		node := &plan.ParallelDivide{
			Dividend: plan.NewScan("r1", r1),
			Divisor:  plan.NewScan("r2", r2),
			Workers:  workers,
		}
		got, err := Run(context.Background(), Compile(node, NewStats()))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !got.Equal(want) {
			t.Errorf("workers=%d: diverged (%d vs %d rows)", workers, got.Len(), want.Len())
		}
	}
}

func TestParallelGreatDivideIterMatchesSequential(t *testing.T) {
	r1, r2 := datagen.GreatDividePair{
		Groups: 150, GroupSize: 5,
		DivisorGroups: 12, DivisorGroupSize: 4,
		Domain: 50, HitRate: 0.3, Seed: 3,
	}.Generate()
	want := division.GreatDivide(r1, r2)
	for _, workers := range []int{0, 1, 2, 4, 8} {
		node := &plan.ParallelGreatDivide{
			Dividend: plan.NewScan("r1", r1),
			Divisor:  plan.NewScan("r2", r2),
			Workers:  workers,
		}
		got, err := Run(context.Background(), Compile(node, NewStats()))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !got.EquivalentTo(want) {
			t.Errorf("workers=%d: diverged (%d vs %d rows)", workers, got.Len(), want.Len())
		}
	}
}

// TestParallelDivideIterProperty drives random inputs and worker
// counts through the compiled iterator and checks set equality against
// the sequential reference.
func TestParallelDivideIterProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		r1 := relation.New(schema.New("a", "b"))
		for i := 0; i < rng.Intn(120); i++ {
			r1.Insert(relation.Tuple{
				value.Int(int64(rng.Intn(15))), value.Int(int64(rng.Intn(9))),
			})
		}
		r2 := relation.New(schema.New("b"))
		for i := 0; i < 1+rng.Intn(5); i++ {
			r2.Insert(relation.Tuple{value.Int(int64(rng.Intn(9)))})
		}
		workers := 1 + rng.Intn(8)
		node := &plan.ParallelDivide{
			Dividend: plan.NewScan("r1", r1),
			Divisor:  plan.NewScan("r2", r2),
			Workers:  workers,
		}
		got, err := Run(context.Background(), Compile(node, NewStats()))
		if err != nil {
			t.Fatalf("trial %d (workers=%d): %v", trial, workers, err)
		}
		want := division.Divide(r1, r2)
		if !got.Equal(want) {
			t.Fatalf("trial %d (workers=%d): %d vs %d rows\nr1:\n%v\nr2:\n%v",
				trial, workers, got.Len(), want.Len(), r1, r2)
		}
	}
}

// TestParallelDivideIterPartitionStats checks that the exchange
// operator records per-partition quotient sizes that sum to the
// merged output.
func TestParallelDivideIterPartitionStats(t *testing.T) {
	r1, r2 := datagen.DividePair{
		Groups: 100, GroupSize: 4, DivisorSize: 5,
		Domain: 40, HitRate: 0.5, Seed: 7,
	}.Generate()
	stats := NewStats()
	node := &plan.ParallelDivide{
		Dividend: plan.NewScan("r1", r1),
		Divisor:  plan.NewScan("r2", r2),
		Workers:  4,
	}
	got, err := Run(context.Background(), Compile(node, stats))
	if err != nil {
		t.Fatal(err)
	}
	var partTotal int64
	var parts int
	for label, n := range stats.Snapshot() {
		if strings.Contains(label, "/part") {
			partTotal += n
			parts++
		}
	}
	if parts < 2 {
		t.Fatalf("expected multiple partitions in stats, got %d: %v", parts, stats.Snapshot())
	}
	if partTotal != int64(got.Len()) {
		t.Errorf("partition outputs sum to %d, merged quotient has %d rows", partTotal, got.Len())
	}
}

// TestStatsConcurrent hammers one Stats collector from many
// goroutines; run with -race to validate the locking.
func TestStatsConcurrent(t *testing.T) {
	s := NewStats()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			label := fmt.Sprintf("op%d", g%3)
			for i := 0; i < 1000; i++ {
				s.count(label, 1)
				_ = s.Total()
				_ = s.Get(label)
			}
		}(g)
	}
	wg.Wait()
	if s.Total() != 8000 {
		t.Errorf("Total = %d, want 8000", s.Total())
	}
}

// TestSharedStatsAcrossConcurrentIterators runs two compiled plans
// concurrently against one Stats collector, the situation the mutex
// exists for; meaningful under -race.
func TestSharedStatsAcrossConcurrentIterators(t *testing.T) {
	r1, r2 := datagen.DividePair{
		Groups: 150, GroupSize: 5, DivisorSize: 6,
		Domain: 50, HitRate: 0.3, Seed: 5,
	}.Generate()
	stats := NewStats()
	want := division.Divide(r1, r2)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			node := &plan.ParallelDivide{
				Dividend: plan.NewScan("r1", r1),
				Divisor:  plan.NewScan("r2", r2),
				Workers:  4,
			}
			got, err := Run(context.Background(), Compile(node, stats))
			if err != nil {
				errs[i] = err
				return
			}
			if !got.Equal(want) {
				errs[i] = fmt.Errorf("run %d diverged", i)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestParallelDivideSchemaViolationErrors: an exchange over schemas no
// division accepts fails Open with an error — it does not panic — and
// starts no goroutine that outlives Close.
func TestParallelDivideSchemaViolationErrors(t *testing.T) {
	bad := relation.Ints([]string{"z"}, [][]int64{{1}})
	r1 := relation.Ints([]string{"a", "b"}, [][]int64{{1, 1}})
	baseline := runtime.NumGoroutine()
	for _, in := range [][2]*relation.Relation{{r1, bad}, {bad, bad}} {
		p := &DivideIter{Label: "pd", Dividend: &ScanIter{Rel: in[0]}, Divisor: &ScanIter{Rel: in[1]}, Workers: 2}
		if err := p.Open(context.Background()); err == nil {
			t.Errorf("%v ÷ %v: Open succeeded", in[0].Schema(), in[1].Schema())
		}
		if err := p.Close(); err != nil {
			t.Errorf("Close after a failed Open: %v", err)
		}
	}
	waitGoroutines(t, baseline)
}

// TestHashScatterDisjoint checks the division's partitioning: hashed
// chunk-at-a-time, every A key of a small-divide dividend and of a
// great-divide dividend lands in exactly one of the workers partitions
// — Law 2's c2 — with no tuple lost, and each tuple goes where its own
// key hash sends it.
func TestHashScatterDisjoint(t *testing.T) {
	r1, _ := datagen.DividePair{
		Groups: 300, GroupSize: 5, DivisorSize: 5, Domain: 40, HitRate: 0.3, Seed: 2,
	}.Generate()
	g1, _ := datagen.GreatDividePair{
		Groups: 50, GroupSize: 4, DivisorGroups: 40, DivisorGroupSize: 4, Domain: 40, HitRate: 0.3, Seed: 2,
	}.Generate()
	const workers = 4
	for _, tc := range []struct {
		name string
		rel  *relation.Relation
		key  []string
	}{
		{"dividend-on-A", r1, []string{"a"}},
		{"great-dividend-on-A", g1, []string{"a"}},
	} {
		pos := tc.rel.Schema().Positions(tc.key)
		home := map[string]int{}
		n := 0
		hp := &hashPartitioner{pos: pos, emit: func(tp relation.Tuple, h uint64) error {
			part := int(h % workers)
			if want := int(tp.Hash64Proj(pos) % workers); part != want {
				t.Errorf("%s: %v scattered to %d, its key hash says %d", tc.name, tp, part, want)
			}
			k := tp.Project(pos).Key()
			if prev, ok := home[k]; ok && prev != part {
				t.Errorf("%s: key %q split across partitions %d and %d", tc.name, k, prev, part)
			}
			home[k] = part
			n++
			return nil
		}}
		for _, tp := range tc.rel.Tuples() {
			if err := hp.add(tp); err != nil {
				t.Fatal(err)
			}
		}
		if err := hp.flush(); err != nil {
			t.Fatal(err)
		}
		if n != tc.rel.Len() {
			t.Errorf("%s: scattered %d of %d tuples", tc.name, n, tc.rel.Len())
		}
		if len(home) < 2 {
			t.Errorf("%s: %d keys, want several", tc.name, len(home))
		}
	}
}

package exec

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"divlaws/internal/algebra"
	"divlaws/internal/datagen"
	"divlaws/internal/division"
	"divlaws/internal/plan"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/spill"
	"divlaws/internal/value"
)

// exchangeNode is the exchange plan of r1 ÷ r2 — or of r1 ÷* r2 when r2
// has attributes outside r1 — over the given number of partitions.
func exchangeNode(r1, r2 *relation.Relation, workers int) plan.Node {
	d1, d2 := plan.NewScan("r1", r1), plan.NewScan("r2", r2)
	if r2.Schema().SubsetOf(r1.Schema()) {
		return &plan.ParallelDivide{Dividend: d1, Divisor: d2, Workers: workers}
	}
	return &plan.ParallelGreatDivide{Dividend: d1, Divisor: d2, Workers: workers}
}

// unbudgeted compiles node with no memory budget, whatever the
// environment forces: the tests here observe the partition workers,
// which a budget fallback to the grace division would bypass.
func unbudgeted(node plan.Node, stats *Stats) *FromBatch {
	return CompileWith(node, stats, CompileOptions{MemoryLimit: -1})
}

// exchangeRun runs the exchange plan of r1 and r2 under ctx and
// returns the quotient with the number of partitions that emitted.
func exchangeRun(ctx context.Context, r1, r2 *relation.Relation, workers int) (*relation.Relation, int, error) {
	stats := NewStats()
	q, err := Run(ctx, unbudgeted(exchangeNode(r1, r2, workers), stats))
	return q, emittingParts(stats), err
}

// emittingParts counts the partitions with a per-partition Stats entry.
func emittingParts(stats *Stats) int {
	n := 0
	for label := range stats.Snapshot() {
		if strings.Contains(label, "/part") {
			n++
		}
	}
	return n
}

// divide is exchangeRun under a live context, failing the test on error.
func divide(t testing.TB, r1, r2 *relation.Relation, workers int) *relation.Relation {
	t.Helper()
	q, _, err := exchangeRun(context.Background(), r1, r2, workers)
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
		got := divide(t, r1, r2, workers)
		want := algebra.Divide(r1, r2)
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
		got := divide(t, r1, r2, workers)
		want := algebra.GreatDivide(r1, r2)
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
		if !divide(t, r1, r2, workers).Equal(algebra.Divide(r1, r2)) {
			t.Fatalf("trial %d (workers=%d): mismatch\nr1:\n%v\nr2:\n%v", trial, workers, r1, r2)
		}
		r2g := relation.New(schema.New("b", "c"))
		for i := 0; i < 1+rng.Intn(10); i++ {
			r2g.Insert(relation.Tuple{
				value.Int(int64(rng.Intn(8))), value.Int(int64(rng.Intn(4))),
			})
		}
		if !divide(t, r1, r2g, workers).EquivalentTo(algebra.GreatDivide(r1, r2g)) {
			t.Fatalf("trial %d (workers=%d): great mismatch\nr1:\n%v\nr2:\n%v", trial, workers, r1, r2g)
		}
	}
}

// TestSmallInputsFallBack runs a one-tuple input under eight workers:
// the empty partitions get no worker and the one left divides alone.
func TestSmallInputsFallBack(t *testing.T) {
	r1 := relation.Ints([]string{"a", "b"}, [][]int64{{1, 1}})
	r2 := relation.Ints([]string{"b"}, [][]int64{{1}})
	r2g := relation.Ints([]string{"b", "c"}, [][]int64{{1, 1}})
	for _, divisor := range []*relation.Relation{r2, r2g} {
		got, parts, err := exchangeRun(context.Background(), r1, divisor, 8)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != 1 || parts != 1 {
			t.Errorf("÷ %v: %d rows from %d partitions, want 1 from 1", divisor.Schema(), got.Len(), parts)
		}
	}
}

func TestEmptyDividend(t *testing.T) {
	r1 := relation.New(schema.New("a", "b"))
	r2 := relation.Ints([]string{"b"}, [][]int64{{1}})
	if got := divide(t, r1, r2, 4); !got.Empty() {
		t.Errorf("empty dividend = %v", got)
	}
}

// TestDefaultWorkers: Workers 0 means GOMAXPROCS workers, inline when
// that is 1.
func TestDefaultWorkers(t *testing.T) {
	r1, r2 := datagen.DividePair{
		Groups: 100, GroupSize: 5, DivisorSize: 5, Domain: 40, HitRate: 0.3, Seed: 1,
	}.Generate()
	got, parts, err := exchangeRun(context.Background(), r1, r2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(algebra.Divide(r1, r2)) {
		t.Error("workers=0 should use the default and stay correct")
	}
	if procs := runtime.GOMAXPROCS(0); procs == 1 && parts != 0 || procs > 1 && (parts < 1 || parts > procs) {
		t.Errorf("workers=0 emitted from %d workers at GOMAXPROCS %d", parts, procs)
	}
}

func TestParallelDivideEmptyDividend(t *testing.T) {
	r1 := relation.New(schema.New("a", "b"))
	r2 := relation.New(schema.New("b"))
	r2.Insert(relation.Tuple{value.Int(1)})
	for _, workers := range []int{1, 4} {
		got := divide(t, r1, r2, workers)
		if !got.Equal(algebra.Divide(r1, r2)) {
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
		got := divide(t, r1, r2, workers)
		want := algebra.Divide(r1, r2)
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
			got := divide(t, tc.r1, tc.r2, workers)
			want := algebra.GreatDivide(tc.r1, tc.r2)
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

	if got := divide(t, r1, r2, 16); !got.Equal(algebra.Divide(r1, r2)) {
		t.Error("workers=16 over 2 quotient groups diverged")
	}

	g1, g2 := datagen.GreatDividePair{
		Groups: 40, GroupSize: 4,
		DivisorGroups: 3, DivisorGroupSize: 3,
		Domain: 30, HitRate: 0.4, Seed: 4,
	}.Generate()
	if got := divide(t, g1, g2, 32); !got.EquivalentTo(algebra.GreatDivide(g1, g2)) {
		t.Error("great divide with workers=32 over 3 divisor groups diverged")
	}
}

// TestWorkerOneEquivalence pins the contract that workers=1 divides
// inline, on the consumer's goroutine — no worker, so no per-worker
// Stats entry — equal to the sequential division.
func TestWorkerOneEquivalence(t *testing.T) {
	r1, r2 := datagen.DividePair{
		Groups: 120, GroupSize: 5, DivisorSize: 5,
		Domain: 40, HitRate: 0.3, Seed: 6,
	}.Generate()
	g1, g2 := datagen.GreatDividePair{
		Groups: 80, GroupSize: 5,
		DivisorGroups: 8, DivisorGroupSize: 4,
		Domain: 40, HitRate: 0.3, Seed: 6,
	}.Generate()
	for _, tc := range []struct {
		name   string
		r1, r2 *relation.Relation
		want   *relation.Relation
	}{
		{"divide", r1, r2, algebra.Divide(r1, r2)},
		{"great", g1, g2, algebra.GreatDivide(g1, g2)},
	} {
		got, parts, err := exchangeRun(context.Background(), tc.r1, tc.r2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !got.EquivalentTo(tc.want) {
			t.Errorf("%s: workers=1 diverged from sequential", tc.name)
		}
		if parts != 0 {
			t.Errorf("%s: workers=1 emitted from %d workers, want inline", tc.name, parts)
		}
	}
}

// bigDividePair builds a dividend large enough that every partition
// spans many DefaultCheckEvery poll intervals.
func bigDividePair() (r1, r2 *relation.Relation) {
	groups := 64
	per := 40 * DefaultCheckEvery / groups
	rows := make([][]int64, 0, groups*per)
	for a := 0; a < groups; a++ {
		for b := 0; b < per; b++ {
			rows = append(rows, []int64{int64(a), int64(b)})
		}
	}
	r1 = relation.Ints([]string{"a", "b"}, rows)
	r2 = relation.Ints([]string{"b"}, [][]int64{{1}, {2}, {3}})
	return r1, r2
}

// bigGreatDividePair gives the great divide, which partitions the
// divisor, 16 groups to split and a replicated dividend long enough
// to poll repeatedly (8·DefaultCheckEvery distinct tuples: 512
// candidates, 16 b values each).
func bigGreatDividePair() (r1, r2 *relation.Relation) {
	n := 8 * DefaultCheckEvery
	rows := make([][]int64, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, []int64{int64(i % 512), int64(i / 512)})
	}
	var divisorRows [][]int64
	for g := int64(0); g < 16; g++ {
		for b := int64(0); b < 8; b++ {
			divisorRows = append(divisorRows, []int64{b, g})
		}
	}
	return relation.Ints([]string{"a", "b"}, rows), relation.Ints([]string{"b", "c"}, divisorRows)
}

// stallAllPartitions installs a partition gate that holds every worker
// until release is called, and returns a function waiting until n
// workers are held. release is idempotent, and once it has run the
// gate lets every later partition through.
func stallAllPartitions(t *testing.T, n int) (waitHeld func(), release func()) {
	t.Helper()
	held := make(chan int, n)
	gate := make(chan struct{})
	var released bool
	release = func() {
		if !released {
			released = true
			close(gate)
		}
	}
	restore := SetPartitionGateForTesting(func(part int) {
		select {
		case held <- part:
		default: // a worker past its first partition
		}
		<-gate
	})
	t.Cleanup(restore)
	waitHeld = func() {
		t.Helper()
		for i := 0; i < n; i++ {
			select {
			case <-held:
			case <-time.After(5 * time.Second):
				release()
				t.Fatalf("%d of %d partition workers reached the gate", i, n)
			}
		}
	}
	return waitHeld, release
}

// stopMidPartition opens the 4-partition exchange of r1 and r2, plain
// and under a fused top-k, holds every worker at the partition gate,
// cancels the query and releases them: each worker starts its
// partition already cancelled, so the stream ends with
// context.Canceled, no partition emits a tuple, and no goroutine is
// left. A top-k worker sends nothing until its run is complete, so
// there an empty Stats also proves that every worker stopped at a
// poll inside its partition rather than dividing it to the end.
func stopMidPartition(t *testing.T, r1, r2 *relation.Relation) {
	const parts = 4
	for _, topk := range []bool{false, true} {
		baseline := runtime.NumGoroutine()
		waitHeld, release := stallAllPartitions(t, parts)
		node := exchangeNode(r1, r2, parts)
		if topk {
			node = &plan.TopK{Input: node, Keys: []plan.SortKey{{Attr: "a"}}, K: 1}
		}
		ctx, cancel := context.WithCancel(context.Background())
		stats := NewStats()
		it := unbudgeted(node, stats)
		if err := it.Open(ctx); err != nil {
			t.Fatal(err)
		}
		waitHeld()
		cancel()
		release()
		var err error
		for ok := true; ok && err == nil; {
			_, ok, err = it.Next()
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("topk=%t: err = %v, want context.Canceled", topk, err)
		}
		if n := emittingParts(stats); n != 0 {
			t.Errorf("topk=%t: %d partitions emitted after cancellation: %v", topk, n, stats.Snapshot())
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, baseline)
	}
}

func TestRunStopsWorkersMidPartition(t *testing.T) {
	r1, r2 := bigDividePair()
	stopMidPartition(t, r1, r2)
}

func TestRunStopsGreatWorkersMidPartition(t *testing.T) {
	r1, r2 := bigGreatDividePair()
	stopMidPartition(t, r1, r2)
}

// TestRunPreCancelled: an exchange opened under a cancelled context
// fails with context.Canceled and leaves no goroutine behind.
func TestRunPreCancelled(t *testing.T) {
	r1, r2 := bigDividePair()
	r2g := relation.Ints([]string{"b", "c"}, [][]int64{{1, 1}, {2, 1}, {3, 2}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, divisor := range []*relation.Relation{r2, r2g} {
		baseline := runtime.NumGoroutine()
		if _, _, err := exchangeRun(ctx, r1, divisor, 4); !errors.Is(err, context.Canceled) {
			t.Fatalf("÷ %v: err = %v, want context.Canceled", divisor.Schema(), err)
		}
		waitGoroutines(t, baseline)
	}
}

func TestPartitionedCtxMatchesSequentialWhenUncancelled(t *testing.T) {
	r1, r2 := bigDividePair()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, _, err := exchangeRun(ctx, r1, r2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := algebra.Divide(r1, r2); !got.Equal(want) {
		t.Errorf("partitioned ctx division diverges: %d vs %d rows", got.Len(), want.Len())
	}
}

// TestExchangeGoroutinesPerPartition pins the exchange's goroutine
// budget: exactly one goroutine per worker, here one per non-empty
// partition — no coordinator beside them — and none left after Close.
func TestExchangeGoroutinesPerPartition(t *testing.T) {
	node, _ := streamFixture()
	parts := node.Workers
	waitHeld, release := stallAllPartitions(t, parts)
	defer release()
	baseline := runtime.NumGoroutine()
	it := unbudgeted(node, nil)
	if err := it.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitHeld()
	if extra := runtime.NumGoroutine() - baseline; extra != parts {
		t.Errorf("%d goroutines beyond the baseline with %d partition workers stalled, want %d", extra, parts, parts)
	}
	release()
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, baseline)
}

// divideRef is the sequential reference quotient of r1 ÷ r2, or of
// r1 ÷* r2 when r2 has attributes outside r1.
func divideRef(r1, r2 *relation.Relation) *relation.Relation {
	if r2.Schema().SubsetOf(r1.Schema()) {
		return algebra.Divide(r1, r2)
	}
	return algebra.GreatDivide(r1, r2)
}

// TestBudgetedExchangeSpillsInParallel: under a 64 KiB budget both
// parallel divisions spill their dividend to runs and still divide on
// two workers at once — both are held at the partition gate together —
// instead of degrading to one sequential divider.
func TestBudgetedExchangeSpillsInParallel(t *testing.T) {
	r1, r2 := bigDividePair()
	g1, g2 := bigGreatDividePair()
	for _, in := range [][2]*relation.Relation{{r1, r2}, {g1, g2}} {
		waitHeld, release := stallAllPartitions(t, 2)
		tr := spill.NewTracker(64 << 10)
		it := CompileWith(exchangeNode(in[0], in[1], 2), nil, CompileOptions{Spill: tr})
		if err := it.Open(context.Background()); err != nil {
			t.Fatal(err)
		}
		waitHeld()
		release()
		got := relation.New(it.Schema())
		for {
			tup, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			got.Insert(tup.Clone())
		}
		it.Close()
		st := tr.Snapshot()
		tr.Close()
		if st.Runs == 0 {
			t.Errorf("÷ %v: nothing spilled under a 64 KiB budget", in[1].Schema())
		}
		if want := divideRef(in[0], in[1]); !got.EquivalentTo(want) {
			t.Errorf("÷ %v: %d rows, want %d", in[1].Schema(), got.Len(), want.Len())
		}
	}
}

// TestBudgetedExchangeChargesStates sets the budget between the
// buffered inputs' footprint and that plus the partition states: the
// inputs fit, the workers' states do not, so the fan-out must spill —
// which it can only notice if the states are charged — and still
// equal the sequential quotient.
func TestBudgetedExchangeChargesStates(t *testing.T) {
	r1, r2 := datagen.DividePair{
		Groups: 2000, GroupSize: 5, DivisorSize: 5, Domain: 40, HitRate: 0.3, Seed: 11,
	}.Generate()
	g1, g2 := datagen.GreatDividePair{
		Groups: 2000, GroupSize: 5, DivisorGroups: 4, DivisorGroupSize: 3, Domain: 40, HitRate: 0.3, Seed: 11,
	}.Generate()
	for _, in := range [][2]*relation.Relation{{r1, r2}, {g1, g2}} {
		var inputs int64
		for _, rel := range in {
			for _, tup := range rel.Tuples() {
				inputs += tup.Footprint()
			}
		}
		st, err := division.NewState(in[0].Schema(), in[1].Schema())
		if err != nil {
			t.Fatal(err)
		}
		for _, tup := range in[1].Tuples() {
			st.AddDivisor(tup)
		}
		for _, tup := range in[0].Tuples() {
			st.AddDividend(tup)
		}
		// Each of two workers' states is about half the whole one.
		tr := spill.NewTracker(inputs + st.Bytes()/8)
		stats := NewStats()
		out, err := drainSeqErr(context.Background(), CompileWith(exchangeNode(in[0], in[1], 2), stats, CompileOptions{Spill: tr}))
		snap := tr.Snapshot()
		tr.Close()
		if err != nil {
			t.Fatal(err)
		}
		if snap.Runs == 0 {
			t.Errorf("÷ %v: the states' growth never spilled (peak %d of %d)", in[1].Schema(), snap.Peak, snap.Limit)
		}
		got := relation.New(quotientSchema(in[0].Schema(), in[1].Schema()))
		for _, tup := range out {
			got.Insert(tup)
		}
		if want := divideRef(in[0], in[1]); !got.EquivalentTo(want) {
			t.Errorf("÷ %v: %d rows, want %d", in[1].Schema(), got.Len(), want.Len())
		}
	}
}

// TestGreatDivideOneGroupFansOut: ÷* partitions its dividend on A, so
// a divisor with a single C group still spreads over the workers.
func TestGreatDivideOneGroupFansOut(t *testing.T) {
	var rows [][]int64
	for a := int64(0); a < 64; a++ {
		for b := int64(0); b < 3; b++ {
			rows = append(rows, []int64{a, b})
		}
	}
	r1 := relation.Ints([]string{"a", "b"}, rows)
	r2 := relation.Ints([]string{"b", "c"}, [][]int64{{0, 7}, {1, 7}, {2, 7}})
	got, parts, err := exchangeRun(context.Background(), r1, r2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := algebra.GreatDivide(r1, r2); !got.EquivalentTo(want) {
		t.Errorf("%d rows, want %d", got.Len(), want.Len())
	}
	if parts < 2 {
		t.Errorf("one divisor group ran on %d workers, want at least 2 of 4", parts)
	}
}

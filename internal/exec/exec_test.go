package exec

import (
	"context"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"divlaws/internal/agg"
	"divlaws/internal/algebra"
	"divlaws/internal/division"
	"divlaws/internal/plan"
	"divlaws/internal/pred"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/value"
)

func randRelation(rng *rand.Rand, attrs []string, n, dom int) *relation.Relation {
	r := relation.New(schema.New(attrs...))
	for i := 0; i < n; i++ {
		t := make(relation.Tuple, len(attrs))
		for j := range attrs {
			t[j] = value.Int(int64(rng.Intn(dom)))
		}
		r.Insert(t)
	}
	return r
}

// randWideRelation is randRelation over decorated identifier strings
// of varying length, so suites built on it drive the word-at-a-time
// string hash kernel — chunked bodies and every tail length — rather
// than the single-mix integer path.
func randWideRelation(rng *rand.Rand, attrs []string, n, dom int) *relation.Relation {
	r := relation.New(schema.New(attrs...))
	for i := 0; i < n; i++ {
		t := make(relation.Tuple, len(attrs))
		for j := range attrs {
			t[j] = value.String("id-" + strings.Repeat("x", rng.Intn(11)) + "-" + strconv.Itoa(rng.Intn(dom)))
		}
		r.Insert(t)
	}
	return r
}

// mustRun compiles and runs the plan, failing the test on error.
func mustRun(t *testing.T, n plan.Node, stats *Stats) *relation.Relation {
	t.Helper()
	out, err := Run(context.Background(), Compile(n, stats))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return out
}

func TestCompileMatchesReferenceInterpreter(t *testing.T) {
	// Fuzz: every compiled plan must produce exactly what plan.Eval
	// produces.
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 80; trial++ {
		r1 := plan.NewScan("r1", randRelation(rng, []string{"a", "b"}, 5+rng.Intn(40), 6))
		r2 := plan.NewScan("r2", randRelation(rng, []string{"b"}, 1+rng.Intn(4), 6))
		r2g := plan.NewScan("r2g", randRelation(rng, []string{"b", "c"}, 1+rng.Intn(8), 6))
		r3 := plan.NewScan("r3", randRelation(rng, []string{"a"}, rng.Intn(4), 6))
		p := pred.Compare(pred.Attr("a"), pred.Gt, pred.ConstInt(int64(rng.Intn(6))))

		plans := []plan.Node{
			r1,
			&plan.Select{Input: r1, Pred: p},
			&plan.Project{Input: r1, Attrs: []string{"a"}},
			plan.Union(r1, r1),
			plan.Intersect(r1, &plan.Select{Input: r1, Pred: p}),
			plan.Diff(r1, &plan.Select{Input: r1, Pred: p}),
			&plan.Product{Left: &plan.Project{Input: r1, Attrs: []string{"a"}}, Right: r2},
			&plan.Join{Left: r1, Right: r2g},
			&plan.SemiJoin{Left: r1, Right: r2},
			&plan.AntiSemiJoin{Left: r1, Right: r2},
			&plan.Divide{Dividend: r1, Divisor: r2},
			&plan.Divide{Dividend: r1, Divisor: r2, Algo: division.AlgoMergeSort},
			&plan.GreatDivide{Dividend: r1, Divisor: r2g},
			&plan.SemiJoin{Left: &plan.Divide{Dividend: r1, Divisor: r2}, Right: r3},
			&plan.Group{Input: r1, By: []string{"a"}, Aggs: []agg.AggSpec{
				{Func: agg.Count, As: "c"}, {Func: agg.Sum, Attr: "b", As: "s"},
			}},
			&plan.Rename{Input: r2, From: "b", To: "x"},
			&plan.ThetaJoin{
				Left:  &plan.Project{Input: r1, Attrs: []string{"a"}},
				Right: &plan.Rename{Input: r2, From: "b", To: "x"},
				Pred:  pred.Compare(pred.Attr("a"), pred.Lt, pred.Attr("x")),
			},
		}
		for _, pl := range plans {
			want := plan.Eval(pl)
			got := mustRun(t, pl, nil)
			if !got.Equal(want) {
				t.Fatalf("trial %d: compiled plan diverges for\n%s\ngot:\n%v\nwant:\n%v",
					trial, plan.Format(pl), got, want)
			}
		}
	}
}

func TestStatsCountsQuadraticIntermediate(t *testing.T) {
	// The simulated division's product must emit |πA(r1)|·|r2|
	// tuples, while the first-class operator touches only
	// |r1| + |r2| input tuples — the measurable version of [25].
	rng := rand.New(rand.NewSource(21))
	r1 := randRelation(rng, []string{"a", "b"}, 300, 60)
	r2 := randRelation(rng, []string{"b"}, 8, 60)

	simulated := SimulatedDividePlan("r1", r1, "r2", r2)
	simStats := NewStats()
	simResult := mustRun(t, simulated, simStats)

	direct := &plan.Divide{Dividend: plan.NewScan("r1", r1), Divisor: plan.NewScan("r2", r2)}
	dirStats := NewStats()
	dirResult := mustRun(t, direct, dirStats)

	if !simResult.Equal(dirResult.Reorder(simResult.Schema().Attrs())) && !simResult.Equal(dirResult) {
		t.Fatalf("simulation and operator disagree:\n%v\nvs\n%v", simResult, dirResult)
	}

	var productEmitted int64
	for label, n := range simStats.Snapshot() {
		if strings.Contains(label, "/product") {
			productEmitted += n
		}
	}
	piA := algebra.Project(r1, "a")
	wantProduct := int64(piA.Len() * r2.Len())
	if productEmitted != wantProduct {
		t.Errorf("product emitted %d tuples, want %d", productEmitted, wantProduct)
	}
	if simStats.Total() <= dirStats.Total() {
		t.Errorf("simulation should move more tuples: sim=%d direct=%d",
			simStats.Total(), dirStats.Total())
	}
}

func TestMergeGroupDividePipelines(t *testing.T) {
	// The merge-group operator must emit quotients in sorted group
	// order and agree with the reference on edge cases.
	cases := []struct {
		name     string
		dividend [][]int64
		divisor  [][]int64
	}{
		{"figure1", [][]int64{{1, 1}, {1, 4}, {2, 1}, {2, 2}, {2, 3}, {2, 4}, {3, 1}, {3, 3}, {3, 4}}, [][]int64{{1}, {3}}},
		{"empty dividend", nil, [][]int64{{1}}},
		{"empty divisor", [][]int64{{1, 1}, {2, 5}}, nil},
		{"last group qualifies", [][]int64{{1, 2}, {5, 1}}, [][]int64{{1}}},
		{"no group qualifies", [][]int64{{1, 2}, {5, 2}}, [][]int64{{1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r1 := relation.Ints([]string{"a", "b"}, tc.dividend)
			r2 := relation.Ints([]string{"b"}, tc.divisor)
			pl := &plan.Divide{
				Dividend: plan.NewScan("r1", r1),
				Divisor:  plan.NewScan("r2", r2),
				Algo:     division.AlgoMergeSort,
			}
			got := mustRun(t, pl, nil)
			want := algebra.Divide(r1, r2)
			if !got.Equal(want) {
				t.Errorf("merge-group divide = %v, want %v", got, want)
			}
		})
	}
}

func TestIteratorProtocolErrors(t *testing.T) {
	r := relation.Ints([]string{"a"}, [][]int64{{1}})
	iters := []BatchIterator{
		&ScanIter{Rel: r},
		&ProjectBatch{Input: &ScanIter{Rel: r}, Attrs: []string{"a"}},
		&UnionIter{Left: &ScanIter{Rel: r}, Right: &ScanIter{Rel: r}},
		&HashJoinIter{Left: &ScanIter{Rel: r}, Right: &ScanIter{Rel: r}, Mode: JoinAnti, SetOp: "difference"},
	}
	for _, it := range iters {
		if _, err := it.NextBatch(); err == nil {
			t.Errorf("%T.NextBatch before Open should error", it)
		}
	}
}

func TestUnionIterAlignsColumns(t *testing.T) {
	l := relation.Ints([]string{"a", "b"}, [][]int64{{1, 2}})
	r := relation.Ints([]string{"b", "a"}, [][]int64{{4, 3}})
	u := &UnionIter{
		Left:  &ScanIter{Rel: l},
		Right: &ScanIter{Rel: r},
	}
	out, err := Run(context.Background(), &FromBatch{Input: u})
	if err != nil {
		t.Fatal(err)
	}
	want := relation.Ints([]string{"a", "b"}, [][]int64{{1, 2}, {3, 4}})
	if !out.Equal(want) {
		t.Errorf("aligned union = %v", out)
	}
}

func TestUnionIterIncompatibleSchemas(t *testing.T) {
	u := &UnionIter{
		Left:  &ScanIter{Rel: relation.Ints([]string{"a"}, nil)},
		Right: &ScanIter{Rel: relation.Ints([]string{"z"}, nil)},
	}
	if err := u.Open(context.Background()); err == nil {
		t.Error("expected schema error")
	}
}

func TestHashJoinDegeneratesToProduct(t *testing.T) {
	l := relation.Ints([]string{"a"}, [][]int64{{1}, {2}})
	r := relation.Ints([]string{"b"}, [][]int64{{10}})
	j := &HashJoinIter{Left: &ScanIter{Rel: l}, Right: &ScanIter{Rel: r}}
	out, err := Run(context.Background(), &FromBatch{Input: j})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Errorf("degenerate join Len = %d", out.Len())
	}
}

func TestDrain(t *testing.T) {
	r := relation.Ints([]string{"a"}, [][]int64{{1}, {2}, {3}})
	n, err := Drain(context.Background(), &FromBatch{Input: &ScanIter{Rel: r}})
	if err != nil || n != 3 {
		t.Errorf("Drain = %d, %v", n, err)
	}
}

func TestCompileUnknownNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Compile(unknownNode{}, nil)
}

type unknownNode struct{}

func (unknownNode) Schema() schema.Schema                 { return schema.New("x") }
func (unknownNode) Children() []plan.Node                 { return nil }
func (unknownNode) WithChildren(ch []plan.Node) plan.Node { return unknownNode{} }
func (unknownNode) String() string                        { return "Unknown" }

func TestStatsNilSafe(t *testing.T) {
	var s *Stats
	s.count("x", 1) // must not panic
	r := relation.Ints([]string{"a"}, [][]int64{{1}})
	if _, err := Run(context.Background(), &FromBatch{Input: &ScanIter{Rel: r, Stats: nil}}); err != nil {
		t.Fatal(err)
	}
}

func TestSortIterByPos(t *testing.T) {
	r := relation.Ints([]string{"a", "b"}, [][]int64{{2, 1}, {1, 9}, {1, 3}})
	got := drainAll(t, &SortIter{Input: &ScanIter{Rel: r}, ByPos: []int{0}})
	if len(got) != 3 || got[0][0].AsInt() != 1 || got[2][0].AsInt() != 2 {
		t.Errorf("sorted order wrong: %v", got)
	}
}

package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"divlaws/internal/datagen"
	"divlaws/internal/division"
	"divlaws/internal/exec"
	"divlaws/internal/hashkey"
	"divlaws/internal/optimizer"
	"divlaws/internal/plan"
	"divlaws/internal/pred"
	"divlaws/internal/relation"
	"divlaws/internal/scenarios"
	"divlaws/internal/schema"
	"divlaws/internal/value"
)

// item is one operation of a plan_exec round: a plan run through the
// executor, or a kernel called directly.
type item struct {
	name  string
	layer string
	node  plan.Node
	// kernel does a kernel's work over perOp rows and returns a number
	// that depends on all of it.
	kernel func() int
	perOp  int
	// want is the oracle's row count, or the kernel's own first result;
	// checked once prepare has set it.
	want    int
	checked bool
}

// planExec is the plan_exec workload: no SQL and no optimizer. A round
// runs both sides of every law of internal/scenarios, one plan per
// operator class, the two parallel divisions at two workers, and the
// hash, index and division kernels.
type planExec struct {
	scale int
	seed  int64
	items []item
	// cost is optimizer.Cost of each item's plan, what pick_accuracy
	// compares the clock with.
	cost map[string]float64
}

func newPlanExec(cfg config) *planExec {
	return &planExec{scale: cfg.scaled(40000, 400), seed: cfg.seed}
}

func lawID(name string) string {
	var kind, rest string
	fmt.Sscanf(name, "%s %s", &kind, &rest)
	if kind == "Example" {
		return "example-" + rest
	}
	var n int
	fmt.Sscanf(rest, "%d", &n)
	id := fmt.Sprintf("law-%02d", n)
	if strings.Contains(name, "(c1)") {
		id += "c1"
	}
	return id
}

func (w *planExec) setup() error {
	w.cost = map[string]float64{}
	for i, s := range scenarios.All() {
		lhs := s.Build(w.scale, w.seed)
		rhs, ok := s.Rule.Apply(lhs)
		if !ok {
			return fmt.Errorf("%s does not match its own scenario", s.Name)
		}
		id := lawID(s.Name)
		if i >= len(lawIDs) || id != lawIDs[i] {
			return fmt.Errorf("scenario %q is not the law the metrics expect at position %d", s.Name, i)
		}
		w.items = append(w.items,
			item{name: id + ":lhs", layer: "exec", node: lhs},
			item{name: id + ":rhs", layer: "exec", node: rhs})
		w.cost[id+":lhs"], w.cost[id+":rhs"] = optimizer.Cost(lhs), optimizer.Cost(rhs)
	}
	w.items = append(w.items, w.operatorItems()...)
	for i := range w.items {
		if o := w.run(i, time.Now(), nil); !o.ok {
			return fmt.Errorf("%s failed on its first run", w.items[i].name)
		}
	}
	return nil
}

// operatorItems builds one plan per operator class over the data of
// cmd/lawbench's exec sweep (that package is a command, so its classes
// are built again here), a full sort, the parallel divisions and the
// kernels.
func (w *planExec) operatorItems() []item {
	groups := max(w.scale/5, 10)
	pair := datagen.DividePair{Groups: groups, GroupSize: 4, DivisorSize: 4, Domain: 40, HitRate: 0.9, Seed: w.seed}
	r1, r2 := pair.Generate()
	strPair := pair
	strPair.Strings = true
	s1, s2 := strPair.Generate()
	g1, g2 := datagen.GreatDividePair{
		Groups: groups, GroupSize: 4, DivisorGroups: 4, DivisorGroupSize: 4, Domain: 40, HitRate: 0.9, Seed: w.seed,
	}.Generate()
	r1s, r2s := plan.NewScan("r1", r1), plan.NewScan("r2", r2)
	s1s, s2s := plan.NewScan("s1", s1), plan.NewScan("s2", s2)
	g1s, g2s := plan.NewScan("g1", g1), plan.NewScan("g2", g2)

	// Join build sides: two keys, one in r1's domain, so that probing
	// dominates; the same over string keys; and eight matches per key,
	// so that emitting does.
	jr := relation.New(schema.New("b", "c"))
	js := relation.New(schema.New("b", "c"))
	for _, b := range []int64{0, 40} {
		jr.Insert(relation.Tuple{value.Int(b), value.Int(b % 3)})
		js.Insert(relation.Tuple{strPair.BValue(b), value.Int(b % 3)})
	}
	je := relation.New(schema.New("b", "c"))
	for b := int64(0); b < 40; b++ {
		for c := int64(0); c < 8; c++ {
			je.Insert(relation.Tuple{value.Int(b), value.Int(c)})
		}
	}
	// A small same-schema relation for intersect and diff, 95% of r1
	// for union, and a two-row relation for product.
	smallPair := pair
	smallPair.Groups = groups/50 + 1
	i1, _ := smallPair.Generate()
	d1 := relation.New(r1.Schema())
	for i, t := range r1.Tuples() {
		if i%20 != 0 {
			d1.Insert(t)
		}
	}
	pr := relation.Ints([]string{"d"}, [][]int64{{0}, {1}})
	i1s := plan.NewScan("i1", i1)
	keys := []plan.SortKey{{Attr: "b"}, {Attr: "a", Desc: true}}

	nodes := map[string]plan.Node{
		"scan":            r1s,
		"filter":          &plan.Select{Input: r1s, Pred: pred.Compare(pred.Attr("a"), pred.Gt, pred.ConstInt(int64(groups/2)))},
		"project":         &plan.Project{Input: r1s, Attrs: []string{"b"}},
		"hash-divide":     &plan.Divide{Dividend: r1s, Divisor: r2s},
		"merge-divide":    &plan.Divide{Dividend: r1s, Divisor: r2s, Algo: division.AlgoMergeSort},
		"great-divide":    &plan.GreatDivide{Dividend: g1s, Divisor: g2s},
		"topk":            &plan.TopK{Input: r1s, Keys: keys, K: 100},
		"sort":            &plan.Sort{Input: r1s, Keys: keys},
		"union":           plan.Union(r1s, plan.NewScan("d1", d1)),
		"intersect":       plan.Intersect(r1s, i1s),
		"diff":            plan.Diff(r1s, i1s),
		"hash-join":       &plan.Join{Left: r1s, Right: plan.NewScan("jr", jr)},
		"semijoin":        &plan.SemiJoin{Left: r1s, Right: r2s},
		"product":         &plan.Product{Left: r1s, Right: plan.NewScan("pr", pr)},
		"hash-divide-str": &plan.Divide{Dividend: s1s, Divisor: s2s},
		"hash-join-str":   &plan.Join{Left: s1s, Right: plan.NewScan("js", js)},
		"join-emit":       &plan.Join{Left: r1s, Right: plan.NewScan("je", je)},
	}
	var items []item
	for _, c := range opClassNames {
		items = append(items, item{name: "op:" + c, layer: "exec", node: nodes[c]})
	}
	items = append(items,
		item{name: "par:divide-w2", layer: "parallel", node: &plan.ParallelDivide{Dividend: r1s, Divisor: r2s, Workers: 2}},
		item{name: "par:great-divide-w2", layer: "parallel", node: &plan.ParallelGreatDivide{Dividend: g1s, Divisor: g2s, Workers: 2}})

	strs := make([]string, w.scale)
	for i := range strs {
		strs[i] = fmt.Sprintf("k%023d", i) // 24 bytes
	}
	var ix relation.TupleIndex
	for _, t := range r1.Tuples() {
		ix.ID(t)
	}
	return append(items,
		item{name: "kern:sum64-str24", layer: "hashkey", perOp: len(strs), kernel: func() int {
			var x uint64
			for _, s := range strs {
				x ^= hashkey.Sum64String(s)
			}
			return int(x >> 1)
		}},
		item{name: "kern:insert", layer: "relation", perOp: r1.Len(), kernel: func() int {
			r := relation.New(r1.Schema())
			for _, t := range r1.Tuples() {
				r.Insert(t)
			}
			return r.Len()
		}},
		item{name: "kern:probe", layer: "relation", perOp: r1.Len(), kernel: func() int {
			found := 0
			for _, t := range r1.Tuples() {
				if ix.Lookup(t) >= 0 {
					found++
				}
			}
			return found
		}},
		item{name: "kern:hash-divide", layer: "division", perOp: r1.Len(), kernel: func() int {
			return division.HashDivide(r1, r2).Len()
		}},
		item{name: "kern:great-divide", layer: "division", perOp: g1.Len(), kernel: func() int {
			return division.HashGreatDivide(g1, g2).Len()
		}},
	)
}

// prepare takes the oracle's row counts from the reference evaluator:
// both sides of a law must return what its left side evaluates to.
func (w *planExec) prepare(bool) error {
	for i := range w.items {
		it := &w.items[i]
		switch {
		case it.kernel != nil:
			it.want = it.kernel()
		case strings.HasSuffix(it.name, ":rhs"):
			it.want = w.items[i-1].want
		default:
			it.want = plan.Eval(it.node).Len()
		}
		it.checked = true
	}
	return nil
}

func (w *planExec) ops() []string {
	names := make([]string, len(w.items))
	for i, it := range w.items {
		names[i] = it.name
	}
	return names
}

func (w *planExec) firstRowOp() string { return "op:great-divide" }
func (w *planExec) clients() int       { return 1 }
func (w *planExec) close()             {}

func (w *planExec) runRound(_ int, t0 time.Time, tr *tracer) round {
	r := round{start: int64(time.Since(t0)), ops: make([]op, len(w.items))}
	for i := range w.items {
		r.ops[i] = w.run(i, t0, tr)
	}
	r.end = int64(time.Since(t0))
	return r
}

// run runs item i: a kernel directly, a plan through CompileWith, Open
// and Next until it ends.
func (w *planExec) run(i int, t0 time.Time, tr *tracer) op {
	it := &w.items[i]
	o := op{id: i, call: int64(time.Since(t0))}
	begin := func(stage string) int {
		if tr == nil {
			return 0
		}
		return tr.begin(it.layer+"."+stage, it.layer)
	}
	end := func(id int) {
		if tr != nil {
			tr.end(id)
		}
	}
	if tr != nil {
		tr.op = it.name
	}
	if it.kernel != nil {
		s := begin("kernel")
		o.rows = it.kernel()
		end(s)
		o.done = int64(time.Since(t0))
		o.ret, o.first = o.done, o.done
		o.ok = !it.checked || o.rows == it.want
		return o
	}

	// Stats are on in both passes, as they are for every query through
	// the root package.
	stats := exec.NewStats()
	s := begin("compile")
	iter := exec.CompileWith(it.node, stats, exec.CompileOptions{MemoryLimit: -1})
	end(s)
	defer iter.Close()
	var a0 uint64
	if tr != nil {
		a0 = totalAlloc()
	}
	s = begin("open")
	err := iter.Open(context.Background())
	end(s)
	if tr != nil {
		tr.count("exec.open_alloc_bytes", float64(totalAlloc()-a0))
	}
	o.ret = int64(time.Since(t0))
	s = begin("drain")
	for err == nil {
		var ok bool
		if _, ok, err = iter.Next(); !ok {
			break
		}
		if o.rows == 0 {
			o.first = int64(time.Since(t0))
		}
		o.rows++
	}
	end(s)
	o.done = int64(time.Since(t0))
	if o.first == 0 {
		o.first = o.done
	}
	o.moved = stats.Total()
	if tr != nil {
		tr.count("exec.rows_out", float64(o.rows))
		tr.count("exec.tuples_moved", float64(o.moved))
	}
	o.ok = err == nil && (!it.checked || o.rows == it.want)
	return o
}

func (w *planExec) layerMetrics(p *passes, out map[string]sample) {
	u := &p.untraced
	opMs := func(name string) []float64 { return u.opTimes(w, name, opLatency) }
	// speedup is the median over rounds of base's time over name's.
	speedup := func(base, name string) sample {
		b, n := opMs(base), opMs(name)
		r := make([]float64, len(b))
		for i := range b {
			r[i] = b[i] / n[i]
		}
		return median(r)
	}
	for _, c := range opClassNames {
		out["exec.op."+c+"_ms"] = median(opMs("op:" + c))
	}
	out["parallel.divide-w2_ms"] = median(opMs("par:divide-w2"))
	out["parallel.great-divide-w2_ms"] = median(opMs("par:great-divide-w2"))
	out["parallel.divide-w2_speedup"] = speedup("op:hash-divide", "par:divide-w2")
	out["parallel.great-divide-w2_speedup"] = speedup("op:great-divide", "par:great-divide-w2")

	perRow := func(name string) sample {
		var n int
		for _, it := range w.items {
			if it.name == name {
				n = it.perOp
			}
		}
		xs := opMs(name)
		for i := range xs {
			xs[i] = xs[i] * 1e6 / float64(n)
		}
		return median(xs)
	}
	out["hashkey.sum64-str24_ns"] = perRow("kern:sum64-str24")
	out["relation.insert_ns_per_row"] = perRow("kern:insert")
	out["relation.probe_ns_per_row"] = perRow("kern:probe")
	out["division.hash-divide_ns_per_row"] = perRow("kern:hash-divide")
	out["division.great-divide_ns_per_row"] = perRow("kern:great-divide")

	var speedups []float64
	var judged, right float64
	for _, id := range lawIDs {
		s := speedup(id+":lhs", id+":rhs")
		out["laws."+id+".speedup"] = s
		speedups = append(speedups, s.value)
		// Where the clock tells the sides apart, did the cost model
		// rank them the same way?
		if s.value < 0.8 || s.value > 1.25 {
			judged++
			if (w.cost[id+":lhs"] > w.cost[id+":rhs"]) == (s.value > 1) {
				right++
			}
		}
	}
	out["laws.speedup_geomean"] = scalar(geomean(speedups))
	out["optimizer.pick_accuracy"] = scalar(ratio(right, judged))

	execMetrics(&p.traced, out)
	layerShares(p, out, "exec", "parallel", "hashkey", "relation", "division")
}

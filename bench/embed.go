package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"divlaws"
	"divlaws/internal/exec"
	"divlaws/internal/optimizer"
	"divlaws/internal/relation"
	"divlaws/internal/spill"
	"divlaws/internal/sql"
)

// embed is a workload on the embedding API: one client runs each class
// through a prepared divlaws.Stmt and drains it with Rows.Next/Scan.
// embed_small, embed_large and spill_budget differ in dataset size,
// classes and memory budget only.
type embed struct {
	suppliers, parts, avg int
	seed                  int64
	memLimit              int64 // -1: unlimited
	cs                    []class

	data  *dataset
	db    *divlaws.DB
	stmts []*divlaws.Stmt
	cells [][]string // per class: where a row is scanned to
	ptrs  [][]any

	oracle *oracle
	// The traced pass stages the pipeline on these.
	sqldb   *sql.DB
	parsed  []*sql.Query
	parseMs []float64
	// sideMs are the rounds of the same classes without the budget,
	// the base of spill.slowdown.
	sideMs []float64
}

func newEmbed(cfg config, suppliers, parts, avg int, memLimit int64, classNames ...string) *embed {
	return &embed{
		suppliers: suppliers, parts: parts, avg: avg, seed: cfg.seed,
		memLimit: memLimit, cs: classList(classNames...),
	}
}

// openDB loads a dataset into a fresh DB through the public API and
// prepares every class on it.
func openDB(d *dataset, cs []class, memLimit int64) (*divlaws.DB, []*divlaws.Stmt, error) {
	sup, err := divlaws.NewRelation([]string{"s#", "p#"}, anyRows(d.supplies))
	if err != nil {
		return nil, nil, err
	}
	par, err := divlaws.NewRelation([]string{"p#", "color"}, anyRows(d.parts))
	if err != nil {
		return nil, nil, err
	}
	db := divlaws.Open(divlaws.WithMemoryLimit(memLimit))
	if err := db.Register("supplies", sup); err != nil {
		return nil, nil, err
	}
	if err := db.Register("parts", par); err != nil {
		return nil, nil, err
	}
	stmts := make([]*divlaws.Stmt, len(cs))
	for i, c := range cs {
		if stmts[i], err = db.Prepare(d.sql(c)); err != nil {
			return nil, nil, fmt.Errorf("prepare %s: %w", c.name, err)
		}
	}
	return db, stmts, nil
}

func (e *embed) setup() error {
	e.data = newDataset(e.suppliers, e.parts, e.avg, e.seed)
	var err error
	if e.db, e.stmts, err = openDB(e.data, e.cs, e.memLimit); err != nil {
		return err
	}
	e.cells = make([][]string, len(e.cs))
	e.ptrs = make([][]any, len(e.cs))
	for i := range e.cs {
		if o := e.query(i, e.stmts[i], time.Now()); o.rows == 0 {
			return fmt.Errorf("%s returned no rows on its first run", e.cs[i].name)
		}
	}
	return nil
}

func (e *embed) prepare(traced bool) error {
	e.sqldb = e.data.sqlDB()
	var err error
	if e.oracle, err = newOracle(e.data, e.sqldb, e.cs, hashTuple); err != nil {
		return err
	}
	if !traced {
		return nil
	}
	e.parsed = make([]*sql.Query, len(e.cs))
	for rep := 0; rep < 20; rep++ {
		start := time.Now()
		for i, c := range e.cs {
			if e.parsed[i], err = sql.Parse(e.data.sql(c)); err != nil {
				return err
			}
		}
		e.parseMs = append(e.parseMs, ms(int64(time.Since(start))))
	}
	if e.memLimit > 0 {
		_, stmts, err := openDB(e.data, e.cs, -1)
		if err != nil {
			return err
		}
		for rep := 0; rep < 4; rep++ {
			runtime.GC()
			start := time.Now()
			for i := range e.cs {
				if o := e.query(i, stmts[i], start); !o.ok {
					return fmt.Errorf("%s failed without the memory budget", e.cs[i].name)
				}
			}
			if rep > 0 { // the first is the warm-up
				e.sideMs = append(e.sideMs, ms(int64(time.Since(start))))
			}
		}
	}
	return nil
}

func (e *embed) ops() []string { return names(e.cs) }

func (e *embed) firstRowOp() string { return "divide" }
func (e *embed) clients() int       { return 1 }
func (e *embed) close()             {}

func (e *embed) runRound(_ int, t0 time.Time, tr *tracer) round {
	r := round{start: int64(time.Since(t0)), ops: make([]op, len(e.cs))}
	for i := range e.cs {
		if tr != nil {
			r.ops[i] = e.stagedQuery(i, t0, tr)
		} else {
			r.ops[i] = e.query(i, e.stmts[i], t0)
		}
	}
	r.end = int64(time.Since(t0))
	return r
}

// scanInto returns the scratch a row of class i is scanned to.
func (e *embed) scanInto(i, cols int) ([]string, []any) {
	if len(e.cells[i]) != cols {
		e.cells[i] = make([]string, cols)
		e.ptrs[i] = make([]any, cols)
		for j := range e.cells[i] {
			e.ptrs[i][j] = &e.cells[i][j]
		}
	}
	return e.cells[i], e.ptrs[i]
}

// query runs class i the way a user of the package does: Stmt.Query,
// then Next and Scan until the rows end.
func (e *embed) query(i int, stmt *divlaws.Stmt, t0 time.Time) op {
	c := e.cs[i]
	o := op{id: i, call: int64(time.Since(t0))}
	rows, err := stmt.Query(context.Background(), e.data.args(c)...)
	o.ret = int64(time.Since(t0))
	if err != nil {
		o.first, o.done = o.ret, o.ret
		return o
	}
	defer rows.Close()
	var chk check
	if e.oracle != nil {
		chk = e.oracle.start(c)
	}
	cells, ptrs := e.scanInto(i, len(rows.Columns()))
	for rows.Next() {
		if o.first == 0 {
			o.first = int64(time.Since(t0))
		}
		if err = rows.Scan(ptrs...); err != nil {
			break
		}
		chk.add(hashStrings(cells))
	}
	o.done = int64(time.Since(t0))
	if o.first == 0 {
		o.first = o.done
	}
	if err == nil {
		err = rows.Err()
	}
	stats := rows.Stats()
	sp := stats.Spill
	o.moved = stats.Total()
	o.spill = spillCounts{spilled: sp.SpilledBytes, runs: sp.Runs, partitions: sp.Partitions, peak: sp.PeakBytes}
	o.rows = chk.rows
	o.ok = err == nil && e.oracle != nil && e.oracle.ok(c, chk)
	if e.memLimit < 0 && sp.SpilledBytes != 0 {
		o.ok = false // nothing may spill without a budget
	}
	return o
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// stagedQuery runs class i as DB.queryParsed does, stage by stage from
// here, a span around each call into a layer. It has to be kept in step
// with db.go by hand; trace.coverage_pct shows when it no longer is.
func (e *embed) stagedQuery(i int, t0 time.Time, tr *tracer) (o op) {
	c := e.cs[i]
	tr.op = c.name
	o = op{id: i, call: int64(time.Since(t0))}
	root := tr.begin("query", "bench")
	defer func() {
		tr.end(root)
		o.done = int64(time.Since(t0))
		if o.first == 0 {
			o.first = o.done
		}
	}()

	a0 := totalAlloc()
	s := tr.begin("sql.bind", "sql")
	node, detected, err := e.data.bind(e.sqldb, e.parsed[i], c)
	tr.end(s)
	tr.count("sql.bind_alloc_bytes", float64(totalAlloc()-a0))
	if err != nil {
		return o
	}
	if detected {
		tr.count("sql.detect_hits", 1)
	}

	s = tr.begin("optimizer.optimize", "optimizer")
	res := optimizer.Optimize(node, optimizer.Options{
		Parallel: optimizer.ParallelOptions{Workers: 1, Threshold: optimizer.DefaultParallelThreshold},
	})
	tr.end(s)
	tr.count("optimizer.rules_applied", float64(len(res.Trace)))

	stats := exec.NewStats()
	opts := exec.CompileOptions{MemoryLimit: e.memLimit}
	if lim := opts.EffectiveMemoryLimit(); lim > 0 {
		opts.Spill = spill.NewTracker(lim)
	}
	defer opts.Spill.Close()
	s = tr.begin("exec.compile", "exec")
	it := exec.CompileWith(res.Plan, stats, opts)
	tr.end(s)
	defer it.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a0 = totalAlloc()
	s = tr.begin("exec.open", "exec")
	err = it.Open(ctx)
	tr.end(s)
	tr.count("exec.open_alloc_bytes", float64(totalAlloc()-a0))
	o.ret = int64(time.Since(t0))
	if err != nil {
		return o
	}

	// The drain does per row what Rows.Next and Rows.Scan do.
	chk := e.oracle.start(c)
	cells, _ := e.scanInto(i, it.Schema().Len())
	s = tr.begin("exec.drain", "exec")
	for {
		if err = ctx.Err(); err != nil {
			break
		}
		var (
			t  relation.Tuple
			ok bool
		)
		if t, ok, err = it.Next(); err != nil || !ok {
			break
		}
		if o.first == 0 {
			o.first = int64(time.Since(t0))
		}
		for j, v := range t {
			cells[j] = v.AsString()
		}
		chk.add(hashStrings(cells))
	}
	tr.end(s)
	o.rows = chk.rows
	o.ok = err == nil && e.oracle.ok(c, chk)
	tr.count("exec.rows_out", float64(chk.rows))
	o.moved = stats.Total()
	tr.count("exec.tuples_moved", float64(o.moved))
	return o
}

func (e *embed) layerMetrics(p *passes, out map[string]sample) {
	u, t := &p.untraced, &p.traced
	for _, c := range e.cs {
		out["class."+c.name+"_p50_ms"] = median(u.opTimes(e, c.name, opLatency))
	}
	out["divlaws.query_call_ms"] = median(u.roundSums(func(o op) float64 { return ms(o.ret - o.call) }))
	out["divlaws.rows_ms"] = median(u.roundSums(func(o op) float64 { return ms(o.done - o.ret) }))
	var perRow []float64
	for _, r := range u.rounds {
		for _, o := range r.ops {
			if e.cs[o.id].name == "scan_wide" && o.rows > 0 {
				perRow = append(perRow, float64(o.done-o.ret)/1e3/float64(o.rows))
			}
		}
	}
	out["divlaws.rows_us_per_row"] = median(perRow)

	out["sql.parse_ms"] = median(e.parseMs)
	out["sql.bind_ms"] = t.spanMedian("sql.bind")
	out["sql.bind_alloc_mb"] = t.countMedian("sql.bind_alloc_bytes", 1e6)
	out["sql.detect_hits"] = t.countMedian("sql.detect_hits", 1)
	out["optimizer.optimize_ms"] = t.spanMedian("optimizer.optimize")
	out["optimizer.rules_applied"] = t.countMedian("optimizer.rules_applied", 1)
	execMetrics(t, out)
	layerShares(p, out, "sql", "optimizer", "exec")

	out["spill.spilled_mb"] = median(u.roundSums(func(o op) float64 { return float64(o.spill.spilled) / 1e6 }))
	out["spill.runs"] = median(u.roundSums(func(o op) float64 { return float64(o.spill.runs) }))
	out["spill.partitions"] = median(u.roundSums(func(o op) float64 { return float64(o.spill.partitions) }))
	peaks := make([]float64, len(u.rounds))
	for i, r := range u.rounds {
		for _, o := range r.ops {
			peaks[i] = max(peaks[i], float64(o.spill.peak)/1e6)
		}
	}
	out["spill.peak_mb"] = median(peaks)
	out["spill.slowdown"] = scalar(ratio(out["bench.round_p50_ms"].value, median(e.sideMs).value))
}

// spanMedian is the median over traced rounds of the time in spans of
// the given name.
func (p *pass) spanMedian(name string) sample {
	return median(p.tracedSeries(func(tr *tracer) []float64 { return tr.spanMs(name) }))
}

// countMedian is the median over traced rounds of a boundary count,
// divided by div.
func (p *pass) countMedian(name string, div float64) sample {
	xs := p.tracedSeries(func(tr *tracer) []float64 { return tr.countPerRound(name) })
	for i := range xs {
		xs[i] /= div
	}
	return median(xs)
}

// execMetrics fills the executor's metrics from a traced pass.
func execMetrics(t *pass, out map[string]sample) {
	out["exec.compile_ms"] = t.spanMedian("exec.compile")
	out["exec.open_ms"] = t.spanMedian("exec.open")
	out["exec.drain_ms"] = t.spanMedian("exec.drain")
	out["exec.open_alloc_mb"] = t.countMedian("exec.open_alloc_bytes", 1e6)
	out["exec.rows_out"] = t.countMedian("exec.rows_out", 1)
	out["exec.tuples_moved"] = t.countMedian("exec.tuples_moved", 1)
	out["exec.tuples_per_row"] = scalar(ratio(out["exec.tuples_moved"].value, out["exec.rows_out"].value))
}

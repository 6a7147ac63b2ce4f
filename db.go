package divlaws

import (
	"context"
	"fmt"

	"divlaws/internal/exec"
	"divlaws/internal/laws"
	"divlaws/internal/optimizer"
	"divlaws/internal/plan"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/spill"
	"divlaws/internal/sql"
	"divlaws/internal/value"
)

// ErrMemoryBudget is the sentinel wrapped by every failure caused by
// a query exceeding its memory budget after all spilling recourse is
// exhausted — for example a single key group or the divisor alone
// outgrowing the limit. Match with errors.Is. Queries that merely
// exceed the budget in passing spill to disk and succeed; this error
// means the query genuinely cannot run under the configured limit.
var ErrMemoryBudget = spill.ErrBudget

// ErrSpillIO is the sentinel wrapped by spill temp-file read/write
// failures (disk full, permissions). Match with errors.Is. It
// surfaces as a query error through Rows.Err, never a panic.
var ErrSpillIO = spill.ErrIO

// config is the tunable behavior of a DB, set once at Open.
type config struct {
	workers        int
	threshold      float64
	optimize       bool
	detect         bool
	dataDependent  bool
	exchangeBuffer int
	batchSize      int
	memoryLimit    int64
}

// Option configures a DB at Open time.
type Option func(*config)

// WithWorkers makes the planner parallelize large divisions across n
// goroutines (the paper's Law 2/c2 and Law 13 partitionings). n < 2
// keeps execution sequential.
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithParallelThreshold sets the minimum estimated dividend
// cardinality before a division is parallelized; it only matters
// together with WithWorkers.
func WithParallelThreshold(rows float64) Option {
	return func(c *config) { c.threshold = rows }
}

// WithExchangeBuffer sets the bounded-channel capacity — counted in
// tuple batches — between a parallel division's partition workers
// and the consuming pipeline (the streaming exchange). Smaller
// buffers tighten backpressure: workers compute little beyond what
// the consumer has taken, so LIMIT and early Rows.Close waste less
// work. Larger buffers decouple fast workers from a slow consumer.
// n < 1 keeps the default (exec.DefaultExchangeBuffer).
func WithExchangeBuffer(n int) Option { return func(c *config) { c.exchangeBuffer = n } }

// WithBatchSize sets the tuple capacity of the batches flowing
// between operators and through the parallel exchange.
// Larger batches amortize per-call overhead further at the cost of
// latency to first result; n < 1 keeps the default (64 tuples).
func WithBatchSize(n int) Option { return func(c *config) { c.batchSize = n } }

// WithMemoryLimit bounds, per query, the bytes of input state the
// blocking operators may hold live in memory. Under pressure the
// engine degrades to out-of-core execution instead of failing: sorts
// spill sorted runs to temp files and k-way merge them back, and the
// hash division and hash join operators grace-hash partition their
// state to disk and recurse per partition. Results are identical to
// unlimited execution (including ORDER BY output order). A query
// whose irreducible state — the divisor, or a single key group after
// maximal partitioning — cannot fit returns an error matching
// ErrMemoryBudget rather than exhausting the process.
//
// n <= 0 leaves the budget unlimited (the default), except that 0
// defers to the DIVLAWS_FORCE_SPILL environment variable (a byte
// budget, or 64KiB for any other non-empty value) while a negative n
// is explicitly unlimited, overriding the environment.
func WithMemoryLimit(n int64) Option {
	return func(c *config) {
		if n > 0 {
			c.memoryLimit = n
		} else if n < 0 {
			c.memoryLimit = -1
		}
	}
}

// WithoutOptimizer disables the law-based rewrite pass, executing
// the bound plan as written.
func WithoutOptimizer() Option { return func(c *config) { c.optimize = false } }

// WithoutDetection disables the NOT EXISTS → division pattern
// detector, so universal quantification runs as the un-rewritten
// anti-semi-join plan.
func WithoutDetection() Option { return func(c *config) { c.detect = false } }

// WithDataDependentRules enables rewrite rules whose preconditions
// must be checked against the data (the paper's c1-style conditions)
// in addition to the always-safe rules.
func WithDataDependentRules() Option { return func(c *config) { c.dataDependent = true } }

// DB is an embedded division-laws engine: a catalog of registered
// relations plus the full query pipeline — SQL front end (including
// the paper's DIVIDE BY syntax and ? placeholders), NOT EXISTS
// detection, law-based optimization, parallelization, and the
// streaming batch execution engine.
//
// A DB is safe for concurrent use: the catalog is copy-on-write, so
// Register never disturbs a query that is planning or running — each
// query binds against the catalog snapshot of the moment it started
// — and registered relations are immutable. Construct with Open; the
// zero DB is not usable.
type DB struct {
	inner *sql.DB
	cfg   config
}

// Open returns an empty database with the given options. The default
// configuration optimizes with the always-safe law set, detects NOT
// EXISTS division patterns, and executes sequentially.
func Open(opts ...Option) *DB {
	cfg := config{
		workers:   1,
		threshold: optimizer.DefaultParallelThreshold,
		optimize:  true,
		detect:    true,
	}
	for _, o := range opts {
		o(&cfg)
	}
	return &DB{inner: sql.NewDB(), cfg: cfg}
}

// Workers returns the configured parallelism degree: the number of
// goroutines large divisions are partitioned across (WithWorkers).
// 1 means sequential execution. Servers embedding a DB use this to
// label benchmark output honestly.
func (db *DB) Workers() int { return db.cfg.workers }

// BatchSize returns the effective tuple capacity of the batches
// operators exchange (WithBatchSize, default
// relation.DefaultBatchCap).
func (db *DB) BatchSize() int {
	if db.cfg.batchSize > 0 {
		return db.cfg.batchSize
	}
	return relation.DefaultBatchCap
}

// ExchangeBuffer returns the effective bounded-channel capacity, in
// tuple batches, between parallel division workers and the consuming
// pipeline (WithExchangeBuffer, default exec.DefaultExchangeBuffer).
func (db *DB) ExchangeBuffer() int {
	if db.cfg.exchangeBuffer > 0 {
		return db.cfg.exchangeBuffer
	}
	return exec.DefaultExchangeBuffer
}

// MemoryLimit returns the per-query memory budget in bytes
// (WithMemoryLimit): the effective value after resolving the
// DIVLAWS_FORCE_SPILL environment override, 0 meaning unlimited.
// Servers embedding a DB use this to report the engine's budget.
func (db *DB) MemoryLimit() int64 {
	return exec.CompileOptions{MemoryLimit: db.cfg.memoryLimit}.EffectiveMemoryLimit()
}

// Register adds (or replaces) a named table. The relation's contents
// are referenced, not copied — queries scan them in place and rename
// them through zero-copy views — which is sound because a Relation
// is immutable. Later Register calls with the same name replace the
// table without affecting queries already running: those keep the
// catalog snapshot they were bound against, subqueries included.
func (db *DB) Register(name string, r *Relation) error {
	if name == "" {
		return fmt.Errorf("divlaws: empty table name")
	}
	if r == nil || r.rel == nil {
		return fmt.Errorf("divlaws: Register %q with nil relation", name)
	}
	db.inner.Register(name, r.rel)
	return nil
}

// MustRegister is Register, panicking on error; for program setup.
func (db *DB) MustRegister(name string, r *Relation) {
	if err := db.Register(name, r); err != nil {
		panic(err)
	}
}

// Table returns the registered relation with the given name.
func (db *DB) Table(name string) (*Relation, bool) {
	rel, ok := db.inner.Table(name)
	if !ok {
		return nil, false
	}
	return &Relation{rel: rel}, true
}

// Query plans and starts a SELECT statement — DIVIDE BY included —
// binding any ? placeholders to args, and returns a streaming cursor
// over the result. The pipeline is the compiled iterator tree, not a
// materialized relation: blocking operators (hash builds, divisions)
// do their work under ctx during Query, and the quotient tuples of
// pipelined operators stream out as Rows.Next is called.
//
// Cancelling ctx stops the pipeline — including parallel division
// workers mid-partition — and subsequent Rows.Next calls report
// false with Rows.Err returning the context's error. The caller must
// Close the returned Rows.
func (db *DB) Query(ctx context.Context, text string, args ...any) (*Rows, error) {
	q, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	return db.queryParsed(ctx, q, args)
}

// Prepare parses a statement once for repeated execution. The
// statement may contain positional ? placeholders; they are resolved
// at bind time, on each Stmt.Query call.
func (db *DB) Prepare(text string) (*Stmt, error) {
	q, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	st := &Stmt{db: db, text: text}
	st.query.Store(q)
	return st, nil
}

// Explanation is the result of Explain: the rendered report plus the
// structured signals callers would otherwise have to parse out of
// the prose.
type Explanation struct {
	// Report renders every stage of the rewrite pipeline: detection,
	// law-based optimization with costs and the rule trace, and the
	// partitioning strategy of parallel operators.
	Report string
	// Detected reports whether a NOT EXISTS universal-quantification
	// pattern was rewritten into a first-class division.
	Detected bool
}

// Explain plans the statement and reports how it would run — without
// executing anything.
func (db *DB) Explain(ctx context.Context, text string, args ...any) (Explanation, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return Explanation{}, err
	}
	q, err := sql.Parse(text)
	if err != nil {
		return Explanation{}, err
	}
	bound, err := bindArgs(q, args)
	if err != nil {
		return Explanation{}, err
	}
	ex, err := db.inner.ExplainQuery(bound, sql.ExplainOptions{
		Detect:             db.cfg.detect,
		Optimize:           db.cfg.optimize,
		AllowDataDependent: db.cfg.dataDependent,
		Workers:            db.cfg.workers,
		ParallelThreshold:  db.cfg.threshold,
	})
	if err != nil {
		return Explanation{}, err
	}
	return Explanation{Report: ex.Report, Detected: ex.Detected}, nil
}

// queryParsed is the shared execution path behind Query and
// Stmt.Query: bind args, plan, compile, and open the pipeline.
func (db *DB) queryParsed(ctx context.Context, q *sql.Query, args []any) (*Rows, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	node, err := db.plan(q, args)
	if err != nil {
		return nil, err
	}
	stats := exec.NewStats()
	opts := exec.CompileOptions{
		ExchangeBuffer: db.cfg.exchangeBuffer,
		BatchSize:      db.cfg.batchSize,
		MemoryLimit:    db.cfg.memoryLimit,
	}
	// Build the tracker here rather than letting CompileWith own one,
	// so Rows can report spill counters after the pipeline closes; the
	// cursor closes it (removing any temp files) on release.
	if lim := opts.EffectiveMemoryLimit(); lim > 0 {
		opts.Spill = spill.NewTracker(lim)
	}
	it := exec.CompileWith(node, stats, opts)
	qctx, cancel := context.WithCancel(ctx)
	if err := it.Open(qctx); err != nil {
		it.Close()
		opts.Spill.Close()
		cancel()
		return nil, err
	}
	return &Rows{
		it:      it,
		ctx:     qctx,
		cancel:  cancel,
		cols:    outputColumns(node.Schema()),
		stats:   stats,
		spill:   opts.Spill,
		ordered: planOrdered(node),
	}, nil
}

// planOrdered reports whether the plan's output carries a physical
// ordering: a Sort or TopK reachable from the root through
// order-preserving operators only — Limit, Rename, and Project
// (which streams without reordering; the optimizer only ever places
// one above a TopK as part of the order-safe pushdown).
func planOrdered(n plan.Node) bool {
	switch t := n.(type) {
	case *plan.Sort, *plan.TopK:
		return true
	case *plan.Limit:
		return planOrdered(t.Input)
	case *plan.Rename:
		return planOrdered(t.Input)
	case *plan.Project:
		return planOrdered(t.Input)
	default:
		return false
	}
}

// plan binds the arguments and lowers the query through detection,
// optimization, and parallelization under the DB's configuration.
func (db *DB) plan(q *sql.Query, args []any) (plan.Node, error) {
	bound, err := bindArgs(q, args)
	if err != nil {
		return nil, err
	}
	var node plan.Node
	if db.cfg.detect {
		node, _, err = db.inner.PlanQueryWithDetection(bound)
	} else {
		node, err = db.inner.Bind(bound)
	}
	if err != nil {
		return nil, err
	}
	if db.cfg.optimize || db.cfg.workers >= 2 {
		// Nil rules means the optimizer's full always-safe set; an
		// empty non-nil set parallelizes without law rewrites.
		var rules []laws.Rule
		if !db.cfg.optimize {
			rules = []laws.Rule{}
		}
		res := optimizer.Optimize(node, optimizer.Options{
			AllowDataDependent: db.cfg.dataDependent,
			Rules:              rules,
			Parallel: optimizer.ParallelOptions{
				Workers:   db.cfg.workers,
				Threshold: db.cfg.threshold,
			},
		})
		node = res.Plan
	}
	return node, nil
}

// bindArgs converts the Go arguments and substitutes them for the
// statement's placeholders.
func bindArgs(q *sql.Query, args []any) (*sql.Query, error) {
	vals := make([]value.Value, len(args))
	for i, a := range args {
		v, err := toValue(a)
		if err != nil {
			return nil, fmt.Errorf("divlaws: argument %d: %w", i, err)
		}
		vals[i] = v
	}
	return sql.SubstituteParams(q, vals)
}

// toValue converts a Go scalar into an engine value without
// panicking on unsupported types.
func toValue(x any) (value.Value, error) {
	switch v := x.(type) {
	case nil:
		return value.Null, nil
	case bool:
		return value.Bool(v), nil
	case int:
		return value.Int(int64(v)), nil
	case int32:
		return value.Int(int64(v)), nil
	case int64:
		return value.Int(v), nil
	case float32:
		return value.Float(float64(v)), nil
	case float64:
		return value.Float(v), nil
	case string:
		return value.String(v), nil
	default:
		return value.Value{}, fmt.Errorf("unsupported type %T", x)
	}
}

// outputColumns flattens a plan's output schema into result column
// names.
func outputColumns(sch schema.Schema) []string {
	return append([]string(nil), sch.Attrs()...)
}

// Relation is an immutable set-semantics relation, the unit of
// Register. Build one with NewRelation.
type Relation struct {
	rel *relation.Relation
}

// NewRelation builds a relation over the named columns from untyped
// rows. Supported cell types are nil, bool, int, int32, int64,
// float32, float64, and string; duplicate rows are absorbed (set
// semantics).
func NewRelation(columns []string, rows [][]any) (*Relation, error) {
	if len(columns) == 0 {
		return nil, fmt.Errorf("divlaws: relation needs at least one column")
	}
	seen := make(map[string]bool, len(columns))
	for _, c := range columns {
		if c == "" {
			return nil, fmt.Errorf("divlaws: empty column name")
		}
		if seen[c] {
			return nil, fmt.Errorf("divlaws: duplicate column %q", c)
		}
		seen[c] = true
	}
	rel := relation.New(schema.New(columns...))
	for i, row := range rows {
		if len(row) != len(columns) {
			return nil, fmt.Errorf("divlaws: row %d has %d cells, want %d", i, len(row), len(columns))
		}
		t := make(relation.Tuple, len(row))
		for j, cell := range row {
			v, err := toValue(cell)
			if err != nil {
				return nil, fmt.Errorf("divlaws: row %d, column %q: %w", i, columns[j], err)
			}
			t[j] = v
		}
		rel.InsertOwned(t)
	}
	return &Relation{rel: rel}, nil
}

// MustNewRelation is NewRelation, panicking on error; for literals
// in program setup.
func MustNewRelation(columns []string, rows [][]any) *Relation {
	r, err := NewRelation(columns, rows)
	if err != nil {
		panic(err)
	}
	return r
}

// Columns returns the relation's attribute names in order.
func (r *Relation) Columns() []string { return append([]string(nil), r.rel.Schema().Attrs()...) }

// Len returns the relation's cardinality.
func (r *Relation) Len() int { return r.rel.Len() }

// Rows returns the relation's tuples as untyped Go rows, a copy.
func (r *Relation) Rows() [][]any { return r.rel.Rows() }

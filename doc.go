// Package divlaws is an embeddable relational division engine
// reproducing Rantzau & Mangold, "Laws for Rewriting Queries
// Containing Division Operators" (ICDE 2006): the small and great
// divide operators, their seventeen rewrite laws, a rule-based
// optimizer, a SQL front end with the paper's DIVIDE BY syntax, and
// the frequent itemset discovery application.
//
// # Embedding
//
// Open builds a database; Register adds relations; Query streams
// results off the compiled operator pipeline through a Rows cursor:
//
//	db := divlaws.Open()
//	db.MustRegister("supplies", divlaws.MustNewRelation(
//	    []string{"s#", "p#"},
//	    [][]any{{"s1", "p1"}, {"s1", "p2"}, {"s2", "p1"}}))
//	db.MustRegister("parts", divlaws.MustNewRelation(
//	    []string{"p#", "color"},
//	    [][]any{{"p1", "red"}, {"p2", "red"}}))
//
//	rows, err := db.Query(ctx, `SELECT s#, color
//	    FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p#`)
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//	    var supplier, color string
//	    if err := rows.Scan(&supplier, &color); err != nil { ... }
//	}
//	if err := rows.Err(); err != nil { ... }
//
// Queries run the full pipeline: the NOT EXISTS → division detector,
// the law-based optimizer, the parallelization pass (WithWorkers),
// and the streaming execution engine. A correlated [NOT] EXISTS the
// detector does not rewrite binds to a semi-join or anti-semi-join, so
// every query runs on that one engine. Prepare parses a statement
// once and resolves positional ? placeholders at bind time on every
// Stmt.Query; Explain renders the rewrite pipeline; Rows.Stats
// exposes per-operator tuple counts as a QueryStats snapshot.
//
// The context passed to Query governs the whole pipeline: blocking
// operators poll it while they consume inputs, and parallel division
// workers observe it mid-partition, so cancelling the context tears
// execution down promptly and Rows.Close is safe mid-stream.
//
// # Parallel execution
//
// The paper derives intra-operator parallelism from its laws (§5):
// Law 2 under precondition c2 justifies hash-partitioning the
// dividend on the quotient attributes and dividing the partitions
// independently, and Law 13 justifies hash-partitioning the divisor
// of a great divide on its group attributes. Both partitionings make
// the respective law's precondition hold by construction, so the
// parallel rewrites are always safe.
//
// The repository promotes these strategies into the whole pipeline:
// internal/plan adds ParallelDivide and ParallelGreatDivide nodes;
// internal/optimizer's Parallelize pass rewrites large divisions into
// them above a cardinality threshold; internal/exec compiles both to
// one streaming exchange iterator, which hash-partitions its input
// while draining it; and internal/parallel runs one goroutine per
// partition, each feeding the incremental division state
// and emits finished quotient tuples into a bounded channel, so the
// first result row surfaces as soon as the first partition resolves
// — never waiting on the slowest worker — and the quotient is never
// materialized whole. Open(WithWorkers(n)) enables the pass for an
// embedded database, WithExchangeBuffer tunes the channel's
// backpressure bound; cmd/divsql and cmd/lawbench expose -workers,
// and divsql's -explain prints the chosen partitioning per operator.
//
// # LIMIT and early exit
//
// A LIMIT clause caps the result and is pushed down as an early-exit
// signal: the physical limit operator closes its subtree the moment
// the n-th row is produced, which cancels a parallel exchange and
// all of its workers mid-stream. A point lookup over a large
// parallel division therefore costs one partition's first batch, not
// the full quotient:
//
//	rows, err := db.Query(ctx, `SELECT s#, color
//	    FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p#
//	    LIMIT 1`)
//	if err != nil { ... }
//	defer rows.Close()
//	if rows.Next() {
//	    // One quotient row; the remaining workers have already been
//	    // cancelled, which Rows.Stats makes observable: per-partition
//	    // counts stay far below the full quotient sizes.
//	}
//
// Closing the cursor early (or cancelling ctx) triggers the same
// teardown, and Close blocks until every worker has exited, so a
// consumer that stops reading never leaks goroutines.
//
// # Ordering and top-k
//
// ORDER BY is a physical operator: the binder resolves the sort keys
// against the statement's output columns — or, for a key the
// projection dropped, against the pre-projection schema, widening
// the plan to carry the column through the sort and projecting it
// away above, per the SQL convention — and plans a Sort node, so
// Rows delivers tuples in exactly the requested order — Rows.Ordered
// reports the guarantee, and ties beyond the sort keys are broken by
// the engine's canonical tuple order, deterministically. ORDER BY
// combined with LIMIT k is fused by the optimizer into a single
// TopK operator holding k tuples live instead of sorting the whole
// result, and over a parallel division the bound is pushed into the
// exchange itself: every partition worker keeps its own k-bounded
// heap, emits only its k smallest tuples, and the engine k-way
// merges the survivors back into the global order — O(k) live memory
// per worker, with per-partition Stats counts bounded by k:
//
//	rows, err := db.Query(ctx, `SELECT s#, color
//	    FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p#
//	    ORDER BY s# DESC LIMIT 10`)
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//	    // Tuples arrive largest s# first; the quotient was never
//	    // materialized or fully sorted anywhere.
//	}
//
// Explain renders the ordering pipeline — the TopK node, the fusion
// trace, and the per-partition pushdown with its partitioning.
//
// # Batch execution
//
// The executor is vectorized, and batch-at-a-time is its only operator
// protocol: every scan, filter, projection, limit, rename, sort,
// grouping, division, join, semijoin, set, and product operator moves
// tuples in pooled, slab-allocated batches (64 tuples by default),
// amortizing per-tuple interface calls and context polls across a
// whole batch. Blocking operators drain their build side and stream
// their probe side a batch at a time, so a division over a join over
// a union is one batch pipeline. The tuple-at-a-time surface exists
// once, on the cursor at the root of the plan that Rows.Next reads.
//
// LIMIT keeps an exact consumption discipline: a limit (or fused
// top-k) arms a row budget on its input, producers emit partial
// batches sized to what the consumer still needs, and a LIMIT 1 over
// a scan reads exactly one row — batching never drains past what the
// query consumes. Without a LIMIT, the root cursor reads ahead by at
// most one batch of the root operator's output: a consumer that calls
// Rows.Next once and then Rows.Close has made the plan produce one
// batch (up to WithBatchSize rows, and the input those rows needed),
// not one row.
//
// WithBatchSize tunes the batch capacity (which is also the emission
// batch size of parallel exchange workers, so worker batches flow
// through the exchange without being copied). Results, Stats and
// ordering guarantees do not depend on it.
//
// # Memory budgets and out-of-core execution
//
// WithMemoryLimit caps, per query, the bytes of input state the
// blocking operators may hold live: the sort buffer, the hash
// division states, the hash join's build side, and the inputs a
// parallel exchange materializes. Streaming operators hold O(1) and
// top-k holds O(k); neither is charged. Under pressure the engine
// degrades to disk instead of failing: a sort past its budget spills
// sorted runs to temp files and k-way merges them back (tie-broken by
// the engine's canonical tuple order, so ORDER BY output is identical
// to in-memory execution), and the hash division and join operators
// grace-hash partition their inputs to temp files and recurse per
// partition, re-partitioning any partition that still exceeds the
// budget on a fresh hash split. A parallel division under a budget
// streams its partitioned input while charging it, and falls back to
// the sequential grace path if even the partition buffers exceed the
// limit.
//
// Results are always identical to unlimited execution. A query whose
// irreducible state — the divisor, or a single key group after
// maximal recursive partitioning — cannot fit returns an error
// matching ErrMemoryBudget; a temp-file failure while spilling
// (disk full) surfaces as an error matching ErrSpillIO. Both arrive
// through the ordinary error returns (DB.Query, Rows.Err), never as
// a panic or a killed process. Rows.Stats reports the query's spill
// ledger — charged peak, bytes spilled, runs written, partition
// rounds — as QueryStats.Spill.
//
// Temp files live under an os.MkdirTemp directory created on first
// spill and owned by the query: every teardown path (exhaustion,
// early Close, cancellation, pipeline error) removes the run files,
// and the directory itself is removed when the cursor releases. The
// DIVLAWS_FORCE_SPILL environment variable (a byte budget, or any
// other non-empty value for 64KiB) imposes a budget on every query
// that does not set one explicitly, which CI uses to run the whole
// suite out-of-core; WithMemoryLimit(-1) pins a database to unlimited
// execution, overriding the environment.
//
// # Serving
//
// cmd/divserve wraps an embedded database in a streaming HTTP/JSON
// server: newline-delimited JSON responses written row-by-row off the
// Rows cursor (never materializing the quotient; row lines are
// appended with Rows.AppendJSON into one reused buffer, byte for byte
// what encoding/json would write, and a NaN or infinite float — which
// JSON cannot carry — ends the stream with an error line), a server-side
// prepared-statement cache over Prepare, per-request deadlines mapped
// to the query context (so an expired deadline or a vanished client
// cancels parallel workers mid-division), a bounded admission gate
// that degrades bursts to queueing and fast 429s, a -memory-limit
// flag bounding each query's blocking state (what even spilling
// cannot fit is refused with HTTP 507 and a typed error code, never a
// dead process), and graceful drain on SIGTERM. cmd/loadgen is its concurrent-client load harness,
// sweeping worker counts and admission settings and recording
// p50/p95/p99 latency (the committed BENCH_8.json). See the README's
// Serving section for the wire protocol.
//
// The engine implementation lives in internal/ packages; this
// package is the one supported embedding surface. The commands under
// cmd/ and the programs under examples/ are runnable entry points,
// and the benchmark suite in bench_test.go regenerates the paper's
// per-law efficiency comparisons.
package divlaws

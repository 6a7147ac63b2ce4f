// Package server is the network front end over the embedding API: an
// HTTP/JSON query server that streams result rows chunk-by-chunk off
// a divlaws.Rows cursor — the quotient is never materialized
// server-side — with a bounded-concurrency admission gate, a
// server-side prepared-statement cache, per-request deadlines mapped
// onto context.Context, and graceful drain.
//
// The wire protocol is newline-delimited JSON (ndjson). A successful
// query response is one header line, zero or more row lines, and one
// trailer line; a stream that fails mid-flight ends with an error
// line instead of a trailer:
//
//	{"header":{"columns":["s#","color"],"ordered":false,"stmt_cache":"hit"}}
//	{"row":["s1","red"]}
//	{"row":["s3","red"]}
//	{"trailer":{"rows":2,"ordered":false,"elapsed_ms":1.42,"stats_total":96,"stats":{...}}}
//
// Requests the server will not run are refused before any streaming
// starts, with a plain JSON error object and an HTTP status:
// 400 (bad SQL or malformed request), 429 (admission queue full or
// queue wait exceeded), 503 (server draining).
package server

// Request is the body of POST /query. GET /query?q=...&args=...
// &deadline_ms=... maps onto the same fields.
type Request struct {
	// Query is the SQL text, DIVIDE BY included. Positional ?
	// placeholders are bound to Args at execution time, which is what
	// makes the server-side statement cache effective: the cache key
	// is the text, so repeated calls with different Args reuse the
	// parsed statement.
	Query string `json:"query"`
	// Args are the values for the query's ? placeholders. JSON
	// numbers are bound as int64 when integral, float64 otherwise.
	Args []any `json:"args,omitempty"`
	// DeadlineMS caps the query's wall-clock time, queue wait
	// included. Zero means the server default; values above the
	// server maximum are clamped to it.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// Line is one ndjson response line: exactly one field is set.
type Line struct {
	Header  *Header  `json:"header,omitempty"`
	Row     []any    `json:"row,omitempty"`
	Trailer *Trailer `json:"trailer,omitempty"`
	// Error terminates a stream that failed after the header was
	// sent (deadline expiry mid-stream, pipeline failure). Streams
	// refused before execution use the HTTP status instead.
	Error string `json:"error,omitempty"`
	// Code accompanies Error for typed failures a client can react
	// to programmatically; see the Code* constants. Empty for
	// untyped failures.
	Code string `json:"code,omitempty"`
}

// Typed error codes carried by Line.Code and mirrored in the HTTP
// status (507) when the failure happens before streaming starts.
const (
	// CodeMemoryBudget: the query cannot run under the engine's
	// per-query memory budget even after spilling — its irreducible
	// state (the divisor, or one key group) exceeds the limit.
	CodeMemoryBudget = "memory_budget"
	// CodeSpillIO: the engine tried to spill but the temp-file I/O
	// failed (disk full, permissions).
	CodeSpillIO = "spill_io"
)

// Header opens every accepted query stream.
type Header struct {
	// Columns are the result column names in output order.
	Columns []string `json:"columns"`
	// Ordered mirrors Rows.Ordered: whether the stream carries the
	// plan's physical ordering guarantee (ORDER BY / top-k).
	Ordered bool `json:"ordered"`
	// StmtCache reports whether this query's prepared statement was
	// a cache "hit" or a "miss".
	StmtCache string `json:"stmt_cache"`
}

// Trailer closes every successful query stream. It carries the
// integrity data a client needs to verify the stream cheaply:
// the row count it should have seen, the ordering guarantee, and the
// engine's per-operator tuple counters.
type Trailer struct {
	// Rows is the number of row lines the server wrote.
	Rows int64 `json:"rows"`
	// Ordered mirrors Rows.Ordered, repeated from the header so a
	// trailer alone is self-describing.
	Ordered bool `json:"ordered"`
	// ElapsedMS is the server-side wall time from admission to the
	// last row.
	ElapsedMS float64 `json:"elapsed_ms"`
	// StatsTotal is QueryStats.Total(): tuples moved by all plan
	// operators, the engine's measure of intermediate volume.
	StatsTotal int64 `json:"stats_total"`
	// Stats is the full per-operator emission map
	// (QueryStats.Emitted), keyed by plan position.
	Stats map[string]int64 `json:"stats,omitempty"`
	// SpilledBytes is the query's out-of-core volume: bytes written
	// to spill runs under the engine's memory budget. Zero when the
	// query ran entirely in memory.
	SpilledBytes int64 `json:"spilled_bytes,omitempty"`
}

// Metrics is the response of GET /stats: a point-in-time snapshot of
// the server's counters.
type Metrics struct {
	Draining bool `json:"draining"`

	// Queries.
	Started   int64 `json:"queries_started"`
	Completed int64 `json:"queries_completed"`
	Errored   int64 `json:"queries_errored"`
	RowsSent  int64 `json:"rows_streamed"`

	// Admission gate.
	InFlight      int64 `json:"inflight"`
	QueueDepth    int64 `json:"queue_depth"`
	Admitted      int64 `json:"admitted"`
	Queued        int64 `json:"queued"`
	Rejected      int64 `json:"rejected"`
	QueueTimeouts int64 `json:"queue_timeouts"`

	// Statement cache.
	StmtCacheSize      int   `json:"stmt_cache_size"`
	StmtCacheCap       int   `json:"stmt_cache_cap"`
	StmtCacheHits      int64 `json:"stmt_cache_hits"`
	StmtCacheMisses    int64 `json:"stmt_cache_misses"`
	StmtCacheEvictions int64 `json:"stmt_cache_evictions"`

	// Out-of-core execution, aggregated across finished queries.
	BytesSpilled    int64 `json:"bytes_spilled"`
	SpillRuns       int64 `json:"spill_runs"`
	SpillPartitions int64 `json:"spill_partitions"`
	BudgetErrors    int64 `json:"budget_errors"`

	// Engine configuration, for honest benchmark labeling.
	EngineWorkers        int   `json:"engine_workers"`
	EngineBatchSize      int   `json:"engine_batch_size"`
	EngineExchangeBuffer int   `json:"engine_exchange_buffer"`
	EngineMemoryLimit    int64 `json:"engine_memory_limit"`
}

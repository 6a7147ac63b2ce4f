package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"divlaws"
)

// Config tunes a Server. The zero value gets sane defaults from New;
// see each field for its default.
type Config struct {
	// MaxInFlight is the number of queries executing concurrently
	// (admission gate slots). Default 4.
	MaxInFlight int
	// MaxQueue is the bounded wait queue behind the in-flight slots;
	// requests arriving past it are rejected with 429 immediately.
	// Default 16. Negative disables queueing entirely.
	MaxQueue int
	// QueueWait caps how long a request may wait for a slot,
	// independent of its own deadline. Default 2s; negative disables
	// the cap (the request's deadline still applies).
	QueueWait time.Duration
	// DefaultDeadline applies to requests that do not set
	// deadline_ms. Default 30s.
	DefaultDeadline time.Duration
	// MaxDeadline clamps client-requested deadlines. Default 2m.
	MaxDeadline time.Duration
	// StmtCacheSize bounds the prepared-statement cache. Default
	// 256; negative disables caching.
	StmtCacheSize int
	// FlushRows flushes the response stream every n row lines (the
	// header and trailer always flush), bounding how long a slow
	// quotient can sit invisible in server buffers. Default 64.
	FlushRows int
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 4
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 16
	}
	if c.QueueWait == 0 {
		c.QueueWait = 2 * time.Second
	} else if c.QueueWait < 0 {
		c.QueueWait = 0
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 2 * time.Minute
	}
	if c.StmtCacheSize == 0 {
		c.StmtCacheSize = 256
	}
	if c.FlushRows <= 0 {
		c.FlushRows = 64
	}
	return c
}

// Server is the HTTP front end over one embedded divlaws.DB. It is
// an http.Handler serving:
//
//	POST /query   run SQL, stream the result as ndjson
//	GET  /query   same, via ?q=...&args=[...]&deadline_ms=...
//	GET  /stats   server counters (admission, cache, queries)
//	GET  /healthz "ok", or "draining" with 503 during shutdown
//
// Construct with New.
type Server struct {
	db    *divlaws.DB
	cfg   Config
	gate  *Gate
	cache *StmtCache
	mux   *http.ServeMux

	draining atomic.Bool
	active   atomic.Int64 // /query handlers currently running

	started   atomic.Int64
	completed atomic.Int64
	errored   atomic.Int64
	rowsSent  atomic.Int64

	// Out-of-core activity, aggregated from each query's SpillStats.
	bytesSpilled    atomic.Int64
	spillRuns       atomic.Int64
	spillPartitions atomic.Int64
	budgetErrors    atomic.Int64
}

// New builds a Server over db. Zero-valued Config fields take the
// documented defaults.
func New(db *divlaws.DB, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		db:    db,
		cfg:   cfg,
		gate:  NewGate(cfg.MaxInFlight, cfg.MaxQueue, cfg.QueueWait),
		cache: NewStmtCache(cfg.StmtCacheSize),
		mux:   http.NewServeMux(),
	}
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// BeginDrain flips the server into draining mode: new queries are
// refused with 503 while queries already admitted keep streaming to
// completion (or their deadlines). Idempotent.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Active returns the number of /query requests currently being
// handled (queued or executing).
func (s *Server) Active() int64 { return s.active.Load() }

// Drain begins draining and blocks until every in-flight query has
// finished or ctx expires, returning ctx.Err() in the latter case.
// The caller typically pairs it with http.Server.Shutdown, which
// stops the listener; Drain is the handler-level half that also
// works for in-process servers.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.active.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Metrics snapshots the server's counters.
func (s *Server) Metrics() Metrics {
	admitted, queued, rejected, timeouts := s.gate.Counters()
	hits, misses, evictions := s.cache.Counters()
	return Metrics{
		Draining:           s.draining.Load(),
		Started:            s.started.Load(),
		Completed:          s.completed.Load(),
		Errored:            s.errored.Load(),
		RowsSent:           s.rowsSent.Load(),
		InFlight:           int64(s.gate.InFlight()),
		QueueDepth:         int64(s.gate.QueueDepth()),
		Admitted:           admitted,
		Queued:             queued,
		Rejected:           rejected,
		QueueTimeouts:      timeouts,
		StmtCacheSize:      s.cache.Len(),
		StmtCacheCap:       s.cache.Cap(),
		StmtCacheHits:      hits,
		StmtCacheMisses:    misses,
		StmtCacheEvictions: evictions,

		BytesSpilled:    s.bytesSpilled.Load(),
		SpillRuns:       s.spillRuns.Load(),
		SpillPartitions: s.spillPartitions.Load(),
		BudgetErrors:    s.budgetErrors.Load(),

		EngineWorkers:        s.db.Workers(),
		EngineBatchSize:      s.db.BatchSize(),
		EngineExchangeBuffer: s.db.ExchangeBuffer(),
		EngineMemoryLimit:    s.db.MemoryLimit(),
	}
}

// recordSpill folds one finished query's out-of-core ledger into the
// server totals.
func (s *Server) recordSpill(st divlaws.SpillStats) {
	if st.SpilledBytes > 0 {
		s.bytesSpilled.Add(st.SpilledBytes)
	}
	if st.Runs > 0 {
		s.spillRuns.Add(st.Runs)
	}
	if st.Partitions > 0 {
		s.spillPartitions.Add(st.Partitions)
	}
}

// budgetCode classifies a pipeline error for the wire: a non-empty
// code marks the typed out-of-core failures a client can react to
// (shrink the query, raise the limit) without parsing prose.
func (s *Server) budgetCode(err error) string {
	switch {
	case errors.Is(err, divlaws.ErrMemoryBudget):
		s.budgetErrors.Add(1)
		return CodeMemoryBudget
	case errors.Is(err, divlaws.ErrSpillIO):
		s.budgetErrors.Add(1)
		return CodeSpillIO
	}
	return ""
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Metrics())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleQuery is the streaming query path: admission, statement
// cache, execution, and chunked ndjson emission.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSONError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	s.active.Add(1)
	defer s.active.Add(-1)

	req, err := parseRequest(r)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}

	// Map the request deadline onto a context derived from the HTTP
	// request's own: client disconnect and deadline expiry both
	// cancel the same ctx, and the engine tears down its pipeline —
	// parallel division workers included — when it fires.
	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	if deadline > s.cfg.MaxDeadline {
		deadline = s.cfg.MaxDeadline
	}
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()

	// Admission: the queue wait burns the same deadline budget.
	release, err := s.gate.Acquire(ctx)
	if err != nil {
		switch {
		case errors.Is(err, ErrOverloaded), errors.Is(err, ErrQueueWait):
			w.Header().Set("Retry-After", "1")
			writeJSONError(w, http.StatusTooManyRequests, err.Error())
		default: // request deadline or disconnect while queued
			writeJSONError(w, http.StatusRequestTimeout, err.Error())
		}
		return
	}
	defer release()

	stmt, releaseStmt, hit, err := s.cache.Get(s.db, req.Query)
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	defer releaseStmt()

	s.started.Add(1)
	start := time.Now()
	rows, err := stmt.Query(ctx, req.Args...)
	if err != nil {
		s.errored.Add(1)
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			status = http.StatusRequestTimeout
		case s.budgetCode(err) != "":
			// The query cannot run under the engine's memory budget
			// (or spilling itself failed) before any row was
			// produced: refuse with 507 so clients can tell capacity
			// from syntax.
			status = http.StatusInsufficientStorage
		}
		writeJSONError(w, status, err.Error())
		return
	}
	defer rows.Close()

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	cacheState := "miss"
	if hit {
		cacheState = "hit"
	}
	enc.Encode(Line{Header: &Header{
		Columns:   rows.Columns(),
		Ordered:   rows.Ordered(),
		StmtCache: cacheState,
	}})
	if flusher != nil {
		flusher.Flush()
	}

	// Stream: each tuple is appended to buf as its own line and buf
	// goes out every FlushRows lines (sooner if the lines are long), so
	// the cursor pulls the next chunk only after this one is on the
	// wire and the server never holds more than a chunk of the
	// quotient. A row line is byte for byte what enc would write for
	// Line{Row: natives}.
	var (
		n   int64
		buf []byte
	)
	for rows.Next() {
		if buf, err = appendRowLine(buf, rows); err != nil {
			// A value JSON cannot carry (NaN, ±Inf): send the rows before
			// it, then end the stream with an error line like any other
			// mid-stream failure.
			s.errored.Add(1)
			w.Write(buf)
			enc.Encode(Line{Error: err.Error()})
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		if n++; n%int64(s.cfg.FlushRows) == 0 || len(buf) >= maxRowChunk {
			if _, err := w.Write(buf); err != nil {
				// Client went away mid-stream; rows.Close (deferred)
				// cancels the pipeline.
				s.errored.Add(1)
				return
			}
			buf = buf[:0]
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
	w.Write(buf) // a failure here fails the trailer's write too
	s.rowsSent.Add(n)
	if err := rows.Err(); err != nil {
		// Mid-stream failure (deadline expiry, pipeline error, budget
		// exhaustion during a recursive repartition): the stream ends
		// with an error line instead of a trailer — never a killed
		// connection. Flush it now — the deferred rows.Close may block
		// reaping workers. Budget and spill-I/O failures carry a typed
		// code so clients can react without parsing the message.
		s.errored.Add(1)
		s.recordSpill(rows.Stats().Spill)
		enc.Encode(Line{Error: err.Error(), Code: s.budgetCode(err)})
		if flusher != nil {
			flusher.Flush()
		}
		return
	}

	stats := rows.Stats()
	s.recordSpill(stats.Spill)
	enc.Encode(Line{Trailer: &Trailer{
		Rows:         n,
		Ordered:      rows.Ordered(),
		ElapsedMS:    float64(time.Since(start).Microseconds()) / 1000,
		StatsTotal:   stats.Total(),
		Stats:        stats.Emitted,
		SpilledBytes: stats.Spill.SpilledBytes,
	}})
	if flusher != nil {
		flusher.Flush()
	}
	s.completed.Add(1)
}

// maxRowChunk bounds the bytes of row lines buffered between writes.
const maxRowChunk = 32 << 10

// appendRowLine appends the row line of the cursor's current tuple.
func appendRowLine(buf []byte, rows *divlaws.Rows) ([]byte, error) {
	out, err := rows.AppendJSON(append(buf, `{"row":`...))
	if err != nil {
		return buf, err
	}
	return append(out, '}', '\n'), nil
}

// parseRequest extracts a Request from either verb: a JSON body on
// POST, query parameters on GET.
func parseRequest(r *http.Request) (Request, error) {
	var req Request
	switch r.Method {
	case http.MethodPost:
		dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
		dec.UseNumber()
		if err := dec.Decode(&req); err != nil {
			return req, fmt.Errorf("bad request body: %w", err)
		}
	case http.MethodGet:
		q := r.URL.Query()
		req.Query = q.Get("q")
		if raw := q.Get("args"); raw != "" {
			dec := json.NewDecoder(strings.NewReader(raw))
			dec.UseNumber()
			if err := dec.Decode(&req.Args); err != nil {
				return req, fmt.Errorf("bad args parameter (want a JSON array): %w", err)
			}
		}
		if raw := q.Get("deadline_ms"); raw != "" {
			ms, err := strconv.ParseInt(raw, 10, 64)
			if err != nil {
				return req, fmt.Errorf("bad deadline_ms: %w", err)
			}
			req.DeadlineMS = ms
		}
	default:
		return req, fmt.Errorf("method %s not allowed on /query", r.Method)
	}
	if strings.TrimSpace(req.Query) == "" {
		return req, errors.New("empty query")
	}
	req.Args = normalizeArgs(req.Args)
	return req, nil
}

// normalizeArgs converts json.Number placeholders into the engine's
// scalar types: int64 when integral, float64 otherwise.
func normalizeArgs(args []any) []any {
	for i, a := range args {
		num, ok := a.(json.Number)
		if !ok {
			continue
		}
		if v, err := num.Int64(); err == nil {
			args[i] = v
		} else if f, err := num.Float64(); err == nil {
			args[i] = f
		}
	}
	return args
}

func writeJSONError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

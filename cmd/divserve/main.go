// Command divserve serves the division engine over HTTP: a streaming
// JSON-lines query protocol on top of the public divlaws API, with a
// bounded-concurrency admission gate, a server-side
// prepared-statement cache, per-request deadlines, and graceful
// drain on SIGTERM/SIGINT.
//
// The server registers a generated suppliers-and-parts database
// (the paper's §4 scenario) at startup; scale it with -suppliers /
// -parts / -colors. Engine parallelism and batching are exposed as
// flags so load tests can sweep them.
//
// Protocol (see internal/server):
//
//	POST /query   {"query":"SELECT ...","args":[...],"deadline_ms":1000}
//	GET  /query?q=SELECT+...&args=["red"]&deadline_ms=1000
//	GET  /stats   admission/cache/query counters as JSON
//	GET  /healthz liveness; 503 once draining
//
// Responses stream as ndjson — one header line, one line per result
// row as the engine produces it, one trailer line carrying the row
// count, the ordering guarantee, and the per-operator QueryStats —
// so a large quotient is never materialized server-side. Overload
// answers 429 immediately once the wait queue is full.
//
// Example session:
//
//	divserve -addr :8080 -workers 4 -max-inflight 4 -max-queue 16 &
//	curl -s localhost:8080/query --data \
//	  '{"query":"SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p# LIMIT 3"}'
//	curl -s 'localhost:8080/stats'
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"divlaws"
	"divlaws/internal/datagen"
	"divlaws/internal/optimizer"
	"divlaws/internal/server"
)

func main() {
	var (
		addr = flag.String("addr", ":8080", "listen address")

		// Engine knobs (divlaws.Open options).
		workers   = flag.Int("workers", 1, "parallelize large divisions across this many goroutines per query (divlaws.WithWorkers)")
		threshold = flag.Float64("parallel-threshold", optimizer.DefaultParallelThreshold,
			"minimum estimated dividend rows before a division is parallelized")
		batchSize = flag.Int("batch-size", 0, "operator batch capacity in tuples; 0 = engine default (divlaws.WithBatchSize)")
		exchange  = flag.Int("exchange-buffer", 0, "parallel exchange channel capacity in batches; 0 = engine default (divlaws.WithExchangeBuffer)")
		memLimit  = flag.Int64("memory-limit", 0, "per-query memory budget in bytes; blocking operators spill to temp files past it, 0 = unlimited (divlaws.WithMemoryLimit)")

		// Admission / memory limits: at most max-inflight pipelines
		// hold live hash tables at once, at most max-queue requests
		// wait, and everything past that is rejected with 429 — a
		// burst degrades to bounded queueing, not a memory blow-up.
		maxInFlight = flag.Int("max-inflight", 4, "queries executing concurrently (admission slots)")
		maxQueue    = flag.Int("max-queue", 16, "bounded admission wait queue; past it requests get 429 immediately")
		queueWait   = flag.Duration("queue-wait", 2*time.Second, "max time a request may wait for a slot (negative disables the cap)")

		// Deadlines.
		defaultDeadline = flag.Duration("default-deadline", 30*time.Second, "deadline for requests that do not set deadline_ms")
		maxDeadline     = flag.Duration("max-deadline", 2*time.Minute, "upper clamp on client-requested deadlines")

		// Statement cache and streaming.
		stmtCache = flag.Int("stmt-cache", 256, "prepared-statement cache capacity, LRU-evicted (negative disables)")
		flushRows = flag.Int("flush-rows", 64, "flush the response stream every n rows")

		// Shutdown.
		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "on SIGTERM, wait this long for in-flight queries before exiting")

		// Dataset (the paper's §4 suppliers-and-parts scenario).
		suppliers = flag.Int("suppliers", 2000, "suppliers to generate")
		parts     = flag.Int("parts", 40, "parts to generate")
		colors    = flag.Int("colors", 8, "distinct colors to generate")
		avg       = flag.Int("avg-supplied", 20, "mean parts supplied per supplier")
		seed      = flag.Int64("seed", 1, "generator seed")
	)
	flag.Parse()

	opts := []divlaws.Option{
		divlaws.WithWorkers(*workers),
		divlaws.WithParallelThreshold(*threshold),
	}
	if *batchSize > 0 {
		opts = append(opts, divlaws.WithBatchSize(*batchSize))
	}
	if *exchange > 0 {
		opts = append(opts, divlaws.WithExchangeBuffer(*exchange))
	}
	if *memLimit > 0 {
		opts = append(opts, divlaws.WithMemoryLimit(*memLimit))
	}
	db := divlaws.Open(opts...)

	sup, par := datagen.SuppliersParts{
		Suppliers: *suppliers, Parts: *parts, Colors: *colors,
		AvgSupplied: *avg, Seed: *seed,
	}.Generate()
	db.MustRegister("supplies", divlaws.MustNewRelation(sup.Schema().Attrs(), sup.Rows()))
	db.MustRegister("parts", divlaws.MustNewRelation(par.Schema().Attrs(), par.Rows()))

	srv := server.New(db, server.Config{
		MaxInFlight:     *maxInFlight,
		MaxQueue:        *maxQueue,
		QueueWait:       *queueWait,
		DefaultDeadline: *defaultDeadline,
		MaxDeadline:     *maxDeadline,
		StmtCacheSize:   *stmtCache,
		FlushRows:       *flushRows,
	})

	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("divserve: listening on %s (engine workers=%d, admission %d in-flight / %d queued, dataset %d suppliers x %d parts x %d colors)",
		*addr, db.Workers(), *maxInFlight, *maxQueue, *suppliers, *parts, *colors)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		log.Fatalf("divserve: %v", err)
	case <-ctx.Done():
	}

	// Graceful drain: stop admitting (healthz flips to 503 so load
	// balancers stop routing here), let in-flight queries finish or
	// hit their deadlines, then close the listener.
	log.Printf("divserve: draining %d in-flight request(s)...", srv.Active())
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		log.Printf("divserve: drain incomplete after %v: %v", *drainTimeout, err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("divserve: forced shutdown: %v", err)
		httpSrv.Close()
	}
	m := srv.Metrics()
	fmt.Printf("divserve: served %d queries (%d completed, %d errored, %d rejected), %d rows streamed\n",
		m.Started, m.Completed, m.Errored, m.Rejected, m.RowsSent)
}

// Lifecycle tests for the streaming query server, run under -race in
// CI: deadline expiry mid-stream tears down parallel workers, client
// disconnect closes the cursor, graceful drain finishes in-flight
// queries, the admission gate rejects past the queue limit, and every
// teardown path returns the process to its goroutine baseline.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"divlaws"
	"divlaws/internal/datagen"
	"divlaws/internal/exec"
)

const testQ1 = "SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p#"

// newTestServer builds a Server over a generated suppliers-and-parts
// dataset and serves it from an httptest listener.
func newTestServer(t *testing.T, scale int, cfg Config, opts ...divlaws.Option) (*Server, *httptest.Server) {
	t.Helper()
	sup, par := datagen.SuppliersParts{
		Suppliers: scale, Parts: 32, Colors: 8, AvgSupplied: 16, Seed: 11,
	}.Generate()
	// Default to an explicitly unlimited budget so an ambient
	// DIVLAWS_FORCE_SPILL does not perturb the timing- and
	// partition-sensitive fixtures; tests exercising the budget pass
	// their own WithMemoryLimit later in opts, which wins.
	db := divlaws.Open(append([]divlaws.Option{divlaws.WithMemoryLimit(-1)}, opts...)...)
	db.MustRegister("supplies", divlaws.MustNewRelation(sup.Schema().Attrs(), sup.Rows()))
	db.MustRegister("parts", divlaws.MustNewRelation(par.Schema().Attrs(), par.Rows()))
	srv := New(db, cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// waitGoroutines polls until the goroutine count settles back to
// baseline, failing after a deadline.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), baseline)
}

// waitFor polls a condition with a deadline.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// stream is one parsed ndjson response.
type stream struct {
	header  *Header
	rows    int64
	trailer *Trailer
	errLine string
	errCode string
}

func readStream(t *testing.T, body io.Reader) stream {
	t.Helper()
	var s stream
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		var l Line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad response line %q: %v", sc.Text(), err)
		}
		switch {
		case l.Header != nil:
			s.header = l.Header
		case l.Row != nil:
			s.rows++
		case l.Trailer != nil:
			s.trailer = l.Trailer
		case l.Error != "":
			s.errLine = l.Error
			s.errCode = l.Code
		}
	}
	return s
}

func postQuery(t *testing.T, url string, req Request) *http.Response {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /query: %v", err)
	}
	return resp
}

// gateAllBut stalls every partition worker except part 0 until the
// returned release func runs (idempotent). Restore is registered on
// t.Cleanup, gate release too — tests can fail at any point without
// deadlocking Close.
func gateAllBut0(t *testing.T) (release func()) {
	t.Helper()
	ch := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(ch) }) }
	restore := exec.SetPartitionGateForTesting(func(part int) {
		if part != 0 {
			<-ch
		}
	})
	t.Cleanup(func() { release(); restore() })
	return release
}

// TestQueryStreamAndTrailerIntegrity is the basic wire contract:
// header, row lines, and a trailer whose row count, ordering flag,
// and per-operator stats let a client verify the stream cheaply. The
// second run of the same text must be a statement-cache hit.
func TestQueryStreamAndTrailerIntegrity(t *testing.T) {
	_, ts := newTestServer(t, 100, Config{FlushRows: 1})
	for i, wantCache := range []string{"miss", "hit"} {
		resp := postQuery(t, ts.URL, Request{Query: testQ1})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: status %d", i, resp.StatusCode)
		}
		s := readStream(t, resp.Body)
		resp.Body.Close()
		if s.header == nil || s.trailer == nil || s.errLine != "" {
			t.Fatalf("run %d: incomplete stream: header=%v trailer=%v err=%q", i, s.header, s.trailer, s.errLine)
		}
		if got := strings.Join(s.header.Columns, ","); got != "s#,color" {
			t.Errorf("run %d: columns = %q", i, got)
		}
		if s.header.StmtCache != wantCache {
			t.Errorf("run %d: stmt_cache = %q, want %q", i, s.header.StmtCache, wantCache)
		}
		if s.rows == 0 || s.trailer.Rows != s.rows {
			t.Errorf("run %d: %d row lines, trailer says %d", i, s.rows, s.trailer.Rows)
		}
		if s.trailer.StatsTotal <= 0 || len(s.trailer.Stats) == 0 {
			t.Errorf("run %d: missing QueryStats in trailer: %+v", i, s.trailer)
		}
		if s.trailer.Ordered || s.header.Ordered {
			t.Errorf("run %d: unordered query reported ordered", i)
		}
	}
}

// TestOrderedQueryReportsGuarantee: an ORDER BY ... LIMIT query must
// surface Rows.Ordered through header and trailer.
func TestOrderedQueryReportsGuarantee(t *testing.T) {
	_, ts := newTestServer(t, 100, Config{})
	resp := postQuery(t, ts.URL, Request{Query: testQ1 + " ORDER BY s# LIMIT 5"})
	defer resp.Body.Close()
	s := readStream(t, resp.Body)
	if s.trailer == nil || !s.trailer.Ordered || s.header == nil || !s.header.Ordered {
		t.Fatalf("ordered query not flagged: header=%+v trailer=%+v", s.header, s.trailer)
	}
	var prev string
	resp2 := postQuery(t, ts.URL, Request{Query: testQ1 + " ORDER BY s# LIMIT 5"})
	defer resp2.Body.Close()
	sc := bufio.NewScanner(resp2.Body)
	for sc.Scan() {
		var l Line
		json.Unmarshal(sc.Bytes(), &l)
		if l.Row == nil {
			continue
		}
		cur := l.Row[0].(string)
		if prev != "" && cur < prev {
			t.Fatalf("ordered stream out of order: %q after %q", cur, prev)
		}
		prev = cur
	}
}

// TestDeadlineExpiryMidStreamCancelsWorkers slows every partition
// but one (a sleep in the partition-gate hook, simulating a heavy
// partition), so the stream provably starts — rows from the fast
// partition arrive while most of the division is still pending, the
// streaming, non-materializing path — and then hits its deadline
// mid-stream. The response must end with an error line and no
// trailer, and the cancelled workers must exit once they observe the
// expired context: goroutines return to baseline.
func TestDeadlineExpiryMidStreamCancelsWorkers(t *testing.T) {
	const stall = 2500 * time.Millisecond
	restore := exec.SetPartitionGateForTesting(func(part int) {
		if part != 0 {
			time.Sleep(stall)
		}
	})
	defer restore()
	srv, ts := newTestServer(t, 200, Config{FlushRows: 1},
		divlaws.WithWorkers(4), divlaws.WithParallelThreshold(1))
	client := &http.Client{}
	defer client.CloseIdleConnections()
	baseline := runtime.NumGoroutine()

	body, _ := json.Marshal(Request{Query: testQ1, DeadlineMS: 500})
	resp, err := client.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	s := readStream(t, resp.Body)
	resp.Body.Close()
	if s.header == nil {
		t.Fatal("no header line: query never started streaming")
	}
	if s.rows == 0 {
		t.Error("no rows before the deadline: stream did not start mid-division")
	}
	if s.trailer != nil || s.errLine == "" || !strings.Contains(s.errLine, "deadline") {
		t.Fatalf("want a deadline error line and no trailer, got trailer=%+v err=%q", s.trailer, s.errLine)
	}
	waitFor(t, "handler exit", func() bool { return srv.Active() == 0 })
	client.CloseIdleConnections()
	waitGoroutines(t, baseline)
	if m := srv.Metrics(); m.Errored != 1 || m.Completed != 0 {
		t.Errorf("metrics = %d errored / %d completed, want 1/0", m.Errored, m.Completed)
	}
}

// TestClientDisconnectClosesRows: a client that goes away mid-stream
// must cancel the query context, close the cursor, and release every
// exchange worker. Stalling all partitions but one guarantees the
// query is genuinely mid-flight when the client vanishes; the gate
// opens only after the disconnect, so the workers wake into an
// already-cancelled context and must be reaped.
func TestClientDisconnectClosesRows(t *testing.T) {
	release := gateAllBut0(t)
	srv, ts := newTestServer(t, 200, Config{FlushRows: 1},
		divlaws.WithWorkers(4), divlaws.WithParallelThreshold(1))
	client := &http.Client{}
	defer client.CloseIdleConnections()
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	body, _ := json.Marshal(Request{Query: testQ1})
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read the header — the stream is live — then vanish.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("reading header: %v", err)
	}
	cancel()
	resp.Body.Close()
	release()

	// The server observes the disconnect (context cancellation or a
	// failed write), errors the query, and rows.Close reaps every
	// exchange worker.
	waitFor(t, "query errored", func() bool { return srv.Metrics().Errored == 1 })
	waitFor(t, "handler exit", func() bool { return srv.Active() == 0 })
	client.CloseIdleConnections()
	waitGoroutines(t, baseline)
}

// TestGracefulDrainCompletesInFlight: draining refuses new work with
// 503 while an already-admitted query keeps streaming to a clean
// trailer, and Drain returns once it finishes.
func TestGracefulDrainCompletesInFlight(t *testing.T) {
	release := gateAllBut0(t)
	srv, ts := newTestServer(t, 200, Config{FlushRows: 1},
		divlaws.WithWorkers(4), divlaws.WithParallelThreshold(1))

	type result struct {
		s      stream
		status int
	}
	done := make(chan result, 1)
	go func() {
		resp := postQuery(t, ts.URL, Request{Query: testQ1})
		defer resp.Body.Close()
		done <- result{readStream(t, resp.Body), resp.StatusCode}
	}()
	waitFor(t, "query in flight", func() bool { return srv.Active() == 1 })

	srv.BeginDrain()
	resp := postQuery(t, ts.URL, Request{Query: testQ1})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query while draining: status %d, want 503", resp.StatusCode)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: status %d, want 503", hresp.StatusCode)
	}

	// Open the gate: the in-flight query must complete cleanly and
	// Drain must return nil.
	release()
	drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	r := <-done
	if r.status != http.StatusOK || r.s.trailer == nil || r.s.trailer.Rows != r.s.rows || r.s.rows == 0 {
		t.Fatalf("in-flight query did not complete cleanly: status=%d stream=%+v", r.status, r.s)
	}
}

// TestAdmissionRejectsOverHTTP: with one slot held and no queue, the
// next request must get an immediate 429; after the slot frees, the
// held query still completes.
func TestAdmissionRejectsOverHTTP(t *testing.T) {
	release := gateAllBut0(t)
	srv, ts := newTestServer(t, 200, Config{MaxInFlight: 1, MaxQueue: -1, FlushRows: 1},
		divlaws.WithWorkers(4), divlaws.WithParallelThreshold(1))

	done := make(chan stream, 1)
	go func() {
		resp := postQuery(t, ts.URL, Request{Query: testQ1})
		defer resp.Body.Close()
		done <- readStream(t, resp.Body)
	}()
	waitFor(t, "slot occupied", func() bool { return srv.Metrics().InFlight == 1 })

	start := time.Now()
	resp := postQuery(t, ts.URL, Request{Query: testQ1})
	var errBody map[string]string
	json.NewDecoder(resp.Body).Decode(&errBody)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429; body %v", resp.StatusCode, errBody)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("rejection took %v, want fast", elapsed)
	}
	if m := srv.Metrics(); m.Rejected != 1 {
		t.Errorf("rejected counter = %d, want 1", m.Rejected)
	}

	release()
	s := <-done
	if s.trailer == nil || s.trailer.Rows != s.rows {
		t.Fatalf("held query did not complete: %+v", s)
	}
}

// TestAdmissionQueueAdmitsWhenSlotFrees: a request that found every
// slot busy but queue room available must run once the slot frees —
// bounded queueing, not rejection.
func TestAdmissionQueueAdmitsWhenSlotFrees(t *testing.T) {
	release := gateAllBut0(t)
	srv, ts := newTestServer(t, 200, Config{MaxInFlight: 1, MaxQueue: 4, QueueWait: 5 * time.Second, FlushRows: 1},
		divlaws.WithWorkers(4), divlaws.WithParallelThreshold(1))

	first := make(chan stream, 1)
	go func() {
		resp := postQuery(t, ts.URL, Request{Query: testQ1})
		defer resp.Body.Close()
		first <- readStream(t, resp.Body)
	}()
	waitFor(t, "slot occupied", func() bool { return srv.Metrics().InFlight == 1 })

	second := make(chan stream, 1)
	go func() {
		resp := postQuery(t, ts.URL, Request{Query: testQ1 + " LIMIT 1"})
		defer resp.Body.Close()
		second <- readStream(t, resp.Body)
	}()
	waitFor(t, "request queued", func() bool { return srv.Metrics().QueueDepth == 1 })

	release()
	s1, s2 := <-first, <-second
	if s1.trailer == nil || s2.trailer == nil {
		t.Fatalf("queued execution failed: first=%+v second=%+v", s1, s2)
	}
	if m := srv.Metrics(); m.Queued != 1 || m.Rejected != 0 {
		t.Errorf("metrics = %d queued / %d rejected, want 1/0", m.Queued, m.Rejected)
	}
}

// TestLimitOneOverHTTPCancelsWorkers is the end-to-end early-exit
// acceptance over the wire: LIMIT 1 on a large parallel division
// must leave most of the quotient uncomputed, observable in the
// trailer's per-partition stats.
func TestLimitOneOverHTTPCancelsWorkers(t *testing.T) {
	sup, par := datagen.SuppliersParts{
		Suppliers: 3000, Parts: 40, Colors: 4, AvgSupplied: 20, Seed: 7,
	}.Generate()
	// WithMemoryLimit(-1): the per-partition stats asserted below only
	// exist on the partitioned-exchange path, which a forced tiny
	// budget from the environment would replace with inline fallback.
	db := divlaws.Open(divlaws.WithWorkers(4), divlaws.WithParallelThreshold(1),
		divlaws.WithExchangeBuffer(1), divlaws.WithMemoryLimit(-1))
	db.MustRegister("supplies", divlaws.MustNewRelation(sup.Schema().Attrs(), sup.Rows()))
	db.MustRegister("parts", divlaws.MustNewRelation(par.Schema().Attrs(), par.Rows()))
	srv := New(db, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	partTotal := func(stats map[string]int64) int64 {
		var total int64
		for label, n := range stats {
			if strings.Contains(label, "/part") {
				total += n
			}
		}
		return total
	}

	resp := postQuery(t, ts.URL, Request{Query: testQ1})
	full := readStream(t, resp.Body)
	resp.Body.Close()
	if full.trailer == nil || full.rows < 1000 {
		t.Fatalf("fixture too small: %+v", full.trailer)
	}
	fullParts := partTotal(full.trailer.Stats)

	resp = postQuery(t, ts.URL, Request{Query: testQ1 + " LIMIT 1"})
	limited := readStream(t, resp.Body)
	resp.Body.Close()
	if limited.trailer == nil || limited.rows != 1 {
		t.Fatalf("LIMIT 1 stream: %+v", limited)
	}
	if got := partTotal(limited.trailer.Stats); got >= fullParts/2 {
		t.Errorf("workers emitted %d of %d quotient tuples despite LIMIT 1", got, fullParts)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, 50, Config{})
	for _, tc := range []struct {
		name   string
		do     func() (*http.Response, error)
		status int
	}{
		{"empty query", func() (*http.Response, error) {
			return http.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"query":""}`))
		}, http.StatusBadRequest},
		{"bad json", func() (*http.Response, error) {
			return http.Post(ts.URL+"/query", "application/json", strings.NewReader(`{`))
		}, http.StatusBadRequest},
		{"bad sql", func() (*http.Response, error) {
			return http.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"query":"SELECT FROM WHERE"}`))
		}, http.StatusBadRequest},
		{"unknown table", func() (*http.Response, error) {
			return http.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"query":"SELECT x FROM nope"}`))
		}, http.StatusBadRequest},
		{"bad method", func() (*http.Response, error) {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/query", nil)
			return http.DefaultClient.Do(req)
		}, http.StatusBadRequest},
		{"get missing q", func() (*http.Response, error) {
			return http.Get(ts.URL + "/query")
		}, http.StatusBadRequest},
	} {
		resp, err := tc.do()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}
}

// TestGetQueryWithArgs exercises the GET form: ?q= with a JSON args
// array binding a ? placeholder.
func TestGetQueryWithArgs(t *testing.T) {
	_, ts := newTestServer(t, 50, Config{})
	u := fmt.Sprintf("%s/query?q=%s&args=%s", ts.URL,
		"SELECT+p%23+FROM+parts+WHERE+color+%3D+%3F", "%5B%22color0%22%5D")
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	s := readStream(t, resp.Body)
	if s.trailer == nil || s.rows == 0 || s.rows != s.trailer.Rows {
		t.Fatalf("GET stream: %+v", s)
	}
}

// TestConcurrentQueriesUnderGate floods the server with more clients
// than slots+queue: every response must be either a clean stream or
// a fast 429 — and afterwards the goroutine count returns to
// baseline and the gate is empty.
func TestConcurrentQueriesUnderGate(t *testing.T) {
	srv, ts := newTestServer(t, 150, Config{MaxInFlight: 2, MaxQueue: 2, QueueWait: 2 * time.Second},
		divlaws.WithWorkers(2), divlaws.WithParallelThreshold(1))
	client := &http.Client{}
	baseline := runtime.NumGoroutine()

	const n = 24
	var wg sync.WaitGroup
	var mu sync.Mutex
	ok, rejected := 0, 0
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(Request{Query: testQ1, DeadlineMS: 10000})
			resp, err := client.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("POST: %v", err)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				s := readStream(t, resp.Body)
				if s.trailer == nil || s.trailer.Rows != s.rows {
					t.Errorf("bad stream: %+v", s)
					return
				}
				mu.Lock()
				ok++
				mu.Unlock()
			case http.StatusTooManyRequests:
				io.Copy(io.Discard, resp.Body)
				mu.Lock()
				rejected++
				mu.Unlock()
			default:
				b, _ := io.ReadAll(resp.Body)
				t.Errorf("status %d: %s", resp.StatusCode, b)
			}
		}()
	}
	wg.Wait()
	if ok == 0 {
		t.Fatal("no query succeeded under load")
	}
	if ok+rejected != n {
		t.Fatalf("accounted %d of %d requests", ok+rejected, n)
	}
	t.Logf("flood: %d ok, %d rejected", ok, rejected)
	waitFor(t, "gate empty", func() bool {
		m := srv.Metrics()
		return m.InFlight == 0 && m.QueueDepth == 0
	})
	client.CloseIdleConnections()
	waitGoroutines(t, baseline)
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"divlaws/internal/relation"
	"divlaws/internal/server"
)

// serveClients is the number of closed-loop clients of serve_mix, one
// per processor of the sandbox.
const serveClients = 2

// serve is the serve_mix workload: embed_small's dataset and classes
// behind server.New on a loopback listener. Each client posts the
// classes one after the other, client k starting 3k classes in, and
// reads each response to its trailer.
type serve struct {
	cfg    config
	cs     []class
	data   *dataset
	ts     *httptest.Server
	client *http.Client
	bodies [][]byte

	oracle *oracle
	before server.Metrics
}

func newServe(cfg config) *serve {
	return &serve{cfg: cfg, cs: classList("divide", "param_color", "divide_limit", "topk", "notexists", "scan_wide")}
}

func (s *serve) setup() error {
	s.data = newDataset(s.cfg.scaled(2000, 40), 40, 20, s.cfg.seed)
	db, _, err := openDB(s.data, nil, -1)
	if err != nil {
		return err
	}
	s.ts = httptest.NewServer(server.New(db, server.Config{}))
	s.client = s.ts.Client()
	s.bodies = make([][]byte, len(s.cs))
	for i, c := range s.cs {
		if s.bodies[i], err = json.Marshal(server.Request{Query: s.data.sql(c), Args: s.data.args(c)}); err != nil {
			return err
		}
		if o := s.post(i, time.Now(), nil); o.rows == 0 {
			return fmt.Errorf("%s returned no rows on its first run", c.name)
		}
	}
	return nil
}

func (s *serve) prepare(bool) error {
	// A row's hash is the hash of the line the server writes for it.
	lineHash := func(t relation.Tuple) uint64 {
		cells := make([]any, len(t))
		for i, v := range t {
			cells[i] = v.Native()
		}
		b, err := json.Marshal(server.Line{Row: cells})
		if err != nil {
			panic(err) // strings always encode
		}
		return hashBytes(b)
	}
	var err error
	if s.oracle, err = newOracle(s.data, s.data.sqlDB(), s.cs, lineHash); err != nil {
		return err
	}
	s.before, err = s.stats()
	return err
}

// stats reads the server's counters from /stats.
func (s *serve) stats() (server.Metrics, error) {
	var m server.Metrics
	resp, err := s.client.Get(s.ts.URL + "/stats")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

func (s *serve) ops() []string { return names(s.cs) }

func (s *serve) firstRowOp() string { return "divide" }
func (s *serve) clients() int       { return serveClients }

func (s *serve) close() {
	if s.ts != nil {
		s.client.CloseIdleConnections()
		s.ts.Close()
	}
}

func (s *serve) runRound(client int, t0 time.Time, tr *tracer) round {
	r := round{start: int64(time.Since(t0)), ops: make([]op, len(s.cs))}
	for j := range s.cs {
		r.ops[j] = s.post((j+3*client)%len(s.cs), t0, tr)
	}
	r.end = int64(time.Since(t0))
	return r
}

var (
	rowPrefix     = []byte(`{"row":`)
	headerPrefix  = []byte(`{"header":`)
	trailerPrefix = []byte(`{"trailer":`)
)

// post sends class i as POST /query and reads the response stream:
// the header line, the row lines, the trailer. ret is when the header
// arrived. With a tracer, the two halves of the wait are spans of the
// server layer, which is all of the server a client can see.
func (s *serve) post(i int, t0 time.Time, tr *tracer) (o op) {
	c := s.cs[i]
	o = op{id: i, call: int64(time.Since(t0))}
	var root, part int
	if tr != nil {
		tr.op = c.name
		root = tr.begin("request", "bench")
		part = tr.begin("server.ttfb", "server")
	}
	defer func() {
		o.done = int64(time.Since(t0))
		if o.ret == 0 {
			o.ret = o.done
		}
		if o.first == 0 {
			o.first = o.done
		}
		if tr != nil {
			tr.end(part)
			tr.end(root)
			tr.count("server.rows", float64(o.rows))
		}
	}()

	resp, err := s.client.Post(s.ts.URL+"/query", "application/json", bytes.NewReader(s.bodies[i]))
	if err != nil {
		return o
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return o
	}
	var chk check
	if s.oracle != nil {
		chk = s.oracle.start(c)
	}
	var (
		header  *server.Header
		trailer *server.Trailer
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case bytes.HasPrefix(line, rowPrefix):
			if o.first == 0 {
				o.first = int64(time.Since(t0))
			}
			o.bytes += int64(len(line)) + 1
			chk.add(hashBytes(line))
		case bytes.HasPrefix(line, headerPrefix):
			o.ret = int64(time.Since(t0))
			if tr != nil {
				tr.end(part)
				part = tr.begin("server.stream", "server")
			}
			var l server.Line
			if json.Unmarshal(line, &l) == nil {
				header = l.Header
			}
		case bytes.HasPrefix(line, trailerPrefix):
			var l server.Line
			if json.Unmarshal(line, &l) == nil {
				trailer = l.Trailer
			}
		default: // an error line ends a stream that failed
			return o
		}
	}
	o.rows = chk.rows
	if sc.Err() != nil || header == nil || trailer == nil {
		return o
	}
	o.elapsedMs, o.moved = trailer.ElapsedMS, trailer.StatsTotal
	o.ok = s.oracle != nil && s.oracle.ok(c, chk) &&
		trailer.Rows == int64(chk.rows) && trailer.Ordered == c.ordered && header.Ordered == c.ordered &&
		trailer.SpilledBytes == 0
	return o
}

func (s *serve) layerMetrics(p *passes, out map[string]sample) {
	u := &p.untraced
	for _, c := range s.cs {
		out["class."+c.name+"_p50_ms"] = median(u.opTimes(s, c.name, opLatency))
	}
	out["server.ttfb_ms"] = median(u.roundSums(func(o op) float64 { return ms(o.ret - o.call) }))
	out["server.stream_ms"] = median(u.roundSums(func(o op) float64 { return ms(o.done - o.ret) }))
	out["server.elapsed_ms"] = median(u.roundSums(func(o op) float64 { return o.elapsedMs }))
	out["server.overhead_ms"] = median(u.roundSums(func(o op) float64 { return ms(o.done-o.call) - o.elapsedMs }))
	var perRow, bytesPerRow []float64
	for _, r := range u.rounds {
		for _, o := range r.ops {
			if s.cs[o.id].name == "scan_wide" && o.rows > 0 {
				perRow = append(perRow, float64(o.done-o.ret)/1e3/float64(o.rows))
				bytesPerRow = append(bytesPerRow, float64(o.bytes)/float64(o.rows))
			}
		}
	}
	out["server.wire_us_per_row"] = median(perRow)
	out["server.bytes_per_row"] = median(bytesPerRow)
	if after, err := s.stats(); err == nil {
		hits := float64(after.StmtCacheHits - s.before.StmtCacheHits)
		misses := float64(after.StmtCacheMisses - s.before.StmtCacheMisses)
		out["server.stmt_cache_hit_pct"] = scalar(100 * ratio(hits, hits+misses))
		out["server.rejected"] = scalar(float64(after.Rejected - s.before.Rejected))
		out["server.queued"] = scalar(float64(after.Queued - s.before.Queued))
	}
	layerShares(p, out, "server")
}

package main

import "time"

// span is one timed call into a layer. Spans of one operation share
// Op and nest through Parent; times are nanoseconds since the trace
// began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 at the root of an operation
	Round  int    `json:"round"`
	Client int    `json:"client"`
	Op     string `json:"op"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans and boundary counts of one client's traced
// rounds in memory; traceFile writes them out when the run ends. It is
// used from one goroutine.
type tracer struct {
	t0     time.Time
	client int
	round  int
	op     string
	spans  []span
	stack  []int
	// counts[round][name] is work counted at a layer boundary: rows,
	// tuples, bytes allocated, rules applied.
	counts []map[string]float64
}

func newTracer(t0 time.Time, client int) *tracer { return &tracer{t0: t0, client: client, round: -1} }

func (t *tracer) beginRound() {
	t.round++
	t.counts = append(t.counts, map[string]float64{})
}

func (t *tracer) begin(name, layer string) int {
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Round: t.round, Client: t.client,
		Op: t.op, Name: name, Layer: layer, Start: int64(time.Since(t.t0)),
	})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	t.spans[id].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

func (t *tracer) count(name string, v float64) { t.counts[t.round][name] += v }

// perRound sums f over the spans of each round.
func (t *tracer) perRound(f func(s span, self int64) float64) []float64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := make([]float64, t.round+1)
	for i, s := range t.spans {
		out[s.Round] += f(s, self[i])
	}
	return out
}

// spanMs is the per-round time in spans of the given name.
func (t *tracer) spanMs(name string) []float64 {
	return t.perRound(func(s span, _ int64) float64 {
		if s.Name == name {
			return ms(s.End - s.Start)
		}
		return 0
	})
}

// layerSelfMs is the per-round self time of a layer: its spans minus
// the part of them their child spans cover.
func (t *tracer) layerSelfMs(layer string) []float64 {
	return t.perRound(func(s span, self int64) float64 {
		if s.Layer == layer {
			return ms(self)
		}
		return 0
	})
}

// countPerRound is the per-round value of a boundary count.
func (t *tracer) countPerRound(name string) []float64 {
	out := make([]float64, len(t.counts))
	for i, c := range t.counts {
		out[i] = c[name]
	}
	return out
}

// traceFile is what bench/out/trace-<workload>.json holds.
type traceFile struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Spans    []span               `json:"spans"`
	Counts   []map[string]float64 `json:"counts_per_round"`
}

// gatherTrace joins the clients' tracers into one file, span ids made
// unique across clients.
func gatherTrace(cfg config, tracers []*tracer) traceFile {
	f := traceFile{Workload: cfg.workload, Seed: cfg.seed}
	for _, tr := range tracers {
		base := len(f.Spans)
		for _, s := range tr.spans {
			s.ID += base
			if s.Parent >= 0 {
				s.Parent += base
			}
			f.Spans = append(f.Spans, s)
		}
		f.Counts = append(f.Counts, tr.counts...)
	}
	return f
}

package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// config is what the flags select.
type config struct {
	workload string
	seed     int64
	seconds  float64
	rounds   int // > 0: a fixed number of measured rounds instead of seconds
	trace    bool
	size     float64 // dataset size as a share of the workload's own
}

// scaled is n at the configured dataset size, at least lo.
func (c config) scaled(n, lo int) int {
	return max(int(float64(n)*c.size), lo)
}

// op is one measured operation: times in nanoseconds since its pass
// began, the rows it returned, and whether the oracle agrees.
type op struct {
	id                     int // index into the workload's ops()
	call, ret, first, done int64
	rows                   int
	moved                  int64   // tuples moved by all of the plan's operators
	bytes                  int64   // served workloads: bytes of row lines
	elapsedMs              float64 // served workloads: the trailer's own figure
	spill                  spillCounts
	ok                     bool
}

type spillCounts struct {
	spilled, runs, partitions, peak int64
}

// round is one pass of a client through the workload's operations.
type round struct {
	start, end int64
	ops        []op
}

// workload is one of the five benchmark workloads.
type workload interface {
	// setup builds everything a user builds before the first measured
	// query, from the seed, and runs each operation once.
	setup() error
	// prepare computes the oracle and, for a traced run, what the
	// traced pass stages the pipeline on. It is not part of set-up time.
	prepare(traced bool) error
	// ops names the operations of a round, in the order they run.
	ops() []string
	// firstRowOp is the operation first_row_p50_ms is taken on.
	firstRowOp() string
	clients() int
	// runRound runs one round for one client. With a tracer it stages
	// the same pipeline from this package, a span around each call.
	runRound(client int, t0 time.Time, tr *tracer) round
	// layerMetrics adds the workload's own per-layer metrics.
	layerMetrics(p *passes, out map[string]sample)
	close()
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "embed_small":
		return newEmbed(cfg, cfg.scaled(2000, 40), 40, 20, -1,
			"divide", "param_color", "divide_limit", "topk", "notexists", "scan_wide"), nil
	case "embed_large":
		return newEmbed(cfg, cfg.scaled(10000, 40), 200, 40, -1,
			"divide", "param_color", "divide_limit", "topk", "notexists"), nil
	case "spill_budget":
		return newEmbed(cfg, cfg.scaled(10000, 40), 200, 40, 1<<20,
			"divide", "param_color", "big_sort"), nil
	case "serve_mix":
		return newServe(cfg), nil
	case "plan_exec":
		return newPlanExec(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s, or all)", cfg.workload, strings.Join(workloadNames, ", "))
}

var workloadNames = []string{"embed_small", "embed_large", "plan_exec", "spill_budget", "serve_mix"}

// pass is one measured loop over rounds: every client's rounds pooled,
// the wall time of the loop and what it allocated.
type pass struct {
	rounds     []round
	wall       time.Duration
	allocBytes uint64
	allocCount uint64
	tracers    []*tracer
}

// passes are the measured loops of one run.
type passes struct {
	untraced pass
	traced   pass // empty unless the run is traced
}

// measure runs rounds on every client until the budget is spent: a
// fixed number of rounds per client or, when that is 0, rounds until d
// has passed and atLeast are done. Clients are closed loops: each
// starts its next round when the previous one is complete.
func measure(w workload, rounds, atLeast int, d time.Duration, traced bool) pass {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	n := w.clients()
	perClient := make([][]round, n)
	tracers := make([]*tracer, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		if traced {
			tracers[c] = newTracer(t0, c)
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if rounds > 0 && i >= rounds {
					break
				}
				if rounds == 0 && i >= atLeast && time.Since(t0) >= d {
					break
				}
				if tracers[c] != nil {
					tracers[c].beginRound()
				}
				perClient[c] = append(perClient[c], w.runRound(c, t0, tracers[c]))
			}
		}(c)
	}
	wg.Wait()
	p := pass{wall: time.Since(t0)}
	runtime.ReadMemStats(&after)
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	p.allocCount = after.Mallocs - before.Mallocs
	for _, rs := range perClient {
		p.rounds = append(p.rounds, rs...)
	}
	sort.Slice(p.rounds, func(i, j int) bool { return p.rounds[i].start < p.rounds[j].start })
	if traced {
		p.tracers = tracers
	}
	return p
}

// opTimes returns, per round, the time of the named operation in
// milliseconds by f; rounds without it are left out.
func (p *pass) opTimes(w workload, name string, f func(o op) int64) []float64 {
	id := -1
	for i, n := range w.ops() {
		if n == name {
			id = i
		}
	}
	var out []float64
	for _, r := range p.rounds {
		for _, o := range r.ops {
			if o.id == id {
				out = append(out, ms(f(o)))
			}
		}
	}
	return out
}

func opLatency(o op) int64 { return o.done - o.call }

// operations counts the pass's operations, and those the oracle agreed
// with.
func (p *pass) operations() (attempted, ok int) {
	for _, r := range p.rounds {
		for _, o := range r.ops {
			attempted++
			if o.ok {
				ok++
			}
		}
	}
	return attempted, ok
}

// roundSums returns, per round, the sum of f over its operations.
func (p *pass) roundSums(f func(o op) float64) []float64 {
	out := make([]float64, len(p.rounds))
	for i, r := range p.rounds {
		for _, o := range r.ops {
			out[i] += f(o)
		}
	}
	return out
}

func (p *pass) roundMs() []float64 {
	out := make([]float64, len(p.rounds))
	for i, r := range p.rounds {
		out[i] = ms(r.end - r.start)
	}
	return out
}

// tracedSeries gathers a per-round series from every client's tracer.
func (p *pass) tracedSeries(f func(t *tracer) []float64) []float64 {
	var out []float64
	for _, t := range p.tracers {
		out = append(out, f(t)...)
	}
	return out
}

// result is what one run of one workload reports.
type result struct {
	meta      runMeta
	attempted int
	failed    int
	metrics   map[string]sample
	trace     traceFile
}

// A run sets the workload up at least setupReps times, and again until
// setupFor has passed or setupMost are done; setup_s is the median.
const (
	setupReps = 3
	setupMost = 15
	setupFor  = 2 * time.Second
)

func runWorkload(cfg config) (*result, error) {
	var (
		w      workload
		setups []float64
	)
	setupStart := time.Now()
	for i := 0; i < setupReps || i < setupMost && time.Since(setupStart) < setupFor; i++ {
		if w != nil {
			w.close()
			w = nil
			runtime.GC()
		}
		start := time.Now()
		next, err := newWorkload(cfg)
		if err != nil {
			return nil, err
		}
		if err := next.setup(); err != nil {
			next.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		w = next
	}
	defer w.close()
	if err := w.prepare(cfg.trace); err != nil {
		return nil, err
	}

	// Warm-up rounds are run and checked but not measured: two, and a
	// tenth of the measured rounds or seconds more.
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		budget /= 2 // the traced pass gets the other half
	}
	warmRounds := 0
	if cfg.rounds > 0 {
		warmRounds = cfg.rounds/10 + 2
	}
	warm := measure(w, warmRounds, 2, budget/10, false)

	var p passes
	p.untraced = measure(w, cfg.rounds, 3, budget, false)
	if cfg.trace {
		p.traced = measure(w, max(cfg.rounds/4, min(cfg.rounds, 2)), 3, budget, true)
	}

	res := &result{metrics: map[string]sample{}}
	res.meta = runMeta{
		Seed: cfg.seed, Size: cfg.size, Seconds: cfg.seconds, Rounds: len(p.untraced.rounds),
		GoMaxProcs: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
	}
	for _, ps := range []*pass{&warm, &p.untraced, &p.traced} {
		attempted, ok := ps.operations()
		res.attempted += attempted
		res.failed += attempted - ok
	}

	u := &p.untraced
	m := res.metrics
	_, okOps := u.operations()
	nRounds := float64(len(u.rounds))
	firstRow := u.opTimes(w, w.firstRowOp(), func(o op) int64 { return o.first - o.call })
	m["setup_s"] = median(setups)
	m["alloc_mb_per_round"] = scalar(float64(u.allocBytes) / 1e6 / nRounds)
	m["allocs_per_round"] = scalar(float64(u.allocCount) / nRounds)
	m["tuples_moved_per_round"] = median(u.roundSums(func(o op) float64 { return float64(o.moved) }))

	if cfg.trace {
		for _, d := range perLayerMetrics {
			m[d.Name] = sample{}
		}
		m["bench.round_p05_ms"] = p05(u.roundMs())
		m["bench.round_p50_ms"] = median(u.roundMs())
		m["bench.round_p90_ms"] = percentile(u.roundMs(), 0.9)
		m["bench.first_row_p05_ms"] = p05(firstRow)
		m["bench.first_row_p50_ms"] = median(firstRow)
		m["bench.ops_per_s"] = scalar(float64(okOps) / u.wall.Seconds())
		w.layerMetrics(&p, m)
		if t := &p.traced; len(t.rounds) > 0 {
			m["trace.overhead_pct"] = scalar(100 * (ratio(median(t.roundMs()).value, m["bench.round_p50_ms"].value) - 1))
			res.trace = gatherTrace(cfg, t.tracers)
		}
	}
	// Last, so that it covers the whole run.
	m["peak_rss_mb"] = scalar(peakRSSMB())
	return res, nil
}

// layerShares fills <layer>.share_pct for the given layers, each
// layer's self time as a share of the traced round, and
// trace.coverage_pct, the self time of all of them as a share of the
// untraced round.
func layerShares(p *passes, out map[string]sample, layers ...string) {
	tracedRound := median(p.traced.roundMs()).value
	var covered float64
	for _, l := range layers {
		self := median(p.traced.tracedSeries(func(t *tracer) []float64 { return t.layerSelfMs(l) })).value
		covered += self
		if _, ok := out[l+".share_pct"]; ok {
			out[l+".share_pct"] = scalar(100 * ratio(self, tracedRound))
		}
	}
	out["trace.coverage_pct"] = scalar(100 * ratio(covered, out["bench.round_p50_ms"].value))
}

// peakRSSMB is the most memory this process has had resident: ru_maxrss,
// which Linux reports in KiB and /proc/self/status shows as VmHWM.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

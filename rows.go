package divlaws

import (
	"context"
	"fmt"

	"divlaws/internal/exec"
	"divlaws/internal/relation"
	"divlaws/internal/spill"
	"divlaws/internal/value"
)

// Rows is a streaming cursor over a query result, wrapping the
// compiled iterator pipeline. The idiom matches database/sql:
//
//	rows, err := db.Query(ctx, text)
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//	    var s string
//	    if err := rows.Scan(&s); err != nil { ... }
//	}
//	if err := rows.Err(); err != nil { ... }
//
// Tuples are produced lazily, a batch at a time: pipelined operators
// (the merge-group division of §5.1.1 in particular) compute the next
// batch of quotient tuples only when Next has served the previous one.
// Rows is not safe for concurrent use; Close is idempotent and safe
// mid-stream.
type Rows struct {
	it      *exec.FromBatch
	ctx     context.Context
	cancel  context.CancelFunc
	cols    []string
	stats   *exec.Stats
	spill   *spill.Tracker
	ordered bool

	cur    relation.Tuple
	err    error
	closed bool
	done   bool
}

// Next advances to the next result tuple, reporting whether one is
// available. It returns false at end of stream, after Close, when
// the pipeline errors, or when the query's context is cancelled; use
// Err to tell exhaustion from failure.
func (r *Rows) Next() bool {
	if r.closed || r.done {
		return false
	}
	if err := r.ctx.Err(); err != nil {
		r.err = err
		r.release()
		return false
	}
	t, ok, err := r.it.Next()
	if err != nil {
		r.err = err
		r.release()
		return false
	}
	if !ok {
		// Exhausted: release pipeline resources eagerly; Close is
		// still the caller's responsibility but becomes a no-op.
		r.release()
		return false
	}
	r.cur = t
	return true
}

// release tears the pipeline down without marking the cursor closed,
// so protocol errors (Scan after exhaustion) stay distinguishable
// from Scan after Close.
func (r *Rows) release() {
	if r.done {
		return
	}
	r.done = true
	r.cur = nil
	r.cancel()
	if cerr := r.it.Close(); cerr != nil && r.err == nil {
		r.err = cerr
	}
	// The pipeline is down; close the budget tracker last so its
	// spill file outlives every run the plan held.
	// Counters stay readable after Close for Stats.
	r.spill.Close()
}

// Scan copies the current tuple into dest, one pointer per result
// column: *string, *int64, *int, *float64, *bool, or *any. Scan
// without a preceding successful Next, after Close, or with the
// wrong arity or destination type errors.
func (r *Rows) Scan(dest ...any) error {
	if r.closed {
		return fmt.Errorf("divlaws: Scan after Close")
	}
	if r.cur == nil {
		return fmt.Errorf("divlaws: Scan called without a successful Next")
	}
	if len(dest) != len(r.cur) {
		return fmt.Errorf("divlaws: Scan got %d destinations for %d columns", len(dest), len(r.cur))
	}
	for i, d := range dest {
		if err := scanValue(r.cur[i], d); err != nil {
			return fmt.Errorf("divlaws: Scan column %q: %w", r.cols[i], err)
		}
	}
	return nil
}

// AppendJSON appends the current tuple to dst as a JSON array, byte
// for byte what encoding/json writes for the row scanned into []any,
// without boxing a value. It is Scan for callers that serialise rows
// (the query server's ndjson stream) and fails like Scan without a
// preceding successful Next or after Close; a NaN or infinite float,
// which JSON cannot carry, is an error too. On error dst is returned
// unchanged.
func (r *Rows) AppendJSON(dst []byte) ([]byte, error) {
	if r.closed {
		return dst, fmt.Errorf("divlaws: AppendJSON after Close")
	}
	if r.cur == nil {
		return dst, fmt.Errorf("divlaws: AppendJSON called without a successful Next")
	}
	out := append(dst, '[')
	for i, v := range r.cur {
		if i > 0 {
			out = append(out, ',')
		}
		var err error
		if out, err = v.AppendJSON(out); err != nil {
			return dst, fmt.Errorf("divlaws: AppendJSON column %q: %w", r.cols[i], err)
		}
	}
	return append(out, ']'), nil
}

// scanValue converts one engine value into a Go destination pointer.
func scanValue(v value.Value, dest any) error {
	switch d := dest.(type) {
	case *any:
		*d = v.Native()
		return nil
	case *string:
		if v.Kind() != value.KindString {
			return fmt.Errorf("cannot scan %s into *string", v.Kind())
		}
		*d = v.AsString()
		return nil
	case *int64:
		if v.Kind() != value.KindInt {
			return fmt.Errorf("cannot scan %s into *int64", v.Kind())
		}
		*d = v.AsInt()
		return nil
	case *int:
		if v.Kind() != value.KindInt {
			return fmt.Errorf("cannot scan %s into *int", v.Kind())
		}
		*d = int(v.AsInt())
		return nil
	case *float64:
		if !v.IsNumeric() {
			return fmt.Errorf("cannot scan %s into *float64", v.Kind())
		}
		*d = v.AsFloat()
		return nil
	case *bool:
		if v.Kind() != value.KindBool {
			return fmt.Errorf("cannot scan %s into *bool", v.Kind())
		}
		*d = v.AsBool()
		return nil
	default:
		return fmt.Errorf("unsupported destination type %T", dest)
	}
}

// Columns returns the result column names in output order.
func (r *Rows) Columns() []string { return append([]string(nil), r.cols...) }

// Ordered reports whether the stream carries a physical ordering
// guarantee: the statement had an ORDER BY, so the plan's outermost
// operators are Sort or TopK and Next delivers tuples in exactly the
// requested key order (ties broken by the engine's canonical tuple
// order, deterministically — including across parallel exchanges,
// where per-partition top-k results are k-way merged back into the
// global order). When Ordered is false, tuple order is
// implementation-defined and consumers that need one must sort.
func (r *Rows) Ordered() bool { return r.ordered }

// Err returns the first error encountered while streaming — a
// pipeline failure or the query context's cancellation error. It
// stays nil after a clean exhaustion or an early Close.
func (r *Rows) Err() error { return r.err }

// Close tears the pipeline down, cancelling the query's context so
// any parallel workers still running stop promptly. It is idempotent
// and safe to call mid-stream; the error (if any) from releasing the
// pipeline is reported once.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	wasDone := r.done
	prevErr := r.err
	r.release()
	if !wasDone && r.err != prevErr {
		return r.err
	}
	return nil
}

// Stats returns a point-in-time snapshot of the pipeline's
// per-operator tuple counts and, when the query ran under a memory
// budget, its spill activity. It is safe to call while the query is
// still streaming and after Close.
func (r *Rows) Stats() QueryStats {
	qs := QueryStats{Emitted: r.stats.Snapshot()}
	if r.spill != nil {
		s := r.spill.Snapshot()
		qs.Spill = SpillStats{
			Limit:        s.Limit,
			PeakBytes:    s.Peak,
			SpilledBytes: s.Spilled,
			Runs:         s.Runs,
			Partitions:   s.Partitions,
		}
	}
	return qs
}

// QueryStats is a snapshot of per-operator tuple counts, the public
// re-export of the engine's exec.Stats collector: labels name the
// operators by plan position ("root/hashdivide", "root.0/scan(r1)",
// "root/paralleldivide/part3", ...), values count tuples emitted.
// Being a snapshot, it is immune to the read-after-parallel-run
// races that direct map access would risk.
type QueryStats struct {
	Emitted map[string]int64
	// Spill reports the query's out-of-core activity; the zero value
	// when the query ran without a memory budget (WithMemoryLimit).
	Spill SpillStats
}

// SpillStats is the memory-budget ledger of one query: how much state
// the blocking operators held at peak, and how much overflowed to
// spilled runs.
type SpillStats struct {
	// Limit is the budget the query ran under, in bytes.
	Limit int64
	// PeakBytes is the high-water mark of live charged state.
	PeakBytes int64
	// SpilledBytes counts bytes written to spill runs.
	SpilledBytes int64
	// Runs counts the spill runs that held data.
	Runs int64
	// Partitions counts grace-hash partitioning rounds, including
	// recursive re-partitionings of oversized partitions.
	Partitions int64
}

// Get returns the count for one operator label.
func (s QueryStats) Get(label string) int64 { return s.Emitted[label] }

// Total returns the total number of tuples moved by all operators,
// the engine's measure of intermediate-result volume.
func (s QueryStats) Total() int64 {
	var t int64
	for _, n := range s.Emitted {
		t += n
	}
	return t
}

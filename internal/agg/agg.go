// Package agg defines SQL aggregate semantics once: the functions of
// the grouping operator GγF (paper Appendix A), the specs that name
// them, and the per-group fold. The reference evaluator
// (algebra.Group) and the engine (exec.GroupIter) both fold through
// it, so they cannot disagree on what an aggregate means.
package agg

import (
	"fmt"
	"unsafe"

	"divlaws/internal/schema"
	"divlaws/internal/value"
)

// AggFunc identifies an aggregation function.
type AggFunc uint8

// The supported aggregation functions.
const (
	Count AggFunc = iota // count of tuples in the group
	Sum
	Min
	Max
	Avg
)

// String returns the SQL name of the aggregate.
func (f AggFunc) String() string {
	switch f {
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Min:
		return "min"
	case Max:
		return "max"
	case Avg:
		return "avg"
	default:
		return fmt.Sprintf("agg(%d)", uint8(f))
	}
}

// AggSpec is one entry of the aggregation list F: Func applied to
// input attribute Attr, producing output attribute As. Count ignores
// Attr (it counts tuples; the paper writes count(B) but relations are
// sets so the count of tuples equals the count of attribute values).
type AggSpec struct {
	Func AggFunc
	Attr string // input attribute; unused for Count
	As   string // output attribute name
}

// String renders the spec like the paper: sum(x)→b.
func (a AggSpec) String() string {
	in := a.Attr
	if a.Func == Count && in == "" {
		in = "*"
	}
	return fmt.Sprintf("%s(%s)->%s", a.Func, in, a.As)
}

// State is one aggregate's fold over the values of one group. The
// zero State is the empty group.
type State struct {
	count int64
	sum   value.Value
	min   value.Value
	max   value.Value
	init  bool
}

// StateBytes is the heap size of a State, what a budgeted grouping
// charges per aggregate and group.
const StateBytes = int64(unsafe.Sizeof(State{}))

// Add folds one value into the state.
func (s *State) Add(v value.Value) {
	s.count++
	if !s.init {
		s.sum, s.min, s.max, s.init = v, v, v, true
		return
	}
	if v.IsNumeric() && s.sum.IsNumeric() {
		s.sum = value.Add(s.sum, v)
	}
	s.min = value.Min(s.min, v)
	s.max = value.Max(s.max, v)
}

// Result returns f over the values folded so far.
func (s *State) Result(f AggFunc) value.Value {
	switch f {
	case Count:
		return value.Int(s.count)
	case Sum:
		if !s.init || !s.sum.IsNumeric() {
			// SUM over non-numeric values is NULL, like SQL engines
			// that reject it at runtime rather than crash.
			return value.Null
		}
		return s.sum
	case Min:
		if !s.init {
			return value.Null
		}
		return s.min
	case Max:
		if !s.init {
			return value.Null
		}
		return s.max
	case Avg:
		if !s.init || s.count == 0 || !s.sum.IsNumeric() {
			return value.Null
		}
		return value.Float(s.sum.AsFloat() / float64(s.count))
	default:
		panic(fmt.Sprintf("agg: unknown aggregate %d", uint8(f)))
	}
}

// Inputs returns each spec's input position in sch, -1 for count(*).
func Inputs(sch schema.Schema, aggs []AggSpec) []int {
	in := make([]int, len(aggs))
	for i, a := range aggs {
		in[i] = -1
		if a.Func != Count || a.Attr != "" {
			in[i] = sch.MustIndex(a.Attr)
		}
	}
	return in
}

// Fold folds one input row into a group's states, one per spec: spec
// i reads row[in[i]], and count(*) (in[i] < 0) reads nothing.
func Fold(states []State, row []value.Value, in []int) {
	for i, p := range in {
		if p < 0 {
			states[i].count++
			continue
		}
		states[i].Add(row[p])
	}
}

// Finish writes each spec's result over a group's states to dst.
func Finish(dst []value.Value, states []State, aggs []AggSpec) {
	for i, a := range aggs {
		dst[i] = states[i].Result(a.Func)
	}
}

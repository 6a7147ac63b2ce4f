package algebra

import (
	"divlaws/internal/agg"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
)

// Group implements the grouping operator GγF(r): group r's tuples by
// the attributes in by and evaluate each AggSpec within each group.
// The result schema is by ∪ the output names, in that order. With an
// empty by list it produces a single tuple over the whole relation
// (global aggregation), even for an empty input.
func Group(r *relation.Relation, by []string, aggs []agg.AggSpec) *relation.Relation {
	outAttrs := append([]string(nil), by...)
	for _, a := range aggs {
		outAttrs = append(outAttrs, a.As)
	}
	out := relation.New(schema.New(outAttrs...))

	byPos := r.Schema().Positions(by)
	in := agg.Inputs(r.Schema(), aggs)

	// Group keys get dense ids in first-seen order (the deterministic
	// output order); states[id*len(aggs):] holds that group's
	// aggregate states.
	var keyIx relation.TupleIndex
	var states []agg.State
	zero := make([]agg.State, len(aggs))
	for _, t := range r.Tuples() {
		id, created := keyIx.IDProj(t, byPos)
		if created {
			states = append(states, zero...)
		}
		agg.Fold(states[id*len(aggs):], t, in)
	}
	if len(by) == 0 && keyIx.Len() == 0 {
		// Global aggregation over an empty relation yields one tuple
		// of aggregate identities (count = 0, others NULL).
		keyIx.ID(relation.Tuple{})
		states = append(states, zero...)
	}
	for id, key := range keyIx.Keys() {
		row := make(relation.Tuple, len(key)+len(aggs))
		copy(row, key)
		agg.Finish(row[len(key):], states[id*len(aggs):], aggs)
		out.InsertOwned(row)
	}
	return out
}

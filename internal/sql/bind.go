package sql

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"

	"divlaws/internal/agg"
	"divlaws/internal/plan"
	"divlaws/internal/pred"
	"divlaws/internal/relation"
	"divlaws/internal/schema"
	"divlaws/internal/value"
)

// DB couples a catalog of named relations with the SQL front end.
//
// It is the module-internal engine surface: parsing, binding, and
// planning — it evaluates nothing. External programs embed the engine
// through the public root package (divlaws.Open), whose DB delegates
// its catalog and planning to this type and streams results off the
// compiled iterator pipeline.
//
// A DB is safe for concurrent use. The catalog map is copy-on-write:
// Register swaps in a new map and never changes one that is in use.
// Every planning entry point binds against a snapshot — a DB frozen
// on the map of that instant. Correlated subqueries are decorrelated
// into plan nodes at bind time and never bind again, so one query
// sees one catalog for its whole life.
type DB struct {
	mu      sync.Mutex // guards the catalog field, not the map
	catalog map[string]*relation.Relation
}

// NewDB returns an empty database.
func NewDB() *DB { return &DB{catalog: map[string]*relation.Relation{}} }

// Register adds (or replaces) a named table. The relation is
// referenced, not copied, and must not change afterwards (package
// relation's immutability contract): queries scan its storage in
// place and alias it through rename views. Queries already planned
// keep the catalog they were bound against.
func (db *DB) Register(name string, rel *relation.Relation) {
	db.mu.Lock()
	defer db.mu.Unlock()
	next := make(map[string]*relation.Relation, len(db.catalog)+1)
	maps.Copy(next, db.catalog)
	next[name] = rel
	db.catalog = next
}

// snapshot returns a DB frozen on the current catalog; nothing ever
// registers into it, so its map is read without the lock.
func (db *DB) snapshot() *DB {
	db.mu.Lock()
	defer db.mu.Unlock()
	return &DB{catalog: db.catalog}
}

// Table returns a registered table.
func (db *DB) Table(name string) (*relation.Relation, bool) {
	r, ok := db.snapshot().catalog[name]
	return r, ok
}

// Plan parses and binds a SELECT statement into a logical plan.
func (db *DB) Plan(text string) (plan.Node, error) {
	q, err := Parse(text)
	if err != nil {
		return nil, err
	}
	return db.Bind(q)
}

// Bind translates a parsed query into a logical plan.
func (db *DB) Bind(q *Query) (plan.Node, error) {
	return db.snapshot().bindQuery(q)
}

// bindQuery lowers one query block. ORDER BY becomes a physical
// plan.Sort over the block's output, and LIMIT a plan.Limit above it
// — so ORDER BY + LIMIT binds to Limit∘Sort, which the optimizer
// fuses into the single plan.TopK operator.
func (db *DB) bindQuery(q *Query) (plan.Node, error) {
	node, pre, err := db.bindQueryBody(q)
	if err != nil {
		return nil, err
	}
	node, err = db.bindOrderBy(q, node, pre)
	if err != nil {
		return nil, err
	}
	if q.HasLimit {
		if q.Limit < 0 {
			return nil, fmt.Errorf("sql: LIMIT %d is negative", q.Limit)
		}
		node = &plan.Limit{Input: node, N: q.Limit}
	}
	return node, nil
}

// preProjection records the schema context a query block's SELECT
// list projected away — the node beneath the projection plus the
// projected attributes and their output names — so ORDER BY can
// reach back to columns the projection dropped.
type preProjection struct {
	input     plan.Node
	fromAttrs []string
	outNames  []string
}

// bindOrderBy is the single sort-binding path of the binder: it
// resolves every ORDER BY item against the query block's output
// schema (projection aliases included, since renames are already
// applied) and wraps the plan in a Sort node carrying the resolved
// keys.
//
// A sort column absent from the output schema is resolved against
// the pre-projection schema instead: the projection is widened to
// carry the column through the Sort, and a final projection strips
// it again (order-preserving — first-seen semantics), so
//
//	SELECT city FROM t ORDER BY pop DESC
//
// binds to Project[city](Sort[pop desc](Project[city,pop](t))).
// Columns found in neither schema are errors — ordering is a
// physical operator, not a presentation-level hint.
func (db *DB) bindOrderBy(q *Query, node plan.Node, pre *preProjection) (plan.Node, error) {
	if len(q.OrderBy) == 0 {
		return node, nil
	}
	keys := make([]plan.SortKey, len(q.OrderBy))
	var extras []string
	for i, o := range q.OrderBy {
		c := o.Col
		attr, err := resolveColumn(node.Schema(), &c)
		if err != nil {
			if pre == nil {
				return nil, fmt.Errorf("sql: ORDER BY: %w", err)
			}
			c2 := o.Col
			preAttr, preErr := resolveColumn(pre.input.Schema(), &c2)
			if preErr != nil {
				return nil, fmt.Errorf("sql: ORDER BY: %w", err)
			}
			if j := slices.Index(pre.fromAttrs, preAttr); j >= 0 {
				// The column is projected, just under an alias: sort on
				// its output name, no widening needed.
				attr = pre.outNames[j]
			} else if slices.Contains(pre.outNames, preAttr) {
				// Widening would collide with an output alias of the
				// same name; keep the strict error.
				return nil, fmt.Errorf("sql: ORDER BY: %w", err)
			} else {
				attr = preAttr
				if !slices.Contains(extras, preAttr) {
					extras = append(extras, preAttr)
				}
			}
		}
		keys[i] = plan.SortKey{Attr: attr, Desc: o.Desc}
	}
	if len(extras) == 0 {
		return &plan.Sort{Input: node, Keys: keys}, nil
	}
	// Widen the projection with the extra sort columns, apply the
	// output renames, sort, then strip back down to the output names.
	wide := append(append([]string(nil), pre.fromAttrs...), extras...)
	widened := renameOutputs(&plan.Project{Input: pre.input, Attrs: wide}, pre.fromAttrs, pre.outNames)
	sorted := &plan.Sort{Input: widened, Keys: keys}
	return &plan.Project{Input: sorted, Attrs: pre.outNames}, nil
}

// bindQueryBody lowers one query block up to (but excluding) ORDER
// BY and LIMIT. The second result is the pre-projection context for
// ORDER BY widening; it is nil for SELECT *, whose output schema is
// the full input schema.
func (db *DB) bindQueryBody(q *Query) (plan.Node, *preProjection, error) {
	node, err := db.bindFrom(q.From)
	if err != nil {
		return nil, nil, err
	}
	if q.Where != nil {
		node, err = db.bindWhere(q.Where, node, &scope{sch: node.Schema()})
		if err != nil {
			return nil, nil, err
		}
	}

	aggs := collectAggs(q)
	if len(aggs) > 0 || len(q.GroupBy) > 0 {
		return db.bindGrouped(q, node, aggs)
	}
	if q.Having != nil {
		return nil, nil, fmt.Errorf("sql: HAVING requires GROUP BY or aggregates")
	}
	return db.bindProjection(q, node)
}

// bindFrom builds the product of the FROM items with qualified
// attribute names.
func (db *DB) bindFrom(refs []TableRef) (plan.Node, error) {
	if len(refs) == 0 {
		return nil, fmt.Errorf("sql: empty FROM clause")
	}
	var node plan.Node
	for _, ref := range refs {
		n, err := db.bindTableRef(ref)
		if err != nil {
			return nil, err
		}
		if node == nil {
			node = n
			continue
		}
		if !node.Schema().DisjointFrom(n.Schema()) {
			return nil, fmt.Errorf("sql: duplicate table alias in FROM near %s", describeRef(ref))
		}
		node = &plan.Product{Left: node, Right: n}
	}
	return node, nil
}

// bindTableRef lowers one table reference.
func (db *DB) bindTableRef(ref TableRef) (plan.Node, error) {
	switch r := ref.(type) {
	case *BaseTable:
		rel, ok := db.catalog[r.Name]
		if !ok {
			return nil, fmt.Errorf("sql: unknown table %q", r.Name)
		}
		return qualifiedScan(r.Name, r.Alias, rel), nil
	case *SubqueryTable:
		sub, err := db.bindQuery(r.Query)
		if err != nil {
			return nil, err
		}
		// Re-qualify the subquery's output columns under the alias.
		node := sub
		for _, attr := range sub.Schema().Attrs() {
			node = &plan.Rename{Input: node, From: attr, To: r.Alias + "." + attr}
		}
		return node, nil
	case *DivideTable:
		return db.bindDivide(r)
	default:
		return nil, fmt.Errorf("sql: unsupported table reference %T", ref)
	}
}

// qualifiedScan scans a base table with attributes renamed to
// alias.column. The rename is a schema-only view of the registered
// relation (relation.WithSchema), so a table reference costs the same
// to bind at any cardinality.
func qualifiedScan(name, alias string, rel *relation.Relation) plan.Node {
	attrs := rel.Schema().Attrs()
	qualified := make([]string, len(attrs))
	for i, a := range attrs {
		qualified[i] = alias + "." + a
	}
	return plan.NewScan(name, rel.WithSchema(schema.New(qualified...)))
}

// bindDivide lowers the paper's <quotient> construct. Following §4,
// the ON condition must be a conjunction of equi-comparisons between
// dividend and divisor columns; the quotient is a small divide when
// the condition covers every divisor attribute and a great divide
// otherwise.
func (db *DB) bindDivide(r *DivideTable) (plan.Node, error) {
	dividend, err := db.bindTableRef(r.Dividend)
	if err != nil {
		return nil, err
	}
	divisor, err := db.bindTableRef(r.Divisor)
	if err != nil {
		return nil, err
	}
	combined := dividend.Schema().Concat(divisor.Schema())
	onPred, err := (&scope{sch: combined}).toPred(r.On, nil)
	if err != nil {
		return nil, err
	}
	pairs, ok := pred.EquiPairs(onPred)
	if !ok || len(pairs) == 0 {
		return nil, fmt.Errorf("sql: DIVIDE BY requires a conjunction of equi-joins in ON, got %q", r.On)
	}

	// Orient each pair in place as (dividend attribute, divisor
	// attribute).
	divisorToDividend := make(map[string]string, len(pairs))
	for i, pr := range pairs {
		a, b := pr[0], pr[1]
		switch {
		case dividend.Schema().Contains(a) && divisor.Schema().Contains(b):
		case dividend.Schema().Contains(b) && divisor.Schema().Contains(a):
			pairs[i] = [2]string{b, a}
		default:
			return nil, fmt.Errorf("sql: DIVIDE BY ON pair %s = %s must relate dividend and divisor columns", a, b)
		}
		divisorToDividend[pairs[i][1]] = pairs[i][0]
	}
	// All divisor attributes joined => small divide (paper §4).
	small := len(divisorToDividend) == divisor.Schema().Len()

	// Rename divisor join columns to the dividend's names so the
	// division operators see a shared attribute set B. The renames
	// follow the ON order, so the plan is the same on every bind; a
	// column named twice is renamed once.
	var divisorNode plan.Node = divisor
	for _, pr := range pairs {
		if to, ok := divisorToDividend[pr[1]]; ok {
			divisorNode = &plan.Rename{Input: divisorNode, From: pr[1], To: to}
			delete(divisorToDividend, pr[1])
		}
	}

	if small {
		return &plan.Divide{Dividend: dividend, Divisor: divisorNode}, nil
	}
	return &plan.GreatDivide{Dividend: dividend, Divisor: divisorNode}, nil
}

// bindProjection applies the SELECT list of a non-aggregating query.
// ORDER BY is bound later, by bindQuery, against the projected
// output schema.
func (db *DB) bindProjection(q *Query, node plan.Node) (plan.Node, *preProjection, error) {
	if q.Star {
		return node, nil, nil
	}
	var fromAttrs []string
	var outNames []string
	for _, item := range q.Select {
		col, ok := item.Expr.(*ColumnRef)
		if !ok {
			return nil, nil, fmt.Errorf("sql: select item %q requires GROUP BY context", item.Expr)
		}
		attr, err := resolveColumn(node.Schema(), col)
		if err != nil {
			return nil, nil, err
		}
		fromAttrs = append(fromAttrs, attr)
		outNames = append(outNames, outputName(item))
	}
	if err := checkDistinctNames(outNames); err != nil {
		return nil, nil, err
	}
	pre := &preProjection{input: node, fromAttrs: fromAttrs, outNames: outNames}
	return renameOutputs(&plan.Project{Input: node, Attrs: fromAttrs}, fromAttrs, outNames), pre, nil
}

// bindGrouped applies GROUP BY / HAVING / aggregate select lists.
func (db *DB) bindGrouped(q *Query, node plan.Node, aggs []*AggCall) (plan.Node, *preProjection, error) {
	inSchema := node.Schema()
	by := make([]string, len(q.GroupBy))
	for i, col := range q.GroupBy {
		c := col
		attr, err := resolveColumn(inSchema, &c)
		if err != nil {
			return nil, nil, err
		}
		by[i] = attr
	}

	// One AggSpec per distinct aggregate expression.
	specs := make([]agg.AggSpec, 0, len(aggs))
	internal := make(map[string]string) // AggCall.String() -> output attr
	for _, call := range aggs {
		key := call.String()
		if _, done := internal[key]; done {
			continue
		}
		name := fmt.Sprintf("·agg%d", len(specs))
		spec := agg.AggSpec{As: name}
		switch call.Func {
		case "count":
			spec.Func = agg.Count
			if !call.Star {
				attr, err := resolveColumn(inSchema, call.Arg)
				if err != nil {
					return nil, nil, err
				}
				spec.Attr = attr
			}
		case "sum", "min", "max", "avg":
			if call.Star {
				return nil, nil, fmt.Errorf("sql: %s(*) is not valid", call.Func)
			}
			attr, err := resolveColumn(inSchema, call.Arg)
			if err != nil {
				return nil, nil, err
			}
			spec.Attr = attr
			switch call.Func {
			case "sum":
				spec.Func = agg.Sum
			case "min":
				spec.Func = agg.Min
			case "max":
				spec.Func = agg.Max
			default:
				spec.Func = agg.Avg
			}
		default:
			return nil, nil, fmt.Errorf("sql: unknown aggregate %q", call.Func)
		}
		internal[key] = name
		specs = append(specs, spec)
	}

	var grouped plan.Node = &plan.Group{Input: node, By: by, Aggs: specs}

	if q.Having != nil {
		p, err := (&scope{sch: grouped.Schema()}).toPred(q.Having, internal)
		if err != nil {
			return nil, nil, err
		}
		grouped = &plan.Select{Input: grouped, Pred: p}
	}

	if q.Star {
		return nil, nil, fmt.Errorf("sql: SELECT * is not valid with GROUP BY")
	}
	var fromAttrs, outNames []string
	for _, item := range q.Select {
		switch e := item.Expr.(type) {
		case *ColumnRef:
			attr, err := resolveColumn(grouped.Schema(), e)
			if err != nil {
				return nil, nil, fmt.Errorf("sql: select column %q must appear in GROUP BY: %w", e, err)
			}
			fromAttrs = append(fromAttrs, attr)
		case *AggCall:
			name, ok := internal[e.String()]
			if !ok {
				return nil, nil, fmt.Errorf("sql: unresolved aggregate %q", e)
			}
			fromAttrs = append(fromAttrs, name)
		default:
			return nil, nil, fmt.Errorf("sql: unsupported select item %q", item.Expr)
		}
		outNames = append(outNames, outputName(item))
	}
	if err := checkDistinctNames(outNames); err != nil {
		return nil, nil, err
	}
	pre := &preProjection{input: grouped, fromAttrs: fromAttrs, outNames: outNames}
	return renameOutputs(&plan.Project{Input: grouped, Attrs: fromAttrs}, fromAttrs, outNames), pre, nil
}

// scope is one link of a query block's name-resolution chain: the
// attributes its FROM clause binds, then (outer) the enclosing blocks'
// scopes. A column resolves in the innermost scope that binds it, so a
// subquery's own FROM shadows the outer query's.
type scope struct {
	sch   schema.Schema
	outer *scope
}

// resolve returns the attribute col names and how many scopes out it
// was found (0: sc itself). An unknown column reports sc's error; an
// ambiguous one is an error, not a reference further out.
func (sc *scope) resolve(col *ColumnRef) (string, int, error) {
	var first error
	for s, depth := sc, 0; s != nil; s, depth = s.outer, depth+1 {
		attr, err := resolveColumn(s.sch, col)
		if err == nil || errors.Is(err, errAmbiguous) {
			return attr, depth, err
		}
		if first == nil {
			first = err
		}
	}
	return "", 0, first
}

// toPred converts an EXISTS-free WHERE, ON or HAVING expression,
// resolving columns through sc and aggregate calls through aggs (nil
// outside HAVING).
func (sc *scope) toPred(e Expr, aggs map[string]string) (pred.Predicate, error) {
	switch x := e.(type) {
	case *BoolOp:
		l, err := sc.toPred(x.Left, aggs)
		if err != nil {
			return nil, err
		}
		r, err := sc.toPred(x.Right, aggs)
		if err != nil {
			return nil, err
		}
		if x.Op == "AND" {
			return pred.And{l, r}, nil
		}
		return pred.Or{l, r}, nil
	case *NotExpr:
		inner, err := sc.toPred(x.Inner, aggs)
		if err != nil {
			return nil, err
		}
		return pred.Negate(inner), nil
	case *Comparison:
		l, err := sc.operand(x.Left, aggs)
		if err != nil {
			return nil, err
		}
		r, err := sc.operand(x.Right, aggs)
		if err != nil {
			return nil, err
		}
		op, err := compareOp(x.Op)
		if err != nil {
			return nil, err
		}
		return pred.Compare(l, op, r), nil
	default:
		return nil, fmt.Errorf("sql: unsupported predicate %q", e)
	}
}

func (sc *scope) operand(e Expr, aggs map[string]string) (pred.Operand, error) {
	switch x := e.(type) {
	case *ColumnRef:
		attr, _, err := sc.resolve(x)
		if err != nil {
			return pred.Operand{}, err
		}
		return pred.Attr(attr), nil
	case *Literal:
		return pred.Const(literalValue(x)), nil
	case *BoundArg:
		return pred.Const(x.Val), nil
	case *Placeholder:
		return pred.Operand{}, fmt.Errorf("sql: unbound placeholder ? (bind arguments with SubstituteParams before planning)")
	case *AggCall:
		if name, ok := aggs[x.String()]; ok {
			return pred.Attr(name), nil
		}
		return pred.Operand{}, fmt.Errorf("sql: aggregate %q not allowed here (use HAVING)", x)
	default:
		return pred.Operand{}, fmt.Errorf("sql: unsupported operand %q", e)
	}
}

// bindWhere lowers a WHERE clause over its input n, resolving columns
// through sc. A clause without EXISTS is one Select. Otherwise every
// binding is a subset of n, so the connectives are set operations —
// AND binds its right side over its left side's result, OR is the
// union of both sides over n, NOT the difference from n — and
// [NOT] EXISTS is a semi-join or anti-semi-join (bindExists).
func (db *DB) bindWhere(e Expr, n plan.Node, sc *scope) (plan.Node, error) {
	if !hasExists(e) {
		p, err := sc.toPred(e, nil)
		if err != nil {
			return nil, err
		}
		return &plan.Select{Input: n, Pred: p}, nil
	}
	switch x := e.(type) {
	case *ExistsExpr:
		return db.bindExists(x, n, sc)
	case *NotExpr:
		inner, err := db.bindWhere(x.Inner, n, sc)
		if err != nil {
			return nil, err
		}
		return plan.Diff(n, inner), nil
	default:
		b := x.(*BoolOp) // hasExists descends through nothing else
		l, err := db.bindWhere(b.Left, n, sc)
		if err != nil {
			return nil, err
		}
		if b.Op == "AND" {
			return db.bindWhere(b.Right, l, sc)
		}
		r, err := db.bindWhere(b.Right, n, sc)
		if err != nil {
			return nil, err
		}
		return plan.Union(l, r), nil
	}
}

// hasExists reports whether a boolean expression contains [NOT] EXISTS.
func hasExists(e Expr) bool {
	switch x := e.(type) {
	case *ExistsExpr:
		return true
	case *NotExpr:
		return hasExists(x.Inner)
	case *BoolOp:
		return hasExists(x.Left) || hasExists(x.Right)
	default:
		return false
	}
}

// bindExists decorrelates [NOT] EXISTS (sub) over n into n ⋉ R, or
// n ▷ R when negated: the dependent-join elimination of Neumann &
// Kemper, "Unnesting Arbitrary Queries" (BTW 2015), with the distinct
// outer values as the magic set.
//
//	refs = the attributes of n that sub references, at any depth
//	R    = π_refs(σ_{sub.WHERE}(π_refs(n) × FROM_sub))
//
// R shares exactly refs with n, so the semi-join matches every outer
// tuple with the subquery's rows for its own values; with refs = ∅, R
// has no columns and is non-empty iff the subquery is. The select
// list, DISTINCT, ORDER BY and a positive LIMIT cannot change whether
// the subquery is empty and are ignored; LIMIT 0 empties R.
func (db *DB) bindExists(x *ExistsExpr, n plan.Node, sc *scope) (plan.Node, error) {
	sub := x.Query
	from, err := db.bindFrom(sub.From)
	if err != nil {
		return nil, err
	}
	own := &scope{sch: from.Schema(), outer: sc}
	var keys []string
	if err := db.outerRefs(sub.Where, own, 1, &keys); err != nil {
		return nil, err
	}

	var r plan.Node
	if len(sub.GroupBy) > 0 || sub.Having != nil || len(collectAggs(sub)) > 0 {
		// Grouping is bound whole, where an outer column is unknown: a
		// correlated one is an error. A global aggregate is one row
		// whatever its WHERE keeps.
		body, err := db.bindQuery(sub)
		if err != nil {
			return nil, err
		}
		r = &plan.Project{Input: body}
	} else {
		var m plan.Node = from
		if len(keys) > 0 {
			m = &plan.Product{Left: &plan.Project{Input: n, Attrs: keys}, Right: from}
		}
		if sub.Where != nil {
			if m, err = db.bindWhere(sub.Where, m, own); err != nil {
				return nil, err
			}
		}
		r = &plan.Project{Input: m, Attrs: keys}
		if sub.HasLimit && sub.Limit == 0 {
			r = &plan.Limit{Input: r, N: 0}
		}
	}
	if x.Negated {
		return &plan.AntiSemiJoin{Left: n, Right: r}, nil
	}
	return &plan.SemiJoin{Left: n, Right: r}, nil
}

// outerRefs appends to refs, once each, the attributes e references
// at least local scopes out along its chain sc, in nested subqueries
// too.
func (db *DB) outerRefs(e Expr, sc *scope, local int, refs *[]string) error {
	switch x := e.(type) {
	case *BoolOp:
		if err := db.outerRefs(x.Left, sc, local, refs); err != nil {
			return err
		}
		return db.outerRefs(x.Right, sc, local, refs)
	case *NotExpr:
		return db.outerRefs(x.Inner, sc, local, refs)
	case *Comparison:
		for _, o := range [...]Expr{x.Left, x.Right} {
			if col, ok := o.(*ColumnRef); ok {
				attr, depth, err := sc.resolve(col)
				if err != nil {
					return err
				}
				if depth >= local && !slices.Contains(*refs, attr) {
					*refs = append(*refs, attr)
				}
			}
		}
	case *ExistsExpr:
		from, err := db.bindFrom(x.Query.From)
		if err != nil {
			return err
		}
		return db.outerRefs(x.Query.Where, &scope{sch: from.Schema(), outer: sc}, local+1, refs)
	}
	return nil
}

func compareOp(op string) (pred.Op, error) {
	switch op {
	case "=":
		return pred.Eq, nil
	case "<>":
		return pred.Ne, nil
	case "<":
		return pred.Lt, nil
	case "<=":
		return pred.Le, nil
	case ">":
		return pred.Gt, nil
	case ">=":
		return pred.Ge, nil
	default:
		return 0, fmt.Errorf("sql: unknown operator %q", op)
	}
}

func literalValue(l *Literal) value.Value {
	switch l.Kind {
	case 'i':
		return value.Int(l.Int)
	case 'f':
		return value.Float(l.Float)
	default:
		return value.String(l.Str)
	}
}

// resolveColumn maps a possibly-qualified reference to a qualified
// attribute of the schema: "t.c" matches exactly "t.c"; bare "c"
// matches a unique attribute named "c" or suffixed ".c".
func resolveColumn(sch schema.Schema, col *ColumnRef) (string, error) {
	if col.Table != "" {
		name := col.Table + "." + col.Column
		if sch.Contains(name) {
			return name, nil
		}
		return "", fmt.Errorf("sql: unknown column %q in %v", name, sch)
	}
	var matches []string
	for _, a := range sch.Attrs() {
		if a == col.Column || strings.HasSuffix(a, "."+col.Column) {
			matches = append(matches, a)
		}
	}
	switch len(matches) {
	case 0:
		return "", fmt.Errorf("sql: unknown column %q in %v", col.Column, sch)
	case 1:
		return matches[0], nil
	default:
		return "", fmt.Errorf("%w %q (candidates %v)", errAmbiguous, col.Column, matches)
	}
}

var errAmbiguous = errors.New("sql: ambiguous column")

// outputName picks the result column name of a select item.
func outputName(item SelectItem) string {
	if item.As != "" {
		return item.As
	}
	switch e := item.Expr.(type) {
	case *ColumnRef:
		return e.Column
	case *AggCall:
		return e.Func
	default:
		return "?column?"
	}
}

func checkDistinctNames(names []string) error {
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if seen[n] {
			return fmt.Errorf("sql: duplicate output column %q; use AS to disambiguate", n)
		}
		seen[n] = true
	}
	return nil
}

// renameOutputs renames projected attributes to their output names.
func renameOutputs(node plan.Node, from, to []string) plan.Node {
	out := node
	for i := range from {
		if from[i] != to[i] {
			out = &plan.Rename{Input: out, From: from[i], To: to[i]}
		}
	}
	return out
}

// collectAggs gathers aggregate calls from the select list and
// HAVING clause.
func collectAggs(q *Query) []*AggCall {
	var out []*AggCall
	for _, item := range q.Select {
		if call, ok := item.Expr.(*AggCall); ok {
			out = append(out, call)
		}
	}
	out = append(out, aggsInExpr(q.Having)...)
	return out
}

func aggsInExpr(e Expr) []*AggCall {
	switch x := e.(type) {
	case nil:
		return nil
	case *AggCall:
		return []*AggCall{x}
	case *BoolOp:
		return append(aggsInExpr(x.Left), aggsInExpr(x.Right)...)
	case *NotExpr:
		return aggsInExpr(x.Inner)
	case *Comparison:
		return append(aggsInExpr(x.Left), aggsInExpr(x.Right)...)
	default:
		return nil
	}
}

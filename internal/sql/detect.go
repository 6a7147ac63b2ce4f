package sql

import (
	"fmt"

	"divlaws/internal/plan"
)

// DetectDivision recognizes the universal-quantification idioms of
// the paper's §4 — doubly nested NOT EXISTS subqueries — and
// rewrites them to division plans. The section remarks that "it is
// not simple to devise a query-rewriting algorithm for a query
// optimizer that is able to detect those existential quantification
// constructs that can be replaced by a (great) divide operator.
// Only if the appropriate joins between inner and outer query are
// present does the query solve a real set containment problem."
// This function is that algorithm, for two canonical patterns.
//
// Great-divide pattern (the paper's Q3):
//
//	SELECT DISTINCT <A ∪ C columns>
//	FROM t1 AS x, t2 AS y
//	WHERE NOT EXISTS (
//	    SELECT * FROM t2 AS y2
//	    WHERE y2.C = y.C [AND …]          -- group correlation
//	      AND NOT EXISTS (
//	        SELECT * FROM t1 AS x2
//	        WHERE x2.B = y2.B [AND …]     -- element join
//	          AND x2.A = x.A [AND …]))    -- candidate correlation
//
// rewrites to t1 ÷* t2 when the A/B columns cover all of t1 and the
// B/C columns cover all of t2 (otherwise the NOT EXISTS groups
// differently than division would, and the detector declines).
//
// Small-divide pattern (the paper's Q2 expressed with NOT EXISTS,
// e.g. "suppliers that supply all blue parts"):
//
//	SELECT DISTINCT <A columns>
//	FROM t1 AS x
//	WHERE NOT EXISTS (
//	    SELECT * FROM t2 AS y
//	    WHERE <restrictions on y only>
//	      AND NOT EXISTS (
//	        SELECT * FROM t1 AS x2
//	        WHERE x2.B = y.B [AND …]
//	          AND x2.A = x.A [AND …]))
//
// rewrites to t1 ÷ πB(σ<restrictions>(t2)).
//
// The detector is deliberately conservative: every predicate in the
// chain must have exactly the shapes above; inequalities between
// tables, disjunctions, extra tables, or partial column coverage
// cause it to decline rather than risk a wrong rewrite.
func (db *DB) DetectDivision(q *Query) (plan.Node, bool) {
	db = db.snapshot()
	node, err := db.tryDetectDivision(q)
	if err != nil || node == nil {
		return nil, false
	}
	// Preserve the outer query's ORDER BY and LIMIT on the detected
	// plan, exactly as bindQuery layers them on the anti-semi-join
	// fallback: Sort below, Limit above (fused to TopK by the
	// optimizer). A sort column outside the quotient schema — or a
	// negative limit — declines the rewrite so the fallback path
	// reports its usual behavior.
	if q.HasLimit && q.Limit < 0 {
		return nil, false
	}
	if len(q.OrderBy) > 0 {
		// The detected quotient plan has no SELECT-list projection to
		// widen, so sort columns must live in the quotient schema (nil
		// pre-projection).
		sorted, err := db.bindOrderBy(q, node, nil)
		if err != nil {
			return nil, false
		}
		node = sorted
	}
	if q.HasLimit {
		node = &plan.Limit{Input: node, N: q.Limit}
	}
	return node, true
}

// errNoMatch distinguishes "pattern absent" from binder errors.
var errNoMatch = fmt.Errorf("sql: not a division pattern")

func (db *DB) tryDetectDivision(q *Query) (plan.Node, error) {
	if q.Where == nil || q.GroupBy != nil || q.Having != nil {
		return nil, errNoMatch
	}
	switch len(q.From) {
	case 1:
		return db.detectSmall(q)
	case 2:
		return db.detectGreat(q)
	default:
		return nil, errNoMatch
	}
}

// detectGreat handles the two-table (Q3) pattern.
func (db *DB) detectGreat(q *Query) (plan.Node, error) {
	dividendTbl, ok1 := q.From[0].(*BaseTable)
	divisorTbl, ok2 := q.From[1].(*BaseTable)
	if !ok1 || !ok2 {
		return nil, errNoMatch
	}
	midTable, midConjuncts, innerTable, innerConjuncts, err :=
		unpackNestedNotExists(q.Where, divisorTbl.Name, dividendTbl.Name)
	if err != nil {
		return nil, err
	}

	// Middle conjuncts: every one must be y2.c = y.c.
	cCols := map[string]bool{}
	for _, e := range midConjuncts {
		l, r, ok := equality(e)
		if !ok {
			return nil, errNoMatch
		}
		col, ok := selfJoinColumn(l, r, midTable.Alias, divisorTbl.Alias)
		if !ok {
			return nil, errNoMatch
		}
		cCols[col] = true
	}
	if len(cCols) == 0 {
		return nil, errNoMatch
	}

	bPairs, aCols, err := classifyInner(innerConjuncts, innerTable.Alias, midTable.Alias, dividendTbl.Alias)
	if err != nil {
		return nil, err
	}

	// Coverage: A ∪ B must be all of t1's columns, B ∪ C all of t2's.
	for _, p := range bPairs {
		aCols[p[0]] = true
		cCols[p[1]] = true
	}
	if !db.covers(dividendTbl.Name, aCols) || !db.covers(divisorTbl.Name, cCols) {
		return nil, errNoMatch
	}

	// Build t1 ÷* t2 with divisor B columns renamed to t1's names.
	dividend, err := db.bindTableRef(dividendTbl)
	if err != nil {
		return nil, err
	}
	divisor, err := db.bindTableRef(divisorTbl)
	if err != nil {
		return nil, err
	}
	div := &plan.GreatDivide{Dividend: dividend, Divisor: renamePairs(divisor, bPairs, divisorTbl.Alias, dividendTbl.Alias)}
	return db.projectDetected(q, div)
}

// detectSmall handles the one-table pattern with a restricted
// divisor.
func (db *DB) detectSmall(q *Query) (plan.Node, error) {
	dividendTbl, ok := q.From[0].(*BaseTable)
	if !ok {
		return nil, errNoMatch
	}
	midTable, midConjuncts, innerTable, innerConjuncts, err :=
		unpackNestedNotExists(q.Where, "", dividendTbl.Name)
	if err != nil {
		return nil, err
	}

	// Middle conjuncts must be restrictions on the divisor alone: no
	// references to any other alias.
	for _, e := range midConjuncts {
		if !restrictionOn(e, midTable.Alias) {
			return nil, errNoMatch
		}
	}

	bPairs, aCols, err := classifyInner(innerConjuncts, innerTable.Alias, midTable.Alias, dividendTbl.Alias)
	if err != nil {
		return nil, err
	}

	// Coverage: A ∪ B = all of t1's columns.
	for _, p := range bPairs {
		aCols[p[0]] = true
	}
	if !db.covers(dividendTbl.Name, aCols) {
		return nil, errNoMatch
	}

	// Build t1 ÷ πB(σ<restrictions>(t2)).
	dividend, err := db.bindTableRef(dividendTbl)
	if err != nil {
		return nil, err
	}
	divisor, err := db.bindTableRef(midTable)
	if err != nil {
		return nil, err
	}
	var divisorNode plan.Node = divisor
	if len(midConjuncts) > 0 {
		p, err := (&scope{sch: divisor.Schema()}).toPred(andAll(midConjuncts), nil)
		if err != nil {
			return nil, errNoMatch
		}
		divisorNode = &plan.Select{Input: divisorNode, Pred: p}
	}
	bAttrs := make([]string, len(bPairs))
	for i, p := range bPairs {
		bAttrs[i] = midTable.Alias + "." + p[1]
	}
	divisorNode = &plan.Project{Input: divisorNode, Attrs: bAttrs}
	div := &plan.Divide{Dividend: dividend, Divisor: renamePairs(divisorNode, bPairs, midTable.Alias, dividendTbl.Alias)}
	return db.projectDetected(q, div)
}

// covers reports whether cols names every column of the table.
func (db *DB) covers(table string, cols map[string]bool) bool {
	rel, ok := db.catalog[table]
	if !ok {
		return false
	}
	for _, c := range rel.Schema().Attrs() {
		if !cols[c] {
			return false
		}
	}
	return true
}

// renamePairs renames each divisor column divisorAlias.p[1] of the
// element pairs to its dividend name dividendAlias.p[0], so the
// division sees one shared attribute set B.
func renamePairs(divisor plan.Node, pairs [][2]string, divisorAlias, dividendAlias string) plan.Node {
	for _, p := range pairs {
		if from, to := divisorAlias+"."+p[1], dividendAlias+"."+p[0]; from != to {
			divisor = &plan.Rename{Input: divisor, From: from, To: to}
		}
	}
	return divisor
}

// unpackNestedNotExists validates the two-level NOT EXISTS chain of
// a WHERE clause — a middle block over wantMidTable (any table when
// empty) around a block over wantInnerTable — and returns each block's
// table and plain conjuncts. A LIMIT inside either block changes which
// subquery results exist at all, so the equivalence to division
// breaks: the detector declines and the anti-semi-join plan runs.
func unpackNestedNotExists(where Expr, wantMidTable, wantInnerTable string) (
	midTable *BaseTable, midConjuncts []Expr, innerTable *BaseTable, innerConjuncts []Expr, err error,
) {
	outer, ok := where.(*ExistsExpr)
	if !ok || !outer.Negated {
		return nil, nil, nil, nil, errNoMatch
	}
	mid := outer.Query
	if len(mid.From) != 1 || mid.Where == nil || mid.HasLimit {
		return nil, nil, nil, nil, errNoMatch
	}
	midTable, ok = mid.From[0].(*BaseTable)
	if !ok || (wantMidTable != "" && midTable.Name != wantMidTable) {
		return nil, nil, nil, nil, errNoMatch
	}
	midConjuncts, innerNE := splitExistsConjunction(mid.Where)
	if midConjuncts == nil || innerNE == nil || !innerNE.Negated {
		return nil, nil, nil, nil, errNoMatch
	}
	inner := innerNE.Query
	if len(inner.From) != 1 || inner.Where == nil || inner.HasLimit {
		return nil, nil, nil, nil, errNoMatch
	}
	innerTable, ok = inner.From[0].(*BaseTable)
	if !ok || innerTable.Name != wantInnerTable {
		return nil, nil, nil, nil, errNoMatch
	}
	innerConjuncts, stray := splitExistsConjunction(inner.Where)
	if innerConjuncts == nil || stray != nil {
		return nil, nil, nil, nil, errNoMatch
	}
	return midTable, midConjuncts, innerTable, innerConjuncts, nil
}

// classifyInner splits the innermost conjuncts into element joins
// (x2.b = y2.b) and candidate correlations (x2.a = x.a).
func classifyInner(conjuncts []Expr, innerAlias, midAlias, outerAlias string) (
	bPairs [][2]string, aCols map[string]bool, err error,
) {
	aCols = map[string]bool{}
	for _, e := range conjuncts {
		l, r, ok := equality(e)
		if !ok {
			return nil, nil, errNoMatch
		}
		if col, pairOK := joinPair(l, r, innerAlias, midAlias); pairOK {
			bPairs = append(bPairs, col)
			continue
		}
		if col, selfOK := selfJoinColumn(l, r, innerAlias, outerAlias); selfOK {
			aCols[col] = true
			continue
		}
		return nil, nil, errNoMatch
	}
	if len(bPairs) == 0 || len(aCols) == 0 {
		return nil, nil, errNoMatch
	}
	return bPairs, aCols, nil
}

// selfJoinColumn matches l = r as alias1.c = alias2.c (either
// order) and returns c.
func selfJoinColumn(l, r *ColumnRef, alias1, alias2 string) (string, bool) {
	if l.Table == alias1 && r.Table == alias2 && l.Column == r.Column {
		return l.Column, true
	}
	if r.Table == alias1 && l.Table == alias2 && l.Column == r.Column {
		return l.Column, true
	}
	return "", false
}

// joinPair matches l = r between two aliases (either order) and
// returns (left-alias column, right-alias column).
func joinPair(l, r *ColumnRef, alias1, alias2 string) ([2]string, bool) {
	if l.Table == alias1 && r.Table == alias2 {
		return [2]string{l.Column, r.Column}, true
	}
	if r.Table == alias1 && l.Table == alias2 {
		return [2]string{r.Column, l.Column}, true
	}
	return [2]string{}, false
}

// restrictionOn reports whether the expression references only the
// given alias (qualified or unqualified columns plus constants: a
// literal, or a placeholder SubstituteParams has bound).
func restrictionOn(e Expr, alias string) bool {
	switch x := e.(type) {
	case *Comparison:
		return operandLocal(x.Left, alias) && operandLocal(x.Right, alias)
	case *BoolOp:
		return restrictionOn(x.Left, alias) && restrictionOn(x.Right, alias)
	case *NotExpr:
		return restrictionOn(x.Inner, alias)
	default:
		return false
	}
}

func operandLocal(e Expr, alias string) bool {
	switch x := e.(type) {
	case *ColumnRef:
		return x.Table == "" || x.Table == alias
	case *Literal, *BoundArg:
		return true
	default:
		return false
	}
}

// andAll folds conjuncts into one expression.
func andAll(es []Expr) Expr {
	out := es[0]
	for _, e := range es[1:] {
		out = &BoolOp{Op: "AND", Left: out, Right: e}
	}
	return out
}

// projectDetected applies q's select list on the division plan. A
// select item outside the quotient schema A ∪ C rejects the rewrite
// (e.g. selecting the dividend's element column, whose multiplicity
// the division does not preserve).
func (db *DB) projectDetected(q *Query, div plan.Node) (plan.Node, error) {
	if q.Star {
		return div, nil
	}
	sch := div.Schema()
	var fromAttrs, outNames []string
	for _, item := range q.Select {
		col, ok := item.Expr.(*ColumnRef)
		if !ok {
			return nil, errNoMatch
		}
		attr, err := resolveColumn(sch, col)
		if err != nil {
			return nil, errNoMatch
		}
		fromAttrs = append(fromAttrs, attr)
		outNames = append(outNames, outputName(item))
	}
	if err := checkDistinctNames(outNames); err != nil {
		return nil, err
	}
	return renameOutputs(&plan.Project{Input: div, Attrs: fromAttrs}, fromAttrs, outNames), nil
}

// splitExistsConjunction flattens an AND tree, separating at most
// one [NOT] EXISTS subterm from plain comparisons. It returns
// (nil, nil) on unsupported shapes (OR, NOT, two EXISTS); an empty
// non-nil comparisons slice means "no plain comparisons".
func splitExistsConjunction(e Expr) (comparisons []Expr, exists *ExistsExpr) {
	switch x := e.(type) {
	case *BoolOp:
		if x.Op != "AND" {
			return nil, nil
		}
		lc, le := splitExistsConjunction(x.Left)
		if lc == nil && le == nil {
			return nil, nil
		}
		rc, re := splitExistsConjunction(x.Right)
		if rc == nil && re == nil {
			return nil, nil
		}
		if le != nil && re != nil {
			return nil, nil
		}
		out := make([]Expr, 0, len(lc)+len(rc))
		out = append(out, lc...)
		out = append(out, rc...)
		if le != nil {
			return out, le
		}
		return out, re
	case *ExistsExpr:
		return []Expr{}, x
	case *Comparison:
		return []Expr{x}, nil
	default:
		return nil, nil
	}
}

// equality extracts the two column references of a pure
// column-equals-column comparison.
func equality(e Expr) (l, r *ColumnRef, ok bool) {
	cmp, isCmp := e.(*Comparison)
	if !isCmp || cmp.Op != "=" {
		return nil, nil, false
	}
	l, lok := cmp.Left.(*ColumnRef)
	r, rok := cmp.Right.(*ColumnRef)
	if !lok || !rok || l.Table == "" || r.Table == "" {
		return nil, nil, false
	}
	return l, r, true
}

// PlanWithDetection parses and binds a query, first attempting the
// division-pattern detection; on a match the returned plan contains
// a first-class divide instead of anti-semi-joins.
func (db *DB) PlanWithDetection(text string) (plan.Node, bool, error) {
	q, err := Parse(text)
	if err != nil {
		return nil, false, err
	}
	return db.PlanQueryWithDetection(q)
}

// PlanQueryWithDetection is PlanWithDetection over an already-parsed
// (and, for prepared statements, parameter-substituted) query.
func (db *DB) PlanQueryWithDetection(q *Query) (plan.Node, bool, error) {
	db = db.snapshot() // detection and the fallback bind see one catalog
	if node, ok := db.DetectDivision(q); ok {
		return node, true, nil
	}
	node, err := db.bindQuery(q)
	return node, false, err
}

package divlaws

import (
	"context"
	"fmt"
	"sync/atomic"

	"divlaws/internal/sql"
)

// Stmt is a prepared statement: the SQL text is parsed once, and
// each Query call resolves the positional ? placeholders against its
// arguments at bind time — the parsed AST is never mutated, so a
// Stmt is safe for concurrent use, including a Close racing Query.
//
// Because binding happens per call, each execution re-plans against
// the catalog's current contents: a table re-registered between two
// Query calls is picked up, exactly as with DB.Query. There is
// deliberately no cached plan to invalidate: a table reference binds
// as a zero-copy view, so bind plus optimize is well under 2% of a
// prepared division (README, "PR 13 measured effect").
type Stmt struct {
	db    *DB
	text  string
	query atomic.Pointer[sql.Query]
}

// NumInput returns the number of ? placeholders in the statement,
// or 0 after Close.
func (s *Stmt) NumInput() int {
	q := s.query.Load()
	if q == nil {
		return 0
	}
	return q.Params
}

// Text returns the statement's SQL text.
func (s *Stmt) Text() string { return s.text }

// Query binds args to the statement's placeholders, plans, and
// starts execution, returning a streaming cursor; see DB.Query for
// the execution and cancellation contract.
func (s *Stmt) Query(ctx context.Context, args ...any) (*Rows, error) {
	q := s.query.Load()
	if q == nil {
		return nil, fmt.Errorf("divlaws: Query on closed statement")
	}
	return s.db.queryParsed(ctx, q, args)
}

// Close releases the statement. Further Query calls error; Close is
// idempotent.
func (s *Stmt) Close() error {
	s.query.Store(nil)
	return nil
}

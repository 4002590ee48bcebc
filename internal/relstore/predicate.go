package relstore

import (
	"bytes"
	"time"
)

// Predicate filters rows in Select/Count/Delete queries. A nil Predicate
// matches every row.
type Predicate interface {
	// Match reports whether the row satisfies the predicate.
	Match(Row) bool
	// indexHint optionally exposes a single equality constraint the engine
	// can satisfy with a hash index: column name and value.
	indexHint() (string, any, bool)
}

// eq is an equality predicate.
type eq struct {
	col string
	val any
}

func (p eq) Match(r Row) bool               { return valuesEqual(r[p.col], p.val) }
func (p eq) indexHint() (string, any, bool) { return p.col, p.val, true }

// Eq matches rows whose column equals val.
func Eq(col string, val any) Predicate { return eq{col, val} }

func valuesEqual(a, b any) bool {
	if ta, ok := a.(time.Time); ok {
		tb, ok := b.(time.Time)
		return ok && ta.Equal(tb)
	}
	if ba, ok := a.([]byte); ok {
		bb, ok := b.([]byte)
		return ok && bytes.Equal(ba, bb)
	}
	return a == b
}

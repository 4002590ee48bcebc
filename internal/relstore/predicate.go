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

// fn is an arbitrary-function predicate (no index support).
type fn struct{ f func(Row) bool }

func (p fn) Match(r Row) bool               { return p.f(r) }
func (p fn) indexHint() (string, any, bool) { return "", nil, false }

// Where wraps an arbitrary row-matching function as a Predicate.
func Where(f func(Row) bool) Predicate { return fn{f} }

// and is a conjunction; it forwards the first child's index hint.
type and struct{ ps []Predicate }

func (p and) Match(r Row) bool {
	for _, c := range p.ps {
		if !c.Match(r) {
			return false
		}
	}
	return true
}

func (p and) indexHint() (string, any, bool) {
	for _, c := range p.ps {
		if col, v, ok := c.indexHint(); ok {
			return col, v, true
		}
	}
	return "", nil, false
}

// And matches rows satisfying all child predicates; an indexable equality
// among the children is used as the scan hint.
func And(ps ...Predicate) Predicate { return and{ps} }

// After matches rows whose Time column is strictly after v.
func After(col string, v time.Time) Predicate {
	return Where(func(r Row) bool {
		t, ok := r[col].(time.Time)
		return ok && t.After(v)
	})
}

// Before matches rows whose Time column is strictly before v.
func Before(col string, v time.Time) Predicate {
	return Where(func(r Row) bool {
		t, ok := r[col].(time.Time)
		return ok && t.Before(v)
	})
}

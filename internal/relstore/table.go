package relstore

import (
	"fmt"
	"slices"
	"time"
)

// table is the in-memory representation of one relation.
type table struct {
	schema  Schema
	cols    map[string]Column
	rows    map[int64]Row
	indexes map[string]map[any][]int64 // column -> value -> row ids
	nextID  int64
}

func newTable(s Schema) *table {
	t := &table{
		schema:  s,
		cols:    make(map[string]Column, len(s.Columns)),
		rows:    make(map[int64]Row),
		indexes: make(map[string]map[any][]int64),
		nextID:  1,
	}
	for _, c := range s.Columns {
		t.cols[c.Name] = c
		if c.Indexed {
			t.indexes[c.Name] = make(map[any][]int64)
		}
	}
	return t
}

// indexHintOf safely extracts an index hint from a possibly-nil predicate.
func indexHintOf(p Predicate) (string, any, bool) {
	if p == nil {
		return "", nil, false
	}
	return p.indexHint()
}

// indexKey converts a value into a comparable map key for hash indexes.
// time.Time is normalized to UnixNano; []byte to string.
func indexKey(v any) any {
	switch x := v.(type) {
	case time.Time:
		return x.UnixNano()
	case []byte:
		return string(x)
	default:
		return x
	}
}

func (t *table) checkRow(r Row, partial bool) error {
	for name, v := range r {
		if name == "id" {
			return fmt.Errorf("relstore: cannot set id column explicitly")
		}
		c, ok := t.cols[name]
		if !ok {
			return fmt.Errorf("relstore: table %q has no column %q", t.schema.Name, name)
		}
		if err := checkValue(c.Type, c.Nullable, v); err != nil {
			return fmt.Errorf("relstore: table %q column %q: %w", t.schema.Name, name, err)
		}
	}
	if !partial {
		for _, c := range t.schema.Columns {
			if _, present := r[c.Name]; !present && !c.Nullable {
				return fmt.Errorf("relstore: table %q missing non-nullable column %q", t.schema.Name, c.Name)
			}
		}
	}
	return nil
}

func (t *table) addToIndexes(id int64, r Row) {
	for col, idx := range t.indexes {
		v, ok := r[col]
		if !ok || v == nil {
			continue
		}
		k := indexKey(v)
		idx[k] = append(idx[k], id)
	}
}

func (t *table) removeFromIndexes(id int64, r Row) {
	for col, idx := range t.indexes {
		v, ok := r[col]
		if !ok || v == nil {
			continue
		}
		k := indexKey(v)
		ids := idx[k]
		for i, x := range ids {
			if x == id {
				idx[k] = append(ids[:i], ids[i+1:]...)
				break
			}
		}
		if len(idx[k]) == 0 {
			delete(idx, k)
		}
	}
}

// insert adds the row (without id) and returns the id it assigned.
func (t *table) insert(r Row) (int64, error) {
	if err := t.checkRow(r, false); err != nil {
		return 0, err
	}
	id := t.nextID
	t.nextID++
	stored := r.clone()
	stored["id"] = id
	t.rows[id] = stored
	t.addToIndexes(id, stored)
	return id, nil
}

func (t *table) get(id int64) (Row, bool) {
	r, ok := t.rows[id]
	if !ok {
		return nil, false
	}
	return r.clone(), true
}

func (t *table) update(id int64, changes Row) error {
	old, ok := t.rows[id]
	if !ok {
		return fmt.Errorf("relstore: table %q has no row %d", t.schema.Name, id)
	}
	if err := t.checkRow(changes, true); err != nil {
		return err
	}
	t.removeFromIndexes(id, old)
	for k, v := range changes {
		old[k] = v
	}
	t.addToIndexes(id, old)
	return nil
}

func (t *table) delete(id int64) error {
	old, ok := t.rows[id]
	if !ok {
		return fmt.Errorf("relstore: table %q has no row %d", t.schema.Name, id)
	}
	t.removeFromIndexes(id, old)
	delete(t.rows, id)
	return nil
}

// selectRows evaluates the predicate over the table, using an index when the
// predicate declares an equality hint on an indexed column: only the rows the
// index holds for the value are visited, none when it holds none. (A nil value
// is never indexed, so an equality with nil scans.) Results are sorted by id.
func (t *table) selectRows(p Predicate, limit int) []Row {
	var ids []int64
	hintCol, hintVal, hinted := indexHintOf(p)
	if idx, indexed := t.indexes[hintCol]; hinted && indexed && hintVal != nil {
		ids = append(ids, idx[indexKey(hintVal)]...)
	} else {
		ids = make([]int64, 0, len(t.rows))
		for id := range t.rows {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	var out []Row
	for _, id := range ids {
		r := t.rows[id]
		if p == nil || p.Match(r) {
			out = append(out, r.clone())
			if limit > 0 && len(out) >= limit {
				break
			}
		}
	}
	return out
}

func (t *table) count(p Predicate) int {
	if p == nil {
		return len(t.rows)
	}
	n := 0
	for _, r := range t.rows {
		if p.Match(r) {
			n++
		}
	}
	return n
}

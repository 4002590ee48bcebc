package relstore

import (
	"fmt"
	"time"
)

// table is the in-memory representation of one relation.
//
// Nothing reads a row back, yet insert still checks the row, clones it and
// files it in the indexes, as it did when the DC and the OOSM queried their
// tables: the benchmark's relstore.insert_us probe then goes on timing the
// same work until the package and the probe are deleted together.
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

// indexKey converts a value into a comparable map key for hash indexes.
// time.Time is normalized to UnixNano.
func indexKey(v any) any {
	if x, ok := v.(time.Time); ok {
		return x.UnixNano()
	}
	return v
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
		if err := checkValue(c.Type, v); err != nil {
			return fmt.Errorf("relstore: table %q column %q: %w", t.schema.Name, name, err)
		}
	}
	if !partial {
		for _, c := range t.schema.Columns {
			if _, present := r[c.Name]; !present {
				return fmt.Errorf("relstore: table %q missing column %q", t.schema.Name, c.Name)
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

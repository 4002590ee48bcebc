// Package relstore is a small in-memory relational engine: typed tables
// with secondary indexes, into which rows are inserted. It keeps nothing on
// disk and answers no query.
//
// The paper's Data Concentrator is "an open architecture ODBC compliant
// relational database" (§5.8), and the OOSM persists objects by mapping
// "object types to tables and properties and relationships to columns and
// helper tables" (§4.6). Here the DC keeps its condition reports in a ring
// and a log of its own (internal/dc), the OOSM keeps its objects in that
// table shape itself (internal/oosm), and the PDME's journal is its durable
// store (internal/pdme). No product path uses this package. The benchmark
// harness still calls it: its relstore.insert_us probe, and the *DB it hands
// dc.New and oosm.NewModel, which ignore it. The package and those
// parameters go when the harness stops naming them.
package relstore

import (
	"fmt"
	"time"
)

// ColumnType enumerates the value types a column can hold.
type ColumnType int

const (
	// Float is a float64 column.
	Float ColumnType = iota
	// String is a UTF-8 text column.
	String
	// Time is a time.Time column.
	Time
)

// String returns the SQL-ish name of the column type.
func (c ColumnType) String() string {
	switch c {
	case Float:
		return "REAL"
	case String:
		return "TEXT"
	case Time:
		return "TIMESTAMP"
	default:
		return "UNKNOWN"
	}
}

// Column declares one column of a table schema.
type Column struct {
	// Name is the column name, unique within the table.
	Name string
	// Type is the value type enforced on writes.
	Type ColumnType
	// Indexed builds a hash index over the column.
	Indexed bool
}

// Schema declares a table: its name and columns. Every table additionally
// has an implicit auto-assigned "id" INTEGER primary key.
type Schema struct {
	Name    string
	Columns []Column
}

// validate checks schema well-formedness.
func (s Schema) validate() error {
	if s.Name == "" {
		return fmt.Errorf("relstore: empty table name")
	}
	if len(s.Columns) == 0 {
		return fmt.Errorf("relstore: table %q has no columns", s.Name)
	}
	seen := map[string]bool{"id": true}
	for _, c := range s.Columns {
		if c.Name == "" {
			return fmt.Errorf("relstore: table %q has an unnamed column", s.Name)
		}
		if seen[c.Name] {
			return fmt.Errorf("relstore: table %q duplicate column %q", s.Name, c.Name)
		}
		seen[c.Name] = true
		switch c.Type {
		case Float, String, Time:
		default:
			return fmt.Errorf("relstore: table %q column %q has unknown type", s.Name, c.Name)
		}
	}
	return nil
}

// checkValue verifies that v is assignable to a column of type t.
func checkValue(t ColumnType, v any) error {
	if v == nil {
		return fmt.Errorf("relstore: nil value")
	}
	ok := false
	switch t {
	case Float:
		_, ok = v.(float64)
	case String:
		_, ok = v.(string)
	case Time:
		_, ok = v.(time.Time)
	}
	if !ok {
		return fmt.Errorf("relstore: value %T not assignable to %s column", v, t)
	}
	return nil
}

// Row is a map from column name to value.
type Row map[string]any

// clone returns a shallow copy of the row (its values are immutable).
func (r Row) clone() Row {
	out := make(Row, len(r))
	for k, v := range r {
		out[k] = v
	}
	return out
}

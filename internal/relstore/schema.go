// Package relstore is a small in-memory relational engine: typed tables,
// secondary indexes and equality queries. It keeps nothing on disk.
//
// The paper's Data Concentrator is "an open architecture ODBC compliant
// relational database designed to store all of the instrumentation
// configuration information, machinery configuration information, test
// schedules, resultant measurements, diagnostic results, and condition
// reports" (§5.8), and the OOSM persists objects by mapping "object types
// to tables and properties and relationships to columns and helper tables"
// (§4.6). Here the DC keeps its condition reports in it (its measurements
// live in internal/historian, and the DC logs the reports to its own file);
// it substitutes for the commercial database of the original system. The
// OOSM keeps its objects in that table shape itself (internal/oosm).
package relstore

import (
	"fmt"
	"time"
)

// ColumnType enumerates the value types a column can hold.
type ColumnType int

const (
	// Int is a 64-bit signed integer column.
	Int ColumnType = iota
	// Float is a float64 column.
	Float
	// String is a UTF-8 text column.
	String
	// Bool is a boolean column.
	Bool
	// Time is a time.Time column.
	Time
	// Bytes is a raw byte-slice column.
	Bytes
)

// String returns the SQL-ish name of the column type.
func (c ColumnType) String() string {
	switch c {
	case Int:
		return "INTEGER"
	case Float:
		return "REAL"
	case String:
		return "TEXT"
	case Bool:
		return "BOOLEAN"
	case Time:
		return "TIMESTAMP"
	case Bytes:
		return "BLOB"
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
	// Nullable permits nil values when true.
	Nullable bool
	// Indexed builds a hash index over the column for fast equality lookups.
	Indexed bool
}

// Schema declares a table: its name and columns. Every table additionally
// has an implicit auto-assigned "id" INTEGER primary key.
type Schema struct {
	Name    string
	Columns []Column
}

// Validate checks schema well-formedness.
func (s Schema) Validate() error {
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
		case Int, Float, String, Bool, Time, Bytes:
		default:
			return fmt.Errorf("relstore: table %q column %q has unknown type", s.Name, c.Name)
		}
	}
	return nil
}

// checkValue verifies that v is assignable to a column of type t.
func checkValue(t ColumnType, nullable bool, v any) error {
	if v == nil {
		if !nullable {
			return fmt.Errorf("relstore: nil value in non-nullable column")
		}
		return nil
	}
	ok := false
	switch t {
	case Int:
		_, ok = v.(int64)
	case Float:
		_, ok = v.(float64)
	case String:
		_, ok = v.(string)
	case Bool:
		_, ok = v.(bool)
	case Time:
		_, ok = v.(time.Time)
	case Bytes:
		_, ok = v.([]byte)
	}
	if !ok {
		return fmt.Errorf("relstore: value %T not assignable to %s column", v, t)
	}
	return nil
}

// Row is a map from column name to value. The engine owns rows it returns;
// callers must not mutate them (use Update).
type Row map[string]any

// ID returns the row's primary key.
func (r Row) ID() int64 {
	id, _ := r["id"].(int64)
	return id
}

// clone returns a shallow copy of the row (values are immutable types except
// Bytes, which callers must treat as read-only).
func (r Row) clone() Row {
	out := make(Row, len(r))
	for k, v := range r {
		out[k] = v
	}
	return out
}

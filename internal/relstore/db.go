package relstore

import (
	"fmt"
	"sort"
	"sync"
)

// DB is an in-memory relational database: a set of typed tables guarded by
// a single RW mutex. It keeps nothing on disk; an owner that needs its rows
// to outlive the process logs them itself (the DC's report log). The zero
// value is not usable; construct with NewMemory.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*table
	closed bool
}

// NewMemory returns an empty database.
func NewMemory() *DB {
	return &DB{tables: make(map[string]*table)}
}

// writable returns the table a write goes to, refusing every write after
// Close. Callers hold mu for writing.
func (db *DB) writable(name string) (*table, error) {
	if db.closed {
		return nil, fmt.Errorf("relstore: database closed")
	}
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("relstore: no table %q", name)
	}
	return t, nil
}

// CreateTable creates a table from the schema. It fails if the table exists.
func (db *DB) CreateTable(s Schema) error {
	if err := s.Validate(); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return fmt.Errorf("relstore: database closed")
	}
	if _, exists := db.tables[s.Name]; exists {
		return fmt.Errorf("relstore: table %q already exists", s.Name)
	}
	db.tables[s.Name] = newTable(s)
	return nil
}

// EnsureTable creates the table if it does not already exist. If it exists,
// the existing schema is kept (no migration support).
func (db *DB) EnsureTable(s Schema) error {
	db.mu.RLock()
	_, exists := db.tables[s.Name]
	db.mu.RUnlock()
	if exists {
		return nil
	}
	err := db.CreateTable(s)
	if err != nil && db.HasTable(s.Name) {
		return nil // lost a benign race with another creator
	}
	return err
}

// HasTable reports whether a table exists.
func (db *DB) HasTable(name string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, ok := db.tables[name]
	return ok
}

// TableNames returns the table names in sorted order.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TableSchema returns the schema of a table.
func (db *DB) TableSchema(name string) (Schema, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	if !ok {
		return Schema{}, fmt.Errorf("relstore: no table %q", name)
	}
	return t.schema, nil
}

// Insert adds a copy of the row and returns its assigned id.
func (db *DB) Insert(tableName string, r Row) (int64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, err := db.writable(tableName)
	if err != nil {
		return 0, err
	}
	return t.insert(r)
}

// Get returns a copy of the row with the given id, the caller's to keep.
func (db *DB) Get(tableName string, id int64) (Row, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[tableName]
	if !ok {
		return nil, fmt.Errorf("relstore: no table %q", tableName)
	}
	r, ok := t.get(id)
	if !ok {
		return nil, fmt.Errorf("relstore: table %q has no row %d", tableName, id)
	}
	return r, nil
}

// Update applies the non-id column changes to the row with the given id. It
// reads changes and keeps no reference to the map.
func (db *DB) Update(tableName string, id int64, changes Row) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, err := db.writable(tableName)
	if err != nil {
		return err
	}
	return t.update(id, changes)
}

// Delete removes the row with the given id.
func (db *DB) Delete(tableName string, id int64) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, err := db.writable(tableName)
	if err != nil {
		return err
	}
	return t.delete(id)
}

// Select returns rows matching the predicate, sorted by id, at most limit of
// them (limit <= 0 means unlimited). A nil predicate matches all rows.
func (db *DB) Select(tableName string, p Predicate, limit int) ([]Row, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[tableName]
	if !ok {
		return nil, fmt.Errorf("relstore: no table %q", tableName)
	}
	return t.selectRows(p, limit), nil
}

// Count returns the number of rows matching the predicate.
func (db *DB) Count(tableName string, p Predicate) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[tableName]
	if !ok {
		return 0, fmt.Errorf("relstore: no table %q", tableName)
	}
	return t.count(p), nil
}

// Close ends the database's writable life: every later write is refused.
// Reads still see the rows it held.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.closed = true
	return nil
}

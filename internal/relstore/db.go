package relstore

import (
	"fmt"
	"sync"
)

// DB is an in-memory relational database: a set of typed tables guarded by
// a single mutex. It keeps nothing on disk, and rows go in but are never
// read back. The zero value is not usable; construct with NewMemory.
type DB struct {
	mu     sync.Mutex
	tables map[string]*table
	closed bool
}

// NewMemory returns an empty database.
func NewMemory() *DB {
	return &DB{tables: make(map[string]*table)}
}

// CreateTable creates a table from the schema. It fails if the table exists.
func (db *DB) CreateTable(s Schema) error {
	if err := s.validate(); err != nil {
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

// Insert adds a copy of the row and returns its assigned id.
func (db *DB) Insert(tableName string, r Row) (int64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return 0, fmt.Errorf("relstore: database closed")
	}
	t, ok := db.tables[tableName]
	if !ok {
		return 0, fmt.Errorf("relstore: no table %q", tableName)
	}
	return t.insert(r)
}

// Close ends the database's writable life: every later write is refused.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.closed = true
	return nil
}

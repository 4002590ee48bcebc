package relstore

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/seglog"
)

// The durability format is a single append-only seglog file (see
// internal/seglog and DESIGN.md, "On-disk logs") whose record bodies are
// JSON walRecords. Reopening a database replays the log. Nothing rewrites
// the log, so it grows with every write. Its one product user is the DC's
// condition-report table, the ship-side audit log of a DC the paper leaves
// "disconnected from our labs for months at a time".
var logFormat = seglog.Format{Magic: "MPROSRS1", MaxBody: 1 << 24}

type walRecord struct {
	Op     string            `json:"op"` // create_table | insert | update | delete
	Table  string            `json:"table"`
	ID     int64             `json:"id,omitempty"`
	Schema *Schema           `json:"schema,omitempty"`
	Row    map[string]string `json:"row,omitempty"` // column -> encoded value
}

type walLogger struct {
	log *seglog.Log
}

func (l *walLogger) append(rec walRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("relstore: encode wal record: %w", err)
	}
	if err := l.log.Append(0, 0, b); err != nil {
		return fmt.Errorf("relstore: %w", err)
	}
	return nil
}

func (l *walLogger) appendCreateTable(s Schema) error {
	sc := s // copy so the caller's schema cannot alias
	return l.append(walRecord{Op: "create_table", Table: s.Name, Schema: &sc})
}

func (l *walLogger) appendInsert(table string, id int64, r Row, s Schema) error {
	enc, err := encodeRow(r, s)
	if err != nil {
		return err
	}
	return l.append(walRecord{Op: "insert", Table: table, ID: id, Row: enc})
}

func (l *walLogger) appendUpdate(table string, id int64, changes Row, s Schema) error {
	enc, err := encodeRow(changes, s)
	if err != nil {
		return err
	}
	return l.append(walRecord{Op: "update", Table: table, ID: id, Row: enc})
}

func (l *walLogger) appendDelete(table string, id int64) error {
	return l.append(walRecord{Op: "delete", Table: table, ID: id})
}

func (l *walLogger) close() error {
	return l.log.Close()
}

// encodeRow converts row values to strings using the schema's column types.
// nil values encode as the literal "∅" sentinel with prefix handling below.
func encodeRow(r Row, s Schema) (map[string]string, error) {
	types := make(map[string]ColumnType, len(s.Columns))
	for _, c := range s.Columns {
		types[c.Name] = c.Type
	}
	out := make(map[string]string, len(r))
	for k, v := range r {
		if k == "id" {
			continue
		}
		t, ok := types[k]
		if !ok {
			return nil, fmt.Errorf("relstore: encode: unknown column %q", k)
		}
		if v == nil {
			out[k] = "N"
			continue
		}
		switch t {
		case Int:
			out[k] = fmt.Sprintf("V%d", v.(int64))
		case Float:
			out[k] = fmt.Sprintf("V%g", v.(float64))
		case String:
			out[k] = "V" + v.(string)
		case Bool:
			if v.(bool) {
				out[k] = "Vtrue"
			} else {
				out[k] = "Vfalse"
			}
		case Time:
			out[k] = "V" + v.(time.Time).UTC().Format(time.RFC3339Nano)
		case Bytes:
			out[k] = "V" + base64.StdEncoding.EncodeToString(v.([]byte))
		}
	}
	return out, nil
}

// decodeRow reverses encodeRow.
func decodeRow(enc map[string]string, s Schema) (Row, error) {
	types := make(map[string]ColumnType, len(s.Columns))
	for _, c := range s.Columns {
		types[c.Name] = c.Type
	}
	out := make(Row, len(enc))
	for k, raw := range enc {
		t, ok := types[k]
		if !ok {
			return nil, fmt.Errorf("relstore: decode: unknown column %q", k)
		}
		if raw == "N" {
			out[k] = nil
			continue
		}
		if len(raw) < 1 || raw[0] != 'V' {
			return nil, fmt.Errorf("relstore: decode: malformed value %q", raw)
		}
		body := raw[1:]
		switch t {
		case Int:
			var v int64
			if _, err := fmt.Sscanf(body, "%d", &v); err != nil {
				return nil, fmt.Errorf("relstore: decode int %q: %w", body, err)
			}
			out[k] = v
		case Float:
			var v float64
			if _, err := fmt.Sscanf(body, "%g", &v); err != nil {
				return nil, fmt.Errorf("relstore: decode float %q: %w", body, err)
			}
			out[k] = v
		case String:
			out[k] = body
		case Bool:
			out[k] = body == "true"
		case Time:
			tv, err := time.Parse(time.RFC3339Nano, body)
			if err != nil {
				return nil, fmt.Errorf("relstore: decode time %q: %w", body, err)
			}
			out[k] = tv
		case Bytes:
			bv, err := base64.StdEncoding.DecodeString(body)
			if err != nil {
				return nil, fmt.Errorf("relstore: decode bytes: %w", err)
			}
			out[k] = bv
		}
	}
	return out, nil
}

// Open opens (or creates) a durable database backed by the log file at path.
// An existing log is replayed into memory before the handle is returned; a
// torn final record is truncated away, anything else malformed is refused.
func Open(path string) (*DB, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("relstore: create db directory: %w", err)
	}
	db := NewMemory()
	log, _, err := seglog.Open(path, logFormat, nil, func(r seglog.Record) error {
		var rec walRecord
		if err := json.Unmarshal(r.Body, &rec); err != nil {
			return fmt.Errorf("undecodable record: %w", err)
		}
		return db.apply(rec)
	})
	if err != nil {
		return nil, fmt.Errorf("relstore: %w", err)
	}
	db.logger = &walLogger{log: log}
	return db, nil
}

// apply replays one log record against the in-memory state (no re-logging).
func (db *DB) apply(rec walRecord) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	switch rec.Op {
	case "create_table":
		if rec.Schema == nil {
			return fmt.Errorf("create_table without schema")
		}
		if err := rec.Schema.Validate(); err != nil {
			return err
		}
		if _, exists := db.tables[rec.Schema.Name]; exists {
			return fmt.Errorf("table %q already exists", rec.Schema.Name)
		}
		db.tables[rec.Schema.Name] = newTable(*rec.Schema)
		return nil
	case "insert":
		t, ok := db.tables[rec.Table]
		if !ok {
			return fmt.Errorf("no table %q", rec.Table)
		}
		r, err := decodeRow(rec.Row, t.schema)
		if err != nil {
			return err
		}
		_, err = t.insert(r, rec.ID)
		return err
	case "update":
		t, ok := db.tables[rec.Table]
		if !ok {
			return fmt.Errorf("no table %q", rec.Table)
		}
		changes, err := decodeRow(rec.Row, t.schema)
		if err != nil {
			return err
		}
		return t.update(rec.ID, changes)
	case "delete":
		t, ok := db.tables[rec.Table]
		if !ok {
			return fmt.Errorf("no table %q", rec.Table)
		}
		return t.delete(rec.ID)
	default:
		return fmt.Errorf("unknown op %q", rec.Op)
	}
}

package relstore

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/seglog"
)

// recordOffsets walks a well-formed log's bytes and returns where each
// record starts, plus the file length as the final entry. Layout: 10-byte
// header (magic, u16 meta length, no meta), then records of 17 header
// bytes (body length in the last four), the body, and a 4-byte CRC.
func recordOffsets(t *testing.T, data []byte) []int {
	t.Helper()
	offs := []int{}
	off := 10
	for off < len(data) {
		offs = append(offs, off)
		off += 17 + int(binary.LittleEndian.Uint32(data[off+13:])) + 4
	}
	if off != len(data) {
		t.Fatalf("log does not end on a record boundary: %d of %d", off, len(data))
	}
	return append(offs, off)
}

// tornBytes reports how much a (relstore-format) open of path truncates.
func tornBytes(t *testing.T, path string) int64 {
	t.Helper()
	l, torn, err := seglog.Open(path, logFormat, nil, func(seglog.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return torn
}

// buildLog writes a fresh durable database with n rows and returns its path.
func buildLog(t *testing.T, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "crash.db")
	db, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(machineSchema()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := db.Insert("machines", sampleRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestTornFinalLineIsRecovered(t *testing.T) {
	path := buildLog(t, 10)
	// Simulate a power loss mid-append: chop the file mid-way through the
	// final record.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-17], 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(path)
	if err != nil {
		t.Fatalf("torn tail must be recoverable: %v", err)
	}
	n, err := db.Count("machines", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 9 {
		t.Errorf("recovered %d rows, want 9 (last insert torn)", n)
	}
	// The log is clean again: new writes then reopen see everything.
	if _, err := db.Insert("machines", sampleRow(100)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(path)
	if err != nil {
		t.Fatalf("second reopen after recovery: %v", err)
	}
	defer db2.Close()
	n, _ = db2.Count("machines", nil)
	if n != 10 {
		t.Errorf("after recovery + insert: %d rows, want 10", n)
	}
}

func TestTornTailWithoutNewlineIsRecovered(t *testing.T) {
	path := buildLog(t, 5)
	// Append the first part of one more record, as a write cut short by a
	// power loss leaves it.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	offs := recordOffsets(t, data)
	lastRecord := data[offs[len(offs)-2]:]
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(lastRecord[:len(lastRecord)/2]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	db, err := Open(path)
	if err != nil {
		t.Fatalf("partial trailing record must be recoverable: %v", err)
	}
	defer db.Close()
	n, _ := db.Count("machines", nil)
	if n != 5 {
		t.Errorf("recovered %d rows, want 5", n)
	}
}

func TestInteriorCorruptionIsRefused(t *testing.T) {
	path := buildLog(t, 10)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside record 4's body: this is not a torn tail and must
	// be surfaced, not silently dropped.
	data[recordOffsets(t, data)[4]+17+3] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("interior corruption must refuse to open")
	} else if !strings.Contains(err.Error(), "corrupted") {
		t.Errorf("corruption error %q lacks diagnosis", err)
	}
}

// TestTornTailAtRecordBoundaryLosesNothing: wherever a crash cuts the last
// record — after its first byte, one byte short of its end, or not at all —
// the rows before it survive, the next insert lands cleanly after them, and
// nothing is left for a later open to repair. (The JSON-lines log this
// replaced lost two acknowledged rows when only the final newline was cut.)
func TestTornTailAtRecordBoundaryLosesNothing(t *testing.T) {
	const n = 5
	clean, err := os.ReadFile(buildLog(t, n))
	if err != nil {
		t.Fatal(err)
	}
	offs := recordOffsets(t, clean) // create_table + n inserts
	lastStart, end := offs[len(offs)-2], offs[len(offs)-1]
	for cut := lastStart; cut <= end; cut++ {
		path := filepath.Join(t.TempDir(), "crash.db")
		if err := os.WriteFile(path, clean[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		want := n - 1
		if cut == end {
			want = n
		}
		db, err := Open(path)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if got, _ := db.Count("machines", nil); got != want {
			t.Fatalf("cut %d: recovered %d rows, want %d", cut, got, want)
		}
		if _, err := db.Insert("machines", sampleRow(100)); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db2, err := Open(path)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if got, _ := db2.Count("machines", nil); got != want+1 {
			t.Fatalf("cut %d: %d rows after insert+reopen, want %d", cut, got, want+1)
		}
		if err := db2.Close(); err != nil {
			t.Fatal(err)
		}
		if torn := tornBytes(t, path); torn != 0 {
			t.Fatalf("cut %d: third open still truncates %d bytes", cut, torn)
		}
	}
}

// TestParentFormatRefused: the JSON-lines log this format replaced is not
// read; the error names the file so the operator knows what to delete.
func TestParentFormatRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.db")
	old := `{"op":"create_table","table":"machines","schema":{"Name":"machines"}}` + "\n"
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(path)
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("error %v, want one naming the file and its magic", err)
	}
}

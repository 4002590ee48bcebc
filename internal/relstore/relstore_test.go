package relstore

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func machineSchema() Schema {
	return Schema{
		Name: "machines",
		Columns: []Column{
			{Name: "name", Type: String, Indexed: true},
			{Name: "kind", Type: String},
			{Name: "power_kw", Type: Float},
			{Name: "installed", Type: Time, Indexed: true},
		},
	}
}

func sampleRow(i int) Row {
	return Row{
		"name":      fmt.Sprintf("machine-%d", i),
		"kind":      "chiller",
		"power_kw":  float64(i) * 1.5,
		"installed": time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Hour),
	}
}

func TestSchemaValidation(t *testing.T) {
	bad := []Schema{
		{Name: ""},
		{Name: "t"},
		{Name: "t", Columns: []Column{{Name: "", Type: Float}}},
		{Name: "t", Columns: []Column{{Name: "a", Type: Float}, {Name: "a", Type: Float}}},
		{Name: "t", Columns: []Column{{Name: "id", Type: Float}}},
		{Name: "t", Columns: []Column{{Name: "a", Type: ColumnType(99)}}},
	}
	for i, s := range bad {
		if err := s.validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if err := machineSchema().validate(); err != nil {
		t.Errorf("good schema rejected: %v", err)
	}
}

func TestColumnTypeString(t *testing.T) {
	want := map[ColumnType]string{Float: "REAL", String: "TEXT", Time: "TIMESTAMP", ColumnType(9): "UNKNOWN"}
	for ct, s := range want {
		if ct.String() != s {
			t.Errorf("%d: %q != %q", ct, ct.String(), s)
		}
	}
}

// TestCRUD: a table is created once, inserts number its rows from 1 and
// file them in its indexes, and after Close every write is refused.
func TestCRUD(t *testing.T) {
	db := NewMemory()
	if err := db.CreateTable(machineSchema()); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(machineSchema()); err == nil {
		t.Error("duplicate table should error")
	}
	for want := int64(1); want <= 3; want++ {
		id, err := db.Insert("machines", sampleRow(int(want)))
		if err != nil {
			t.Fatal(err)
		}
		if id != want {
			t.Errorf("id %d, want %d", id, want)
		}
	}
	tbl := db.tables["machines"]
	if got := tbl.rows[2]["name"]; got != "machine-2" {
		t.Errorf("row 2 holds %v", got)
	}
	if ids := tbl.indexes["name"]["machine-2"]; len(ids) != 1 || ids[0] != 2 {
		t.Errorf("name index files machine-2 under %v, want [2]", ids)
	}
	installed := sampleRow(3)["installed"].(time.Time)
	if ids := tbl.indexes["installed"][installed.UnixNano()]; len(ids) != 1 || ids[0] != 3 {
		t.Errorf("time index files row 3 under %v, want [3]", ids)
	}
	// The table holds a copy: the caller's map is the caller's.
	r := sampleRow(4)
	id, err := db.Insert("machines", r)
	if err != nil {
		t.Fatal(err)
	}
	r["kind"] = "pump"
	if got := tbl.rows[id]["kind"]; got != "chiller" {
		t.Errorf("row mutation leaked into the table: kind %v", got)
	}
	if _, err := db.Insert("nope", sampleRow(1)); err == nil {
		t.Error("insert into missing table")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("machines", sampleRow(5)); err == nil {
		t.Error("insert after close")
	}
	if err := db.CreateTable(Schema{Name: "t", Columns: []Column{{Name: "a", Type: Float}}}); err == nil {
		t.Error("create table after close")
	}
}

func TestTypeEnforcement(t *testing.T) {
	db := NewMemory()
	if err := db.CreateTable(machineSchema()); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(Row)
	}{
		{"wrong type", func(r Row) { r["power_kw"] = "not a float" }},
		{"unknown column", func(r Row) { r["ghost"] = 1.0 }},
		{"explicit id", func(r Row) { r["id"] = int64(5) }},
		{"missing column", func(r Row) { delete(r, "name") }},
		{"nil value", func(r Row) { r["name"] = nil }},
	} {
		r := sampleRow(1)
		tc.mutate(r)
		if _, err := db.Insert("machines", r); err == nil {
			t.Errorf("%s: row accepted", tc.name)
		}
	}
	if n := len(db.tables["machines"].rows); n != 0 {
		t.Errorf("%d refused rows held", n)
	}
}

// TestConcurrentAccess: concurrent inserts each get a distinct id.
func TestConcurrentAccess(t *testing.T) {
	db := NewMemory()
	if err := db.CreateTable(machineSchema()); err != nil {
		t.Fatal(err)
	}
	const goroutines, each = 8, 50
	var wg sync.WaitGroup
	ids := make([][]int64, goroutines)
	errs := make(chan error, goroutines)
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				id, err := db.Insert("machines", sampleRow(g*1000+i))
				if err != nil {
					errs <- err
					return
				}
				ids[g] = append(ids[g], id)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for _, got := range ids {
		for _, id := range got {
			if seen[id] {
				t.Fatalf("duplicate id %d", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != goroutines*each {
		t.Fatalf("concurrent inserts: %d ids, want %d", len(seen), goroutines*each)
	}
}

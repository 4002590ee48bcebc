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
			{Name: "installed", Type: Time},
			{Name: "active", Type: Bool},
			{Name: "hours", Type: Int},
			{Name: "notes", Type: String, Nullable: true},
			{Name: "blob", Type: Bytes, Nullable: true},
		},
	}
}

func sampleRow(i int) Row {
	return Row{
		"name":      fmt.Sprintf("machine-%d", i),
		"kind":      "chiller",
		"power_kw":  float64(i) * 1.5,
		"installed": time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Hour),
		"active":    i%2 == 0,
		"hours":     int64(i * 100),
	}
}

func TestSchemaValidation(t *testing.T) {
	bad := []Schema{
		{Name: ""},
		{Name: "t"},
		{Name: "t", Columns: []Column{{Name: "", Type: Int}}},
		{Name: "t", Columns: []Column{{Name: "a", Type: Int}, {Name: "a", Type: Int}}},
		{Name: "t", Columns: []Column{{Name: "id", Type: Int}}},
		{Name: "t", Columns: []Column{{Name: "a", Type: ColumnType(99)}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if err := machineSchema().Validate(); err != nil {
		t.Errorf("good schema rejected: %v", err)
	}
}

func TestColumnTypeString(t *testing.T) {
	want := map[ColumnType]string{Int: "INTEGER", Float: "REAL", String: "TEXT",
		Bool: "BOOLEAN", Time: "TIMESTAMP", Bytes: "BLOB", ColumnType(9): "UNKNOWN"}
	for ct, s := range want {
		if ct.String() != s {
			t.Errorf("%d: %q != %q", ct, ct.String(), s)
		}
	}
}

func TestCRUD(t *testing.T) {
	db := NewMemory()
	if err := db.CreateTable(machineSchema()); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable(machineSchema()); err == nil {
		t.Error("duplicate table should error")
	}
	id, err := db.Insert("machines", sampleRow(1))
	if err != nil {
		t.Fatal(err)
	}
	if id != 1 {
		t.Errorf("first id %d", id)
	}
	got, err := db.Get("machines", id)
	if err != nil {
		t.Fatal(err)
	}
	if got["name"] != "machine-1" || got.ID() != 1 {
		t.Errorf("row %v", got)
	}
	if err := db.Update("machines", id, Row{"hours": int64(999)}); err != nil {
		t.Fatal(err)
	}
	got, _ = db.Get("machines", id)
	if got["hours"] != int64(999) || got["name"] != "machine-1" {
		t.Errorf("update lost data: %v", got)
	}
	if err := db.Delete("machines", id); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get("machines", id); err == nil {
		t.Error("get after delete should error")
	}
	if err := db.Delete("machines", id); err == nil {
		t.Error("double delete should error")
	}
	if err := db.Update("machines", 42, Row{"hours": int64(1)}); err == nil {
		t.Error("update missing row should error")
	}
	// Unknown-table errors.
	if _, err := db.Insert("nope", sampleRow(1)); err == nil {
		t.Error("insert into missing table")
	}
	if _, err := db.Get("nope", 1); err == nil {
		t.Error("get from missing table")
	}
	if _, err := db.Select("nope", nil, 0); err == nil {
		t.Error("select from missing table")
	}
	if _, err := db.Count("nope", nil); err == nil {
		t.Error("count missing table")
	}
	if err := db.Update("nope", 1, nil); err == nil {
		t.Error("update missing table")
	}
	if err := db.Delete("nope", 1); err == nil {
		t.Error("delete missing table")
	}
	// After Close every write is refused; reads still see the rows.
	kept, err := db.Insert("machines", sampleRow(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("machines", sampleRow(3)); err == nil {
		t.Error("insert after close")
	}
	if err := db.Update("machines", kept, Row{"hours": int64(1)}); err == nil {
		t.Error("update after close")
	}
	if err := db.Delete("machines", kept); err == nil {
		t.Error("delete after close")
	}
	if err := db.CreateTable(Schema{Name: "t", Columns: []Column{{Name: "a", Type: Int}}}); err == nil {
		t.Error("create table after close")
	}
	if got, err := db.Get("machines", kept); err != nil || got["name"] != "machine-2" {
		t.Errorf("read after close: %v %v", got, err)
	}
}

func TestTypeEnforcement(t *testing.T) {
	db := NewMemory()
	if err := db.CreateTable(machineSchema()); err != nil {
		t.Fatal(err)
	}
	r := sampleRow(1)
	r["hours"] = "not an int"
	if _, err := db.Insert("machines", r); err == nil {
		t.Error("wrong type should be rejected")
	}
	r = sampleRow(1)
	r["ghost"] = 1
	if _, err := db.Insert("machines", r); err == nil {
		t.Error("unknown column should be rejected")
	}
	r = sampleRow(1)
	r["id"] = int64(5)
	if _, err := db.Insert("machines", r); err == nil {
		t.Error("explicit id should be rejected")
	}
	r = sampleRow(1)
	delete(r, "name")
	if _, err := db.Insert("machines", r); err == nil {
		t.Error("missing non-nullable column should be rejected")
	}
	r = sampleRow(1)
	r["notes"] = nil // nullable: fine
	if _, err := db.Insert("machines", r); err != nil {
		t.Errorf("nullable nil rejected: %v", err)
	}
	r = sampleRow(2)
	r["name"] = nil // non-nullable nil
	if _, err := db.Insert("machines", r); err != nil {
		// expected
	} else {
		t.Error("nil in non-nullable column should be rejected")
	}
}

func TestSelectAndPredicates(t *testing.T) {
	db := NewMemory()
	if err := db.CreateTable(machineSchema()); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		if _, err := db.Insert("machines", sampleRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	all, err := db.Select("machines", nil, 0)
	if err != nil || len(all) != 20 {
		t.Fatalf("select all: %d rows err %v", len(all), err)
	}
	// Sorted by id.
	for i := 1; i < len(all); i++ {
		if all[i].ID() <= all[i-1].ID() {
			t.Fatal("rows not sorted by id")
		}
	}
	// Indexed equality.
	rows, err := db.Select("machines", Eq("name", "machine-7"), 0)
	if err != nil || len(rows) != 1 || rows[0]["hours"] != int64(700) {
		t.Fatalf("indexed eq: %v err %v", rows, err)
	}
	// Limit.
	rows, _ = db.Select("machines", nil, 5)
	if len(rows) != 5 {
		t.Errorf("limit: %d", len(rows))
	}
	// Returned rows are clones: mutating them must not affect the store.
	rows, _ = db.Select("machines", Eq("name", "machine-8"), 0)
	rows[0]["hours"] = int64(-1)
	again, _ := db.Select("machines", Eq("name", "machine-8"), 0)
	if again[0]["hours"] != int64(800) {
		t.Error("row mutation leaked into store")
	}
}

func TestIndexMaintenance(t *testing.T) {
	db := NewMemory()
	if err := db.CreateTable(machineSchema()); err != nil {
		t.Fatal(err)
	}
	id, _ := db.Insert("machines", sampleRow(1))
	// Rename; old index entry must be gone, new one live.
	if err := db.Update("machines", id, Row{"name": "renamed"}); err != nil {
		t.Fatal(err)
	}
	rows, _ := db.Select("machines", Eq("name", "machine-1"), 0)
	if len(rows) != 0 {
		t.Error("stale index entry after update")
	}
	rows, _ = db.Select("machines", Eq("name", "renamed"), 0)
	if len(rows) != 1 {
		t.Error("missing index entry after update")
	}
	if err := db.Delete("machines", id); err != nil {
		t.Fatal(err)
	}
	rows, _ = db.Select("machines", Eq("name", "renamed"), 0)
	if len(rows) != 0 {
		t.Error("stale index entry after delete")
	}
}

// countingEq is an equality predicate that counts the rows it is asked to
// match; its index hint is the equality's.
type countingEq struct {
	eq
	visited *int
}

func (p countingEq) Match(r Row) bool {
	*p.visited++
	return p.eq.Match(r)
}

// TestIndexedEqualityMissVisitsNoRow: an equality on an indexed column whose
// value the index holds no row for selects nothing and visits no row; a hit
// visits only its own rows. An equality with nil is no index lookup (nil is
// never indexed): it still finds the rows where the column is null.
func TestIndexedEqualityMissVisitsNoRow(t *testing.T) {
	db := NewMemory()
	if err := db.CreateTable(machineSchema()); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		if _, err := db.Insert("machines", sampleRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	visited := 0
	rows, err := db.Select("machines", countingEq{eq{"name", "absent"}, &visited}, 0)
	if err != nil || len(rows) != 0 || visited != 0 {
		t.Fatalf("indexed miss: %d rows, %d visited, err %v; want none of either", len(rows), visited, err)
	}
	rows, err = db.Select("machines", countingEq{eq{"name", "machine-7"}, &visited}, 0)
	if err != nil || len(rows) != 1 || visited != 1 {
		t.Fatalf("indexed hit: %d rows, %d visited, err %v; want 1 and 1", len(rows), visited, err)
	}
	if err := db.CreateTable(Schema{Name: "tags", Columns: []Column{{Name: "tag", Type: String, Indexed: true, Nullable: true}}}); err != nil {
		t.Fatal(err)
	}
	for _, r := range []Row{{"tag": "a"}, {}} {
		if _, err := db.Insert("tags", r); err != nil {
			t.Fatal(err)
		}
	}
	if rows, err := db.Select("tags", Eq("tag", nil), 0); err != nil || len(rows) != 1 {
		t.Fatalf("equality with nil: %v, err %v; want the one null row", rows, err)
	}
}

func TestEnsureTableAndNames(t *testing.T) {
	db := NewMemory()
	if err := db.EnsureTable(machineSchema()); err != nil {
		t.Fatal(err)
	}
	if err := db.EnsureTable(machineSchema()); err != nil {
		t.Fatalf("second ensure: %v", err)
	}
	if !db.HasTable("machines") || db.HasTable("nope") {
		t.Error("HasTable wrong")
	}
	if names := db.TableNames(); len(names) != 1 || names[0] != "machines" {
		t.Errorf("names %v", names)
	}
	s, err := db.TableSchema("machines")
	if err != nil || s.Name != "machines" {
		t.Errorf("schema %v err %v", s, err)
	}
	if _, err := db.TableSchema("nope"); err == nil {
		t.Error("schema of missing table")
	}
}

func TestConcurrentAccess(t *testing.T) {
	db := NewMemory()
	if err := db.CreateTable(machineSchema()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := db.Insert("machines", sampleRow(g*1000+i)); err != nil {
					errs <- err
					return
				}
				if _, err := db.Select("machines", Eq("kind", "chiller"), 10); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	n, _ := db.Count("machines", nil)
	if n != 400 {
		t.Fatalf("concurrent inserts: %d rows, want 400", n)
	}
	// All ids unique.
	rows, _ := db.Select("machines", nil, 0)
	seen := map[int64]bool{}
	for _, r := range rows {
		if seen[r.ID()] {
			t.Fatalf("duplicate id %d", r.ID())
		}
		seen[r.ID()] = true
	}
}

func BenchmarkIndexedLookup(b *testing.B) {
	db := NewMemory()
	if err := db.CreateTable(machineSchema()); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if _, err := db.Insert("machines", sampleRow(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := db.Select("machines", Eq("name", "machine-5000"), 0)
		if err != nil || len(rows) != 1 {
			b.Fatalf("lookup failed: %v %v", rows, err)
		}
	}
}

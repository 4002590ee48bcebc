package seglog_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/seglog"
)

var testFormat = seglog.Format{Magic: "MPROSTS1", MaxBody: 1 << 10}

type rec struct {
	kind byte
	seq  uint64
	body string
}

// header and frame rebuild the documented layout independently of the
// package, so the tests pin the bytes on disk rather than round-trip them.
func header(magic string, meta []byte) []byte {
	b := append([]byte(nil), magic...)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(meta)))
	return append(b, meta...)
}

func frame(r rec) []byte {
	b := binary.LittleEndian.AppendUint32(nil, 0x314C4753)
	b = append(b, r.kind)
	b = binary.LittleEndian.AppendUint64(b, r.seq)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(r.body)))
	b = append(b, r.body...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[4:]))
}

func fileBytes(meta []byte, recs ...rec) []byte {
	b := header(testFormat.Magic, meta)
	for _, r := range recs {
		b = append(b, frame(r)...)
	}
	return b
}

// collect returns a visit callback that copies every record it is shown.
func collect(into *[]rec) func(seglog.Record) error {
	return func(r seglog.Record) error {
		*into = append(*into, rec{r.Kind, r.Seq, string(r.Body)})
		return nil
	}
}

func mustOpen(t *testing.T, path string, meta []byte) (*seglog.Log, []rec, int64) {
	t.Helper()
	var got []rec
	l, torn, err := seglog.Open(path, testFormat, meta, collect(&got))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, got, torn
}

func equalRecs(a, b []rec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

var three = []rec{{1, 1, "alpha"}, {2, 2, ""}, {3, 7, strings.Repeat("z", 300)}}

func TestAppendWritesTheDocumentedLayout(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.log")
	l, got, torn := mustOpen(t, path, []byte("meta"))
	if len(got) != 0 || torn != 0 || string(l.Meta()) != "meta" {
		t.Fatalf("fresh log: %d records, %d torn, meta %q", len(got), torn, l.Meta())
	}
	for _, r := range three {
		if err := l.Append(r.kind, r.seq, []byte(r.body)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := fileBytes([]byte("meta"), three...); !bytes.Equal(data, want) {
		t.Fatalf("file bytes differ from the documented layout:\n got %x\nwant %x", data, want)
	}
	// The header on disk wins over the meta a later Open offers.
	l2, got, torn := mustOpen(t, path, []byte("other"))
	defer func() { _ = l2.Close() }()
	if !equalRecs(got, three) || torn != 0 || string(l2.Meta()) != "meta" {
		t.Fatalf("reopen: records %v, %d torn, meta %q", got, torn, l2.Meta())
	}
}

// TestEveryPrefixOpens is the torn-write contract: whatever prefix of a
// file a crash leaves — including every prefix of the header — opens,
// yields exactly the whole records in it, takes an append after them, and
// is stable across a further reopen.
func TestEveryPrefixOpens(t *testing.T) {
	full := fileBytes([]byte("m"), three...)
	// ends[i] is the offset just past record i-1 (ends[0]: past the header).
	ends := []int{len(header(testFormat.Magic, []byte("m")))}
	for _, r := range three {
		ends = append(ends, ends[len(ends)-1]+len(frame(r)))
	}
	extra := rec{9, 99, "after"}
	for cut := 0; cut <= len(full); cut++ {
		path := filepath.Join(t.TempDir(), "p.log")
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		whole := 0
		for whole < len(three) && ends[whole+1] <= cut {
			whole++
		}
		wantTorn := int64(cut - ends[whole])
		if cut < ends[0] {
			wantTorn = int64(cut) // no header survived: everything goes
		}
		l, got, torn := mustOpen(t, path, []byte("m"))
		if !equalRecs(got, three[:whole]) || torn != wantTorn {
			t.Fatalf("cut %d: %d records, %d torn; want %d records, %d torn", cut, len(got), torn, whole, wantTorn)
		}
		if err := l.Append(extra.kind, extra.seq, []byte(extra.body)); err != nil {
			t.Fatalf("cut %d: Append: %v", cut, err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("cut %d: Close: %v", cut, err)
		}
		want := append(append([]rec(nil), three[:whole]...), extra)
		for pass := 0; pass < 2; pass++ {
			l, got, torn = mustOpen(t, path, []byte("ignored"))
			if !equalRecs(got, want) || torn != 0 || string(l.Meta()) != "m" {
				t.Fatalf("cut %d reopen %d: records %v, %d torn, meta %q", cut, pass, got, torn, l.Meta())
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestCorruptionIsRefusedAndLeftUntouched(t *testing.T) {
	full := fileBytes(nil, three...)
	hdr := len(header(testFormat.Magic, nil))
	second := hdr + len(frame(three[0]))
	last := second + len(frame(three[1]))
	flip := func(off int) func([]byte) {
		return func(b []byte) { b[off] ^= 0x01 }
	}
	cases := []struct {
		name   string
		mutate func([]byte)
		visit  func(seglog.Record) error
		want   string
	}{
		{"file magic", flip(3), nil, "magic"},
		{"record magic", flip(second), nil, fmt.Sprintf("bad record magic at offset %d", second)},
		{"interior body bit", flip(hdr + 18), nil, fmt.Sprintf("CRC mismatch at offset %d", hdr)},
		{"final record bit", flip(len(full) - 6), nil, fmt.Sprintf("CRC mismatch at offset %d", last)},
		{"length over limit", func(b []byte) { binary.LittleEndian.PutUint32(b[last+13:], 1<<10+1) }, nil, fmt.Sprintf("over limit 1024 at offset %d", last)},
		{"callback", func([]byte) {}, func(r seglog.Record) error {
			if r.Seq == 2 {
				return errors.New("owner says no")
			}
			return nil
		}, fmt.Sprintf("record at offset %d: owner says no", second)},
	}
	for _, c := range cases {
		path := filepath.Join(t.TempDir(), "c.log")
		data := bytes.Clone(full)
		c.mutate(data)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		visit := c.visit
		if visit == nil {
			visit = func(seglog.Record) error { return nil }
		}
		_, _, err := seglog.Open(path, testFormat, nil, visit)
		if err == nil || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), path) {
			t.Errorf("%s: error %v, want one naming %s and %q", c.name, err, path, c.want)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
			t.Errorf("%s: refused file was modified", c.name)
		}
		if _, err := seglog.Scan(path, testFormat, visit); err == nil {
			t.Errorf("%s: Scan accepted it", c.name)
		}
	}
}

func TestBodyLimitOnAppend(t *testing.T) {
	l, _, _ := mustOpen(t, filepath.Join(t.TempDir(), "l.log"), nil)
	defer func() { _ = l.Close() }()
	if err := l.Append(1, 1, make([]byte, testFormat.MaxBody)); err != nil {
		t.Fatalf("body at the limit refused: %v", err)
	}
	if err := l.Append(1, 2, make([]byte, testFormat.MaxBody+1)); err == nil {
		t.Fatal("body over the limit accepted")
	}
}

// TestAppendBatchWritesTheSameBytes: a batch is the records' documented
// frames back to back — nothing on disk tells it from single appends, which
// is why TestEveryPrefixOpens covers a crash inside one — and a body over
// the limit anywhere in it refuses the batch with nothing written.
func TestAppendBatchWritesTheSameBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "b.log")
	l, _, _ := mustOpen(t, path, []byte("meta"))
	batch := make([]seglog.Record, len(three))
	for i, r := range three {
		batch[i] = seglog.Record{Kind: r.kind, Seq: r.seq, Body: []byte(r.body)}
	}
	over := append(append([]seglog.Record(nil), batch...), seglog.Record{Kind: 1, Seq: 8, Body: make([]byte, testFormat.MaxBody+1)})
	if err := l.AppendBatch(over); err == nil {
		t.Fatal("batch holding a body over the limit accepted")
	}
	if err := l.AppendBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := l.AppendBatch(batch); err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := fileBytes([]byte("meta"), three...); !bytes.Equal(data, want) {
		t.Fatalf("file bytes differ from the documented layout:\n got %x\nwant %x", data, want)
	}
}

func TestDropBeforeKeepsHeaderAndSwapsHandle(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.log")
	l, _, _ := mustOpen(t, path, []byte("meta"))
	for _, r := range three {
		if err := l.Append(r.kind, r.seq, []byte(r.body)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.DropBefore(2); err != nil {
		t.Fatalf("DropBefore: %v", err)
	}
	if err := l.Append(4, 8, []byte("post")); err != nil {
		t.Fatalf("Append after DropBefore: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	l2, got, torn := mustOpen(t, path, nil)
	defer func() { _ = l2.Close() }()
	if want := []rec{three[2], {4, 8, "post"}}; !equalRecs(got, want) || torn != 0 || string(l2.Meta()) != "meta" {
		t.Fatalf("after the drop: records %v, %d torn, meta %q", got, torn, l2.Meta())
	}
}

// TestDropBeforeFailureLeavesLogUsable: a drop that cannot create its temp
// file, or cannot rename it into place, reports the error and leaves the
// log appending to the file it had; nothing already written is lost.
func TestDropBeforeFailureLeavesLogUsable(t *testing.T) {
	open3 := func(t *testing.T) (string, *seglog.Log) {
		path := filepath.Join(t.TempDir(), "f.log")
		l, _, _ := mustOpen(t, path, nil)
		for _, r := range three {
			if err := l.Append(r.kind, r.seq, []byte(r.body)); err != nil {
				t.Fatal(err)
			}
		}
		return path, l
	}
	check := func(t *testing.T, path string, l *seglog.Log) {
		if err := l.Append(4, 8, []byte("still here")); err != nil {
			t.Fatalf("Append after failed DropBefore: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, got, torn := mustOpen(t, path, nil)
		defer func() { _ = l2.Close() }()
		if want := append(append([]rec(nil), three...), rec{4, 8, "still here"}); !equalRecs(got, want) || torn != 0 {
			t.Fatalf("after failed drop: records %v, %d torn", got, torn)
		}
	}

	t.Run("temp cannot be created", func(t *testing.T) {
		path, l := open3(t)
		if err := os.Mkdir(path+".tmp", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := l.DropBefore(2); err == nil {
			t.Fatal("DropBefore succeeded with a directory in the temp's place")
		}
		check(t, path, l) // the reopen clears the (empty) directory like any stale temp
	})

	t.Run("rename fails", func(t *testing.T) {
		path, l := open3(t)
		// Put a non-empty directory where the log was, keeping the log's
		// inode reachable through a second link: the temp file is created
		// and synced, then the rename over the directory fails.
		keep := path + ".keep"
		if err := os.Link(path, keep); err != nil {
			t.Skipf("hard links unavailable: %v", err)
		}
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := l.DropBefore(2); err == nil {
			t.Fatal("DropBefore succeeded renaming over a non-empty directory")
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("failed DropBefore left its temp file: %v", err)
		}
		if err := os.RemoveAll(path); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(keep, path); err != nil {
			t.Fatal(err)
		}
		check(t, path, l)
	})
}

func TestWriteFileAndScan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.ckpt")
	if _, err := seglog.Scan(path, testFormat, nil); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Scan of a missing file: %v, want fs.ErrNotExist", err)
	}
	for _, body := range []string{"first", "second, replacing the first"} {
		err := seglog.WriteFile(path, testFormat, []byte("m"), func(w *seglog.Log) error { return w.Append(1, 42, []byte(body)) })
		if err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		var got []rec
		meta, err := seglog.Scan(path, testFormat, collect(&got))
		if err != nil || string(meta) != "m" || !equalRecs(got, []rec{{1, 42, body}}) {
			t.Fatalf("Scan = meta %q, records %v, err %v", meta, got, err)
		}
	}
	// Scan never repairs: a cut file is an error and keeps its bytes.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 5, 10, len(data) - 1} {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := seglog.Scan(path, testFormat, func(seglog.Record) error { return nil }); err == nil {
			t.Errorf("Scan accepted a file cut at %d", cut)
		}
		if after, _ := os.ReadFile(path); len(after) != cut {
			t.Errorf("Scan changed a file cut at %d to %d bytes", cut, len(after))
		}
	}
}

func TestStaleTempRemovedOnOpenAndScan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.log")
	l, _, _ := mustOpen(t, path, nil)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for _, open := range []func() error{
		func() error {
			l, _, err := seglog.Open(path, testFormat, nil, nil)
			if err == nil {
				err = l.Close()
			}
			return err
		},
		func() error { _, err := seglog.Scan(path, testFormat, nil); return err },
	} {
		if err := os.WriteFile(path+".tmp", []byte("garbage from a dying process"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := open(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("stale temp survived: %v", err)
		}
	}
}

func TestFileNameRoundTrip(t *testing.T) {
	keys := []string{"dc-1", "vib/motor drive end/rms", "severity/chiller|1%weird", "proc/evap_pressure", "", "ünï"}
	seen := map[string]string{}
	for _, k := range keys {
		name := seglog.FileName(k, ".x")
		if prev, dup := seen[name]; dup {
			t.Fatalf("%q and %q collide on %q", prev, k, name)
		}
		seen[name] = k
		if strings.ContainsAny(name, "/\x00 ") {
			t.Fatalf("unsafe byte in %q", name)
		}
		if back, err := seglog.FileKey(name, ".x"); err != nil || back != k {
			t.Fatalf("FileKey(%q) = %q, %v; want %q", name, back, err, k)
		}
	}
	for _, bad := range []string{"a%2.x", "a%.x", "a%ZZ.x", "a.y"} {
		if _, err := seglog.FileKey(bad, ".x"); err == nil {
			t.Errorf("FileKey accepted %q", bad)
		}
	}
}

// TestLargeRecordWrittenInPlaceIsTheSameFile: on a file WriteFile builds, a
// body over the frame buffer's retained size goes to the file straight from
// the caller's buffer, in several writes. The bytes on disk are the one
// frame the layout documents all the same.
func TestLargeRecordWrittenInPlaceIsTheSameFile(t *testing.T) {
	big := seglog.Format{Magic: testFormat.Magic, MaxBody: 1 << 20}
	body := strings.Repeat("checkpoint ", 20000) // 220 000 bytes
	path := filepath.Join(t.TempDir(), "big.ckpt")
	if err := seglog.WriteFile(path, big, []byte("m"), func(w *seglog.Log) error { return w.Append(3, 77, []byte(body)) }); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := append(header(big.Magic, []byte("m")), frame(rec{3, 77, body})...)
	if !bytes.Equal(data, want) {
		t.Fatalf("file of %d bytes is not the documented header and frame (%d bytes)", len(data), len(want))
	}
}

// TestDropBeforeCopiesWholeRecords: a drop copies the kept records' bytes
// from the file, renumbers nothing, and the log appends after them. An
// ordinal past the next record is refused and leaves the file; one at or
// below the first record writes nothing.
func TestDropBeforeCopiesWholeRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.log")
	l, _, err := seglog.Open(path, testFormat, []byte("meta"), func(seglog.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	three := []rec{{1, 1, "one"}, {2, 2, "two, longer"}, {1, 3, ""}}
	for i, r := range three {
		if got := l.Next(); got != uint64(i) {
			t.Fatalf("Next before record %d = %d", i, got)
		}
		if err := l.Append(r.kind, r.seq, []byte(r.body)); err != nil {
			t.Fatal(err)
		}
	}
	fileIs := func(what string, want []byte) {
		t.Helper()
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: file holds\n %x\nwant\n %x (%v)", what, got, want, err)
		}
	}
	if err := l.DropBefore(4); err == nil {
		t.Error("DropBefore(4) of a log whose next record is 3 succeeded")
	}
	fileIs("after a refused drop", fileBytes([]byte("meta"), three...))
	if err := l.DropBefore(1); err != nil {
		t.Fatalf("DropBefore(1): %v", err)
	}
	fileIs("after DropBefore(1)", fileBytes([]byte("meta"), three[1:]...))
	after := rec{2, 4, "after"}
	if err := l.Append(after.kind, after.seq, []byte(after.body)); err != nil {
		t.Fatal(err)
	}
	if got := l.Next(); got != 4 {
		t.Fatalf("Next after the drop and one append = %d, want 4", got)
	}
	want := fileBytes([]byte("meta"), three[1], three[2], after)
	fileIs("after one append", want)
	for _, ord := range []uint64{0, 1} {
		if err := l.DropBefore(ord); err != nil {
			t.Fatalf("DropBefore(%d) of dropped records: %v", ord, err)
		}
		fileIs(fmt.Sprintf("after DropBefore(%d)", ord), want)
	}
	if err := l.DropBefore(3); err != nil {
		t.Fatal(err)
	}
	fileIs("after DropBefore(3)", fileBytes([]byte("meta"), after))
	if err := l.DropBefore(4); err != nil {
		t.Fatal(err)
	}
	fileIs("after dropping every record", fileBytes([]byte("meta")))
	if err := l.Append(after.kind, after.seq, []byte(after.body)); err != nil {
		t.Fatal(err)
	}
	var got []rec
	if _, err := seglog.Scan(path, testFormat, collect(&got)); err != nil {
		t.Fatal(err)
	}
	if !equalRecs(got, []rec{after}) {
		t.Fatalf("records after the drops = %v, want %v", got, []rec{after})
	}
}

package journal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/seglog"
)

func mustOpen(t *testing.T, dir string) (*Journal, *Recovery) {
	t.Helper()
	j, rec, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return j, rec
}

func appendN(t *testing.T, j *Journal, kind byte, n int, label string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := j.Append(kind, []byte(fmt.Sprintf("%s-%d", label, i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
}

func TestAppendReopenRoundtrip(t *testing.T) {
	dir := t.TempDir()
	j, rec := mustOpen(t, dir)
	if rec.Checkpoint != nil || len(rec.Tail) != 0 {
		t.Fatalf("fresh journal recovered state: %+v", rec)
	}
	bodies := [][]byte{[]byte("alpha"), []byte(""), bytes.Repeat([]byte{0xAB}, 4096)}
	for i, b := range bodies {
		seq, err := j.Append(byte(i+1), b)
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2, rec2 := mustOpen(t, dir)
	defer func() { _ = j2.Close() }()
	if len(rec2.Tail) != len(bodies) {
		t.Fatalf("recovered %d records, want %d", len(rec2.Tail), len(bodies))
	}
	for i, r := range rec2.Tail {
		if r.Seq != uint64(i+1) || r.Kind != byte(i+1) || !bytes.Equal(r.Body, bodies[i]) {
			t.Fatalf("record %d = %+v, want seq %d kind %d body %q", i, r, i+1, i+1, bodies[i])
		}
	}
	if got := j2.LastSeq(); got != uint64(len(bodies)) {
		t.Fatalf("LastSeq = %d, want %d", got, len(bodies))
	}
	if seq, err := j2.Append(9, []byte("next")); err != nil || seq != uint64(len(bodies)+1) {
		t.Fatalf("post-reopen Append = (%d, %v), want seq %d", seq, err, len(bodies)+1)
	}
}

func TestTornTailTruncatedAndReopenStable(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir)
	appendN(t, j, 1, 5, "rec")
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	path := filepath.Join(dir, walName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read wal: %v", err)
	}
	// Chop into the last record's body: a torn single-write append.
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatalf("write torn wal: %v", err)
	}

	j2, rec := mustOpen(t, dir)
	if rec.TornBytes == 0 {
		t.Fatalf("torn tail not detected")
	}
	if len(rec.Tail) != 4 {
		t.Fatalf("recovered %d records after torn tail, want 4", len(rec.Tail))
	}
	if err := j2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen-stable: the truncation is durable, a second recovery sees a
	// clean file with the same prefix.
	j3, rec3 := mustOpen(t, dir)
	defer func() { _ = j3.Close() }()
	if rec3.TornBytes != 0 {
		t.Fatalf("second recovery still torn: %d bytes", rec3.TornBytes)
	}
	if len(rec3.Tail) != 4 {
		t.Fatalf("second recovery %d records, want 4", len(rec3.Tail))
	}
}

func TestInteriorCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir)
	appendN(t, j, 1, 5, "rec")
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	path := filepath.Join(dir, walName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read wal: %v", err)
	}
	// Flip a byte in the middle of the file: a complete record with a bad
	// CRC is not a torn tail.
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write corrupted wal: %v", err)
	}
	if _, _, err := Open(dir); err == nil {
		t.Fatalf("Open accepted interior corruption")
	} else if !strings.Contains(err.Error(), "corrupted") {
		t.Fatalf("corruption error %q lacks diagnosis", err)
	}
}

func TestCheckpointCompactsAndFiltersTail(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir)
	appendN(t, j, 1, 10, "rec")
	if err := j.WriteCheckpoint(7, []byte("state@7")); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	if got := j.SinceCheckpoint(); got != 3 {
		t.Fatalf("SinceCheckpoint = %d, want 3", got)
	}
	appendN(t, j, 2, 2, "post")
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2, rec := mustOpen(t, dir)
	defer func() { _ = j2.Close() }()
	if string(rec.Checkpoint) != "state@7" || rec.CheckpointSeq != 7 {
		t.Fatalf("checkpoint = (%q, %d), want (state@7, 7)", rec.Checkpoint, rec.CheckpointSeq)
	}
	wantSeqs := []uint64{8, 9, 10, 11, 12}
	if len(rec.Tail) != len(wantSeqs) {
		t.Fatalf("tail %d records, want %d", len(rec.Tail), len(wantSeqs))
	}
	for i, r := range rec.Tail {
		if r.Seq != wantSeqs[i] {
			t.Fatalf("tail[%d].Seq = %d, want %d", i, r.Seq, wantSeqs[i])
		}
	}
	if got := j2.LastSeq(); got != 12 {
		t.Fatalf("LastSeq = %d, want 12", got)
	}
}

func TestCrashBetweenCheckpointAndCompactSkipsStaleRecords(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir)
	appendN(t, j, 1, 6, "rec")
	// Capture the WAL as it looks before the checkpoint's compaction...
	preCompact, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatalf("read wal: %v", err)
	}
	if err := j.WriteCheckpoint(4, []byte("state@4")); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// ...and restore it: this is exactly the on-disk state after a crash
	// between the checkpoint rename and the WAL compaction rename.
	if err := os.WriteFile(filepath.Join(dir, walName), preCompact, 0o644); err != nil {
		t.Fatalf("restore pre-compact wal: %v", err)
	}

	j2, rec := mustOpen(t, dir)
	defer func() { _ = j2.Close() }()
	if rec.CheckpointSeq != 4 {
		t.Fatalf("CheckpointSeq = %d, want 4", rec.CheckpointSeq)
	}
	if len(rec.Tail) != 2 || rec.Tail[0].Seq != 5 || rec.Tail[1].Seq != 6 {
		t.Fatalf("tail = %+v, want seqs 5,6 only (stale records skipped)", rec.Tail)
	}
	if got := j2.LastSeq(); got != 6 {
		t.Fatalf("LastSeq = %d, want 6", got)
	}
}

func TestStaleTempFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir)
	appendN(t, j, 1, 3, "rec")
	if err := j.WriteCheckpoint(2, []byte("state@2")); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// A crash mid-replace leaves temp files behind; they must not shadow
	// the committed ones.
	for _, tmp := range []string{ckptName + ".tmp", walName + ".tmp"} {
		if err := os.WriteFile(filepath.Join(dir, tmp), []byte("garbage from a dying process"), 0o644); err != nil {
			t.Fatalf("plant temp: %v", err)
		}
	}
	j2, rec := mustOpen(t, dir)
	defer func() { _ = j2.Close() }()
	if string(rec.Checkpoint) != "state@2" || len(rec.Tail) != 1 || rec.Tail[0].Seq != 3 {
		t.Fatalf("recovery with stale temps = (%q, %+v)", rec.Checkpoint, rec.Tail)
	}
	for _, tmp := range []string{ckptName + ".tmp", walName + ".tmp"} {
		if _, err := os.Stat(filepath.Join(dir, tmp)); !os.IsNotExist(err) {
			t.Fatalf("stale temp %s survived Open", tmp)
		}
	}
}

func TestCorruptedCheckpointRefused(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir)
	appendN(t, j, 1, 3, "rec")
	if err := j.WriteCheckpoint(3, []byte("state@3")); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	path := filepath.Join(dir, ckptName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}
	data[len(data)-2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write corrupted checkpoint: %v", err)
	}
	if _, _, err := Open(dir); err == nil {
		t.Fatalf("Open accepted corrupted checkpoint")
	}
}

func TestCheckpointWatermarkValidation(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir)
	defer func() { _ = j.Close() }()
	appendN(t, j, 1, 5, "rec")
	if err := j.WriteCheckpoint(0, nil); err == nil {
		t.Fatalf("accepted zero watermark")
	}
	if err := j.WriteCheckpoint(6, nil); err == nil {
		t.Fatalf("accepted watermark beyond last append")
	}
	if err := j.WriteCheckpoint(4, []byte("s4")); err != nil {
		t.Fatalf("WriteCheckpoint(4): %v", err)
	}
	if err := j.WriteCheckpoint(3, []byte("s3")); err == nil {
		t.Fatalf("accepted watermark regression")
	}
	// Re-checkpointing at the same watermark is legal (idempotent refresh).
	if err := j.WriteCheckpoint(4, []byte("s4b")); err != nil {
		t.Fatalf("same-watermark refresh: %v", err)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir)
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := j.Append(1, []byte("x")); err == nil {
		t.Fatalf("Append after Close succeeded")
	}
	if err := j.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestOversizeBodyRefused(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir)
	defer func() { _ = j.Close() }()
	if _, err := j.Append(1, make([]byte, walFormat.MaxBody+1)); err == nil {
		t.Fatalf("oversize body accepted")
	}
}

// TestReplaceFailureLeavesJournalUsable: a checkpoint whose temp file cannot
// be created, and a WAL compaction whose temp file cannot be created, both
// report the error and leave the journal appending to the WAL it had.
func TestReplaceFailureLeavesJournalUsable(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir)
	appendN(t, j, 1, 4, "rec")

	ckptTmp := filepath.Join(dir, ckptName+".tmp")
	if err := os.Mkdir(ckptTmp, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := j.WriteCheckpoint(2, []byte("state@2")); err == nil {
		t.Fatalf("WriteCheckpoint succeeded with a directory in the checkpoint temp's place")
	}
	if got := j.CheckpointSeq(); got != 0 {
		t.Fatalf("failed checkpoint moved the watermark to %d", got)
	}
	appendN(t, j, 1, 1, "after-ckpt-failure")
	if err := os.Remove(ckptTmp); err != nil {
		t.Fatal(err)
	}

	walTmp := filepath.Join(dir, walName+".tmp")
	if err := os.Mkdir(walTmp, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := j.WriteCheckpoint(3, []byte("state@3")); err == nil {
		t.Fatalf("WriteCheckpoint succeeded with a directory in the WAL temp's place")
	}
	// The checkpoint itself committed; only the compaction failed, which is
	// the crash-between-renames state recovery already handles.
	appendN(t, j, 1, 1, "after-compact-failure")
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2, rec := mustOpen(t, dir) // clears the (empty) directory like any stale temp
	defer func() { _ = j2.Close() }()
	if string(rec.Checkpoint) != "state@3" || rec.CheckpointSeq != 3 || rec.TornBytes != 0 {
		t.Fatalf("recovered checkpoint (%q, %d), %d torn", rec.Checkpoint, rec.CheckpointSeq, rec.TornBytes)
	}
	wantBodies := []string{"rec-3", "after-ckpt-failure-0", "after-compact-failure-0"}
	if len(rec.Tail) != len(wantBodies) {
		t.Fatalf("tail = %+v, want %v", rec.Tail, wantBodies)
	}
	for i, r := range rec.Tail {
		if r.Seq != uint64(4+i) || string(r.Body) != wantBodies[i] {
			t.Fatalf("tail[%d] = (%d, %q), want (%d, %q)", i, r.Seq, r.Body, 4+i, wantBodies[i])
		}
	}
}

// TestParentFormatRefused: the pre-seglog magics are not read; the error
// names the file so the operator knows which directory to delete.
func TestParentFormatRefused(t *testing.T) {
	for name, magic := range map[string]string{walName: "MPROSWJ1", ckptName: "MPROSCK1"} {
		dir := t.TempDir()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(magic+"\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := Open(dir)
		if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "magic") {
			t.Errorf("%s: error %v, want one naming the file and its magic", name, err)
		}
	}
}

// TestAppendFailureIsSticky: once a WAL write or fsync has failed, the
// journal must not hand the same jseq out again — a second record under it,
// after whatever bytes the failed write left, would make recovery refuse the
// whole file. Every later append returns the first error, single or batch,
// and a reopen recovers exactly what was acknowledged.
func TestAppendFailureIsSticky(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir)
	appendN(t, j, 1, 2, "acked")
	if first, err := j.AppendBatch(2, [][]byte{[]byte("b0"), []byte("b1"), []byte("b2")}); err != nil || first != 3 {
		t.Fatalf("AppendBatch = (%d, %v), want first jseq 3", first, err)
	}
	// Over the body limit: refused before anything is written, so the log
	// itself has not failed and the next append still goes through.
	if _, err := j.Append(1, make([]byte, walFormat.MaxBody+1)); err == nil {
		t.Fatal("oversized body accepted")
	}
	if seq, err := j.Append(1, []byte("after-oversize")); err != nil || seq != 6 {
		t.Fatalf("Append after an oversized body = (%d, %v), want jseq 6", seq, err)
	}
	if err := j.Err(); err != nil {
		t.Fatalf("Err = %v on a journal that still takes appends", err)
	}

	// Pull the file out from under the journal: every write now fails.
	if err := j.wal.Close(); err != nil {
		t.Fatalf("close wal behind the journal's back: %v", err)
	}
	_, firstErr := j.Append(1, []byte("lost"))
	if firstErr == nil {
		t.Fatal("append on a closed file succeeded")
	}
	if _, err := j.Append(1, []byte("lost too")); err != firstErr {
		t.Fatalf("second append returned %v, want the first failure %v", err, firstErr)
	}
	if _, err := j.AppendBatch(1, [][]byte{[]byte("x"), []byte("y")}); err != firstErr {
		t.Fatalf("batch append returned %v, want the first failure %v", err, firstErr)
	}
	if got := j.LastSeq(); got != 6 {
		t.Fatalf("LastSeq = %d after failed appends, want 6", got)
	}
	if err := j.Err(); err != firstErr {
		t.Fatalf("Err = %v, want the first failure %v", err, firstErr)
	}
	_ = j.Close() // the file is already closed; Close still marks the journal closed
	if _, err := j.Append(1, []byte("z")); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("append after Close = %v, want the closed error", err)
	}
	if err := j.Err(); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("Err after Close = %v, want the closed error", err)
	}

	j2, rec := mustOpen(t, dir)
	defer func() { _ = j2.Close() }()
	want := []string{"acked-0", "acked-1", "b0", "b1", "b2", "after-oversize"}
	if len(rec.Tail) != len(want) || rec.TornBytes != 0 {
		t.Fatalf("recovered %d records, %d torn bytes; want %d and 0", len(rec.Tail), rec.TornBytes, len(want))
	}
	for i, r := range rec.Tail {
		if r.Seq != uint64(i+1) || string(r.Body) != want[i] {
			t.Fatalf("record %d = seq %d %q, want seq %d %q", i, r.Seq, r.Body, i+1, want[i])
		}
	}
}

// batchWAL journals two single records and then one batch of four, and
// returns the WAL's bytes with the offset at which the batch starts.
func batchWAL(tb testing.TB) (wal []byte, batchStart int, bodies [][]byte) {
	tb.Helper()
	bodies = [][]byte{[]byte("one"), {}, bytes.Repeat([]byte{0xC3}, 300), []byte("four")}
	wal, _ = journalFiles(tb, func(j *Journal) {
		for i := 0; i < 2; i++ {
			if _, err := j.Append(1, []byte("single")); err != nil {
				tb.Fatalf("seed append: %v", err)
			}
		}
		if _, err := j.AppendBatch(2, bodies); err != nil {
			tb.Fatalf("seed batch: %v", err)
		}
	})
	batchLen := 0
	for _, b := range bodies {
		batchLen += 21 + len(b) // seglog's record framing
	}
	return wal, len(wal) - batchLen, bodies
}

// TestBatchTornAtEveryOffset: a batch reaches the file in one write, so a
// crash can cut it anywhere. Whatever the cut, recovery yields the whole
// records below it — a prefix of the batch — truncates the rest as a torn
// tail, and never refuses the WAL.
func TestBatchTornAtEveryOffset(t *testing.T) {
	wal, batchStart, bodies := batchWAL(t)
	for cut := batchStart; cut <= len(wal); cut++ {
		whole, end := 0, batchStart
		for _, b := range bodies {
			if end+21+len(b) > cut {
				break
			}
			end += 21 + len(b)
			whole++
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j, rec, err := Open(dir)
		if err != nil {
			t.Fatalf("cut at %d (batch starts at %d): recovery refused: %v", cut, batchStart, err)
		}
		if len(rec.Tail) != 2+whole || rec.TornBytes != int64(cut-end) {
			t.Fatalf("cut at %d: recovered %d records and %d torn bytes, want %d and %d",
				cut, len(rec.Tail), rec.TornBytes, 2+whole, cut-end)
		}
		for i, r := range rec.Tail[2:] {
			if r.Seq != uint64(3+i) || r.Kind != 2 || !bytes.Equal(r.Body, bodies[i]) {
				t.Fatalf("cut at %d: batch record %d = seq %d kind %d %q", cut, i, r.Seq, r.Kind, r.Body)
			}
		}
		// The next append continues after the recovered prefix.
		if seq, err := j.Append(1, []byte("next")); err != nil || seq != uint64(3+whole) {
			t.Fatalf("cut at %d: next append = (%d, %v), want jseq %d", cut, seq, err, 3+whole)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompactionKeepsExactlyTheRecordsAbove: compaction copies the records
// above the watermark out of the WAL file itself, so where each one ends must
// stay right across appends of every size, batches, checkpoints in a row,
// checkpoints mid-batch, and a reopen that finds stale records below the
// watermark. Every reopen recovers exactly the acknowledged records above the
// last checkpoint.
func TestCompactionKeepsExactlyTheRecordsAbove(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir)
	type rec struct {
		seq  uint64
		kind byte
		body string
	}
	var model []rec // what the WAL must hold above the watermark
	add := func(kind byte, bodies ...string) {
		t.Helper()
		bs := make([][]byte, len(bodies))
		for i, b := range bodies {
			bs[i] = []byte(b)
		}
		first, err := j.AppendBatch(kind, bs)
		if err != nil {
			t.Fatalf("AppendBatch: %v", err)
		}
		for i, b := range bodies {
			model = append(model, rec{first + uint64(i), kind, b})
		}
	}
	checkpoint := func(seq uint64) {
		t.Helper()
		if err := j.WriteCheckpoint(seq, []byte(fmt.Sprintf("state@%d", seq))); err != nil {
			t.Fatalf("WriteCheckpoint(%d): %v", seq, err)
		}
		for len(model) > 0 && model[0].seq <= seq {
			model = model[1:]
		}
		if got := j.SinceCheckpoint(); got != len(model) {
			t.Fatalf("SinceCheckpoint = %d after checkpoint %d, want %d", got, seq, len(model))
		}
	}
	reopen := func(wantCkpt uint64) {
		t.Helper()
		if err := j.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		var r *Recovery
		j, r = mustOpen(t, dir)
		if r.CheckpointSeq != wantCkpt || len(r.Tail) != len(model) {
			t.Fatalf("reopen: checkpoint %d with %d tail records, want %d with %d", r.CheckpointSeq, len(r.Tail), wantCkpt, len(model))
		}
		for i, m := range model {
			if g := r.Tail[i]; g.Seq != m.seq || g.Kind != m.kind || string(g.Body) != m.body {
				t.Fatalf("reopen: tail[%d] = (%d, %d, %q), want (%d, %d, %q)", i, g.Seq, g.Kind, g.Body, m.seq, m.kind, m.body)
			}
		}
		if got := j.SinceCheckpoint(); got != len(model) {
			t.Fatalf("SinceCheckpoint = %d after reopen, want %d", got, len(model))
		}
	}

	add(1, "a", "", strings.Repeat("b", 70000)) // 1-3, one body past the frame buffer's retained size
	add(2, "c")                                 // 4
	checkpoint(2)                               // mid-batch
	add(3, "d", "e")                            // 5-6
	checkpoint(4)
	checkpoint(4) // again at the same watermark: nothing more to drop
	add(1, "f")   // 7
	reopen(4)
	add(2, "g", "h", "i") // 8-10
	checkpoint(8)
	reopen(8)
	checkpoint(10) // everything covered
	add(1, "j")    // 11
	reopen(10)

	// A crash between the checkpoint's rename and the WAL compaction leaves
	// stale records below the watermark; the next compaction must skip them.
	add(3, "k", "l") // 12-13
	pre, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	checkpoint(12)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walName), pre, 0o644); err != nil {
		t.Fatal(err)
	}
	j, _ = mustOpen(t, dir)
	add(1, "m") // 14
	checkpoint(13)
	reopen(13)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAppendBatchAllocatesNothingPerRecord: the journal keeps no copy of a
// record body and nothing per record, so a steady-state append allocates
// nothing at all.
func TestAppendBatchAllocatesNothingPerRecord(t *testing.T) {
	j, _ := mustOpen(t, t.TempDir())
	defer func() { _ = j.Close() }()
	bodies := make([][]byte, 16)
	for i := range bodies {
		bodies[i] = bytes.Repeat([]byte{byte('a' + i)}, 500)
	}
	const runs = 20
	// Warm up, then checkpoint, so the measured appends start from a
	// compacted WAL.
	for range runs + 1 {
		if _, err := j.AppendBatch(3, bodies); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.WriteCheckpoint(j.LastSeq(), []byte("state")); err != nil {
		t.Fatal(err)
	}
	var err error
	allocs := testing.AllocsPerRun(runs, func() {
		if _, aerr := j.AppendBatch(3, bodies); aerr != nil {
			err = aerr
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("AppendBatch of %d records allocates %v times, want 0", len(bodies), allocs)
	}
}

// TestTipCountsTheWALBytesAboveAPin: the journal's byte count grows by each
// record's body plus its frame, so the count at any tip minus the count
// pinned with a checkpoint's watermark is the size of exactly the records
// above it — the WAL file's bytes past its header once the checkpoint has
// dropped the rest. Checkpoints land on batch boundaries and inside batches;
// after a reopen the count starts at the recovered tail's bytes, and stale
// records a crash left below the watermark count for nothing.
func TestTipCountsTheWALBytesAboveAPin(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, walName)
	j, _ := mustOpen(t, dir)
	fileSize := func() uint64 {
		t.Helper()
		fi, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		return uint64(fi.Size())
	}
	header := fileSize() // a fresh WAL holds its header only
	// through[seq] is the byte count at seq: the count starts at zero on a
	// fresh journal and grows by len(body) + the frame per record.
	through := map[uint64]uint64{0: 0}
	last := uint64(0)
	add := func(sizes ...int) {
		t.Helper()
		bodies := make([][]byte, len(sizes))
		for i, n := range sizes {
			bodies[i] = bytes.Repeat([]byte{'x'}, n)
		}
		first, err := j.AppendBatch(1, bodies)
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range sizes {
			through[first+uint64(i)] = through[first+uint64(i)-1] + uint64(n+seglog.RecordOverhead)
		}
		last = first + uint64(len(sizes)) - 1
		if seq, n := j.Tip(); seq != last || n != through[last] {
			t.Fatalf("Tip = (%d, %d) after a batch, want (%d, %d)", seq, n, last, through[last])
		}
	}
	checkpoint := func(seq uint64) {
		t.Helper()
		if err := j.WriteCheckpoint(seq, []byte("state")); err != nil {
			t.Fatalf("WriteCheckpoint(%d): %v", seq, err)
		}
		_, n := j.Tip()
		if above, onDisk := n-through[seq], fileSize()-header; above != through[last]-through[seq] || above != onDisk {
			t.Fatalf("checkpoint %d: count above the pin %d, WAL bytes past the header %d, want %d",
				seq, above, onDisk, through[last]-through[seq])
		}
	}
	reopen := func(ckpt uint64) {
		t.Helper()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		var rec *Recovery
		j, rec = mustOpen(t, dir)
		tail := uint64(0)
		for _, r := range rec.Tail {
			tail += uint64(len(r.Body) + seglog.RecordOverhead)
		}
		seq, n := j.Tip()
		if seq != last || n != tail || n != through[last]-through[ckpt] {
			t.Fatalf("reopen at checkpoint %d: Tip = (%d, %d), want (%d, %d), the tail's bytes", ckpt, seq, n, last, tail)
		}
		// The count restarts at the tail: rebase the model on the watermark.
		base := through[ckpt]
		for s := range through {
			if s < ckpt {
				delete(through, s)
			} else {
				through[s] -= base
			}
		}
	}

	add(10, 0, 300)
	add(70000) // past the frame buffer's retained size
	checkpoint(4)
	add(5, 6, 7, 8) // 5-8
	checkpoint(6)   // inside the batch
	add(1)          // 9
	checkpoint(6)   // again at the same watermark
	add(2, 3)       // 10-11
	checkpoint(9)   // the pin sits between two batches appended since
	reopen(9)
	add(40, 50, 60) // 12-14
	checkpoint(13)
	reopen(13)
	checkpoint(14)
	reopen(14) // nothing above the watermark: the count is zero

	// A crash between the checkpoint's rename and the WAL compaction leaves
	// stale records below the watermark in the file; they are not the tail.
	add(100, 200, 300) // 15-17
	pre, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	checkpoint(16)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, pre, 0o644); err != nil {
		t.Fatal(err)
	}
	reopen(16)
	if _, n := j.Tip(); n != uint64(300+seglog.RecordOverhead) {
		t.Fatalf("count with stale records below the watermark = %d, want one record's %d", n, 300+seglog.RecordOverhead)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

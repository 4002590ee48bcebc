package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// journalFiles builds realistic WAL + checkpoint bytes by driving the real
// write path, for use as fuzz seeds.
func journalFiles(tb testing.TB, mutate func(j *Journal)) (wal, ckpt []byte) {
	tb.Helper()
	dir := tb.TempDir()
	j, _, err := Open(dir)
	if err != nil {
		tb.Fatalf("seed journal: %v", err)
	}
	mutate(j)
	if err := j.Close(); err != nil {
		tb.Fatalf("close seed journal: %v", err)
	}
	wal, err = os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		tb.Fatalf("read seed wal: %v", err)
	}
	ckpt, _ = os.ReadFile(filepath.Join(dir, ckptName)) // may not exist
	return wal, ckpt
}

// walHeaderLen is the seglog header of a WAL: magic, u16 meta length, no meta.
const walHeaderLen = 8 + 2

// FuzzJournalRecover writes arbitrary bytes as the WAL and checkpoint
// files and opens the journal. Recovery must never panic. When it accepts
// the pair, the rebuilt state must be a consistent prefix (tail sequences
// strictly ascending and above the checkpoint watermark, next-append
// sequence beyond everything recovered) and stable: a second open after
// close must see the identical checkpoint and tail, because recovery
// repairs the WAL in place.
func FuzzJournalRecover(f *testing.F) {
	wal, ckpt := journalFiles(f, func(j *Journal) {
		for i := 0; i < 6; i++ {
			if _, err := j.Append(byte(i%3+1), bytes.Repeat([]byte{byte('a' + i)}, i*7)); err != nil {
				f.Fatalf("seed append: %v", err)
			}
		}
		if err := j.WriteCheckpoint(4, []byte(`{"received":4}`)); err != nil {
			f.Fatalf("seed checkpoint: %v", err)
		}
	})
	walOnly, _ := journalFiles(f, func(j *Journal) {
		for i := 0; i < 3; i++ {
			if _, err := j.Append(1, []byte("rec")); err != nil {
				f.Fatalf("seed append: %v", err)
			}
		}
	})
	f.Add(wal, ckpt)
	f.Add(walOnly, []byte(nil))       // no checkpoint yet
	f.Add(wal[:len(wal)-3], ckpt)     // torn WAL tail mid-record
	f.Add(wal[:walHeaderLen+5], ckpt) // torn first record
	f.Add(wal[:3], ckpt)              // torn header
	f.Add(wal, ckpt[:len(ckpt)-2])    // truncated checkpoint
	flippedWAL := bytes.Clone(wal)
	flippedWAL[len(flippedWAL)-1] ^= 0x40
	f.Add(flippedWAL, ckpt) // CRC breaks on the last WAL record
	flippedCkpt := bytes.Clone(ckpt)
	flippedCkpt[len(flippedCkpt)/2] ^= 0x01
	f.Add(wal, flippedCkpt) // checkpoint body corrupted
	batched, batchStart, _ := batchWAL(f)
	f.Add(batched, []byte(nil))                 // a four-record batch from a single write
	f.Add(batched[:batchStart+30], []byte(nil)) // … cut inside its second record
	f.Add([]byte{}, []byte{})
	f.Add([]byte(walFormat.Magic+" but not really a journal"), []byte(ckptFormat.Magic+" nor a checkpoint"))
	// What the PDME writes: one run of report frames as received (its kind 3)
	// in a single write, a heartbeat, and a checkpoint under the run's head.
	frames, framesCkpt := journalFiles(f, func(j *Journal) {
		run := [][]byte{
			[]byte(`{"kind":"report","report":{"dc_id":"dc-1","knowledge_source_id":"ks/dli","sensed_object_id":"motor/1","machine_condition_id":"motor imbalance","severity":0.5,"belief":0.8,"timestamp":"1998-08-15T12:00:00Z"},"dc":"dc-1","boot":7,"seq":1}`),
			[]byte(`{"kind":"report","report":{"dc_id":"dc-1","knowledge_source_id":"ks/dli","sensed_object_id":"motor/1","machine_condition_id":"oil whirl","severity":0.25,"belief":0.5,"timestamp":"1998-08-15T12:01:00Z"},"dc":"dc-1","boot":7,"seq":2}`),
		}
		if _, err := j.AppendBatch(3, run); err != nil {
			f.Fatalf("seed frames: %v", err)
		}
		if _, err := j.Append(2, []byte(`{"dc_id":"dc-1","sent_at":"1998-08-15T12:05:00Z"}`)); err != nil {
			f.Fatalf("seed heartbeat: %v", err)
		}
		if err := j.WriteCheckpoint(1, []byte(`{"received":1}`)); err != nil {
			f.Fatalf("seed checkpoint: %v", err)
		}
	})
	f.Add(frames, framesCkpt)
	f.Add(frames[:len(frames)-40], framesCkpt) // … torn inside the heartbeat

	f.Fuzz(func(t *testing.T, walData, ckptData []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), walData, 0o644); err != nil {
			t.Fatal(err)
		}
		if len(ckptData) > 0 {
			if err := os.WriteFile(filepath.Join(dir, ckptName), ckptData, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		j, rec, err := Open(dir)
		if err != nil {
			return // refused input: any error is acceptable, panics are not
		}
		prev := rec.CheckpointSeq
		for i, r := range rec.Tail {
			if r.Seq <= prev {
				t.Fatalf("tail[%d] seq %d not above %d", i, r.Seq, prev)
			}
			prev = r.Seq
		}
		if last := j.LastSeq(); last < prev {
			t.Fatalf("LastSeq %d behind recovered tail %d", last, prev)
		}
		if err := j.Close(); err != nil {
			t.Fatalf("close recovered journal: %v", err)
		}

		j2, rec2, err := Open(dir)
		if err != nil {
			t.Fatalf("recovery not stable: reopen failed: %v", err)
		}
		defer func() { _ = j2.Close() }()
		if !bytes.Equal(rec2.Checkpoint, rec.Checkpoint) || rec2.CheckpointSeq != rec.CheckpointSeq {
			t.Fatalf("checkpoint changed across reopen")
		}
		if rec2.TornBytes != 0 {
			t.Fatalf("second recovery still torn: %d bytes", rec2.TornBytes)
		}
		if len(rec2.Tail) != len(rec.Tail) {
			t.Fatalf("tail count changed across reopen: %d then %d", len(rec.Tail), len(rec2.Tail))
		}
		for i, r := range rec2.Tail {
			if r.Seq != rec.Tail[i].Seq || r.Kind != rec.Tail[i].Kind || !bytes.Equal(r.Body, rec.Tail[i].Body) {
				t.Fatalf("tail[%d] changed across reopen", i)
			}
		}
	})
}

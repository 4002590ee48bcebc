// Package journal is the PDME's durability substrate: a write-ahead log of
// accepted envelopes plus an atomically-replaced checkpoint of the derived
// state, so a SIGKILL'd engine recovers by checkpoint-load + tail-replay
// instead of losing the fleet's diagnosis.
//
// Layering: this package knows nothing about reports, heartbeats, or fusion.
// Records are (kind, body) blobs under a monotonically increasing journal
// sequence (jseq); the checkpoint is an opaque blob pinned to the jseq
// watermark it covers. The PDME owns both encodings.
//
// Both files are seglog logs (see internal/seglog and DESIGN.md, "On-disk
// logs"): the WAL is one record per accepted envelope, kind and jseq in the
// frame, fsynced before Append returns — a batch of envelopes shares one
// write and one fsync; the checkpoint is a one-record file
// whose sequence is the watermark, replaced whole. On top of seglog's
// torn-tail/corruption rule the journal refuses a WAL whose jseqs do not
// strictly ascend.
//
// After a checkpoint commits, the WAL drops the records at or below the
// watermark (seglog's prefix drop, which copies the kept records' bytes):
// the journal keeps no copy of a record body and no file offset. A crash
// between the two renames leaves stale records (jseq ≤ watermark) in the
// WAL; recovery skips them by sequence, so the pair of files is consistent
// no matter where the crash lands.
//
// The journal counts the WAL bytes it appends — each record's body plus
// seglog's frame, those of the tail Open recovered included — beside its
// next jseq, and writes the count nowhere (see Tip). When to checkpoint is
// the owner's call: the PDME pins the count with the watermark and paces its
// automatic checkpoints by the bytes appended since (pdme.JournalOptions).
package journal

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/seglog"
)

const (
	walName  = "wal.mprosj"
	ckptName = "checkpoint.mprosc"
)

// MaxBody is the largest record body the WAL takes; AppendBatch refuses a
// batch holding a larger one without writing anything.
const MaxBody = 1 << 20

var (
	walFormat = seglog.Format{Magic: "MPROSWJ2", MaxBody: MaxBody}
	// The checkpoint bound sits far above any real snapshot; it exists only
	// so a corrupted length field cannot drive a giant allocation.
	ckptFormat = seglog.Format{Magic: "MPROSCK2", MaxBody: 1 << 28}
)

// Record is one journaled envelope: an opaque body under a caller-chosen
// kind byte and the jseq the journal assigned at append time.
type Record struct {
	Seq  uint64
	Kind byte
	Body []byte
}

// Recovery reports what Open found on disk: the durable checkpoint blob
// (nil when none has ever been written), the watermark it covers, the live
// WAL tail (records above the watermark, in append order), and how many
// torn bytes were truncated from the WAL.
type Recovery struct {
	Checkpoint    []byte
	CheckpointSeq uint64
	Tail          []Record
	TornBytes     int64
}

// Journal is a single-writer WAL + checkpoint pair rooted in one
// directory. Safe for concurrent use; Append, WriteCheckpoint, and Close
// serialize internally.
type Journal struct {
	mu     sync.Mutex
	dir    string
	wal    *seglog.Log
	closed bool

	nextSeq uint64
	// appended is the WAL bytes of the records through nextSeq−1, counted
	// from the tail Open recovered; see Tip.
	appended uint64
	ckpt     uint64 // watermark of the durable checkpoint (0 = none)
	// failed is the first WAL write or fsync error; see AppendBatch.
	failed error
	frames []seglog.Record // AppendBatch's framing scratch, reused
}

// Open opens (creating if needed) the journal in dir, recovering the
// checkpoint and WAL tail. A torn WAL tail is truncated; interior
// corruption in either file is refused with an error.
func Open(dir string) (*Journal, *Recovery, error) {
	if dir == "" {
		return nil, nil, fmt.Errorf("journal: empty dir")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: create dir: %w", err)
	}
	j := &Journal{dir: dir, nextSeq: 1}
	rec := &Recovery{}

	blob, ckptSeq, err := readCheckpoint(filepath.Join(dir, ckptName))
	if err != nil {
		return nil, nil, err
	}
	if ckptSeq != 0 {
		j.ckpt = ckptSeq
		j.nextSeq = ckptSeq + 1
		rec.Checkpoint = blob
		rec.CheckpointSeq = ckptSeq
	}

	prevSeq := uint64(0)
	j.wal, rec.TornBytes, err = seglog.Open(filepath.Join(dir, walName), walFormat, nil, func(r seglog.Record) error {
		if r.Seq == math.MaxUint64 {
			// A legitimate writer can never reach the last sequence;
			// accepting it would overflow nextSeq back to zero.
			return fmt.Errorf("implausible sequence")
		}
		if r.Seq <= prevSeq {
			// The writer assigns strictly ascending jseqs; a regression is
			// not something a torn single-write append can produce.
			return fmt.Errorf("non-ascending sequence %d after %d", r.Seq, prevSeq)
		}
		prevSeq = r.Seq
		if r.Seq <= j.ckpt {
			// Records at or below the watermark are a crash between the
			// checkpoint rename and the WAL compaction: already covered.
			return nil
		}
		rec.Tail = append(rec.Tail, Record{Seq: r.Seq, Kind: r.Kind, Body: bytes.Clone(r.Body)})
		j.appended += recordBytes(r.Body)
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	if prevSeq >= j.nextSeq {
		j.nextSeq = prevSeq + 1
	}
	return j, rec, nil
}

// readCheckpoint loads and verifies the checkpoint file: exactly one whole
// record whose sequence is the watermark. A missing file is (nil, 0, nil);
// anything present but malformed is refused — checkpoints are replaced
// atomically, so a damaged one is external corruption, not a crash
// artifact.
func readCheckpoint(path string) (blob []byte, seq uint64, err error) {
	_, err = seglog.Scan(path, ckptFormat, func(r seglog.Record) error {
		if seq != 0 {
			return fmt.Errorf("second record in a checkpoint")
		}
		if r.Seq == 0 || r.Seq == math.MaxUint64 {
			return fmt.Errorf("implausible checkpoint watermark")
		}
		// Non-nil even when empty: a nil Recovery.Checkpoint means "none".
		blob, seq = append([]byte{}, r.Body...), r.Seq
		return nil
	})
	if errors.Is(err, fs.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	if seq == 0 {
		return nil, 0, fmt.Errorf("journal: %s: checkpoint holds no record (corrupted)", path)
	}
	return blob, seq, nil
}

// recordBytes is what a record with this body occupies in the WAL.
func recordBytes(body []byte) uint64 { return uint64(len(body) + seglog.RecordOverhead) }

// Append journals one record, returning its jseq: the batch of one.
func (j *Journal) Append(kind byte, body []byte) (uint64, error) {
	return j.AppendBatch(kind, [][]byte{body})
}

// AppendBatch journals one record of the given kind per body under
// consecutive jseqs, with one write and one fsync, and returns the first
// jseq. Every record is durable when it returns — callers mutate derived
// state only after. A crash between the write and the fsync may keep a
// prefix of the batch, which recovery replays like any other tail.
//
// The first write or fsync failure is final: bytes of unknown extent may sit
// past the last acknowledged record, and writing the same jseq after them
// would make the whole WAL unrecoverable, so every later append returns that
// first error. Close and WriteCheckpoint still work.
func (j *Journal) AppendBatch(kind byte, bodies [][]byte) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.unusable(); err != nil {
		return 0, err
	}
	first := j.nextSeq
	recs := j.frames[:0]
	size := uint64(0)
	for i, body := range bodies {
		recs = append(recs, seglog.Record{Kind: kind, Seq: first + uint64(i), Body: body})
		size += recordBytes(body)
	}
	err := j.wal.AppendBatch(recs)
	if err == nil {
		err = j.wal.Sync()
	}
	clear(recs) // the bodies are the caller's
	j.frames = recs[:0]
	if err != nil {
		err = fmt.Errorf("journal: %w", err)
		if !errors.Is(err, seglog.ErrBodyTooLarge) { // that one wrote nothing
			j.failed = err
		}
		return 0, err
	}
	j.nextSeq = first + uint64(len(bodies))
	j.appended += size
	return first, nil
}

// WriteCheckpoint durably replaces the checkpoint with blob covering every
// record with jseq ≤ seq, then drops the WAL's records at or below seq. The
// checkpoint commits at the rename: a crash before it keeps the old
// checkpoint, a crash after it but before the WAL compaction leaves stale
// records that recovery skips by sequence.
func (j *Journal) WriteCheckpoint(seq uint64, blob []byte) error {
	if seq == 0 || seq == math.MaxUint64 {
		return fmt.Errorf("journal: implausible checkpoint watermark %d", seq)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: closed")
	}
	if seq >= j.nextSeq {
		return fmt.Errorf("journal: checkpoint watermark %d beyond last append %d", seq, j.nextSeq-1)
	}
	if seq < j.ckpt {
		return fmt.Errorf("journal: checkpoint watermark %d behind durable checkpoint %d", seq, j.ckpt)
	}
	err := seglog.WriteFile(filepath.Join(j.dir, ckptName), ckptFormat, nil, func(w *seglog.Log) error {
		return w.Append(0, seq, blob)
	})
	if err != nil {
		return fmt.Errorf("journal: write checkpoint: %w", err)
	}
	j.ckpt = seq

	// The WAL holds every record above the previous watermark under
	// consecutive jseqs, so the records above seq are its newest
	// LastSeq − seq. Were there gaps, those would be fewer: the drop then
	// keeps more than it needs, never less.
	next, keep := j.wal.Next(), j.nextSeq-1-seq
	if err := j.wal.DropBefore(next - min(keep, next)); err != nil {
		return fmt.Errorf("journal: compact wal: %w", err)
	}
	return nil
}

// Err returns why the journal takes no more appends — it was closed, or the
// write or fsync failure that was final (see AppendBatch) — and nil while it
// still takes them.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.unusable()
}

func (j *Journal) unusable() error {
	if j.closed {
		return fmt.Errorf("journal: closed")
	}
	return j.failed
}

// LastSeq returns the jseq of the most recent append (0 before any).
func (j *Journal) LastSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.nextSeq - 1
}

// Tip returns the jseq of the most recent append (0 before any) and the WAL
// bytes of the records through it — bodies plus seglog framing — counted
// from the tail Open recovered: right after Open it is exactly that tail's
// bytes. The count lives only in memory. Two tips differ by exactly the bytes
// of the records appended between them, so an owner that pins the tip with
// a checkpoint's watermark knows the WAL bytes above that watermark at any
// later tip.
func (j *Journal) Tip() (seq, walBytes uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.nextSeq - 1, j.appended
}

// CheckpointSeq returns the durable checkpoint watermark (0 when none).
func (j *Journal) CheckpointSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ckpt
}

// SinceCheckpoint returns how many records sit above the durable
// checkpoint — the tail a crash right now would have to replay.
func (j *Journal) SinceCheckpoint() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return int(j.nextSeq - 1 - j.ckpt)
}

// Close syncs and closes the WAL. The journal is unusable afterwards.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if err := j.wal.Close(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

package uplink

import (
	"bytes"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/proto"
	"repro/internal/seglog"
)

// The spool is one seglog file per uplink (see internal/seglog and
// DESIGN.md, "On-disk logs"). Its header meta is u64 boot | DC id; a
// record's sequence is the delivery id it concerns. Record kinds:
//
//	recFrame   — body is the frame as it goes on the wire (proto.AppendFrame):
//	             a report or, on PDME→PDME forwarding, a fused summary, with
//	             this boot and sequence in it. Both share the sequence space,
//	             so one spool carries them FIFO under one dedup window
//	recAck     — the frame with this sequence was acked by the PDME
//	recDrop    — the frame was dropped by the capacity policy (still final)
//	recSeqMark — sequence watermark written on compaction so monotonic ids
//	             survive a rewrite that leaves no frame records behind
//	recReport, recSummary — the previous release's bare JSON payloads. Not
//	             read: an unresolved one refuses the file
//
// The boot id names the sequence-counter incarnation on the wire (see
// proto.Dedup): a persistent spool keeps it for the file's lifetime, so
// replayed sequences stay deduplicable across DC restarts; an in-memory
// spool draws a fresh one per process, telling the PDME its restarted
// counter is not a replay.
const (
	spoolExt = ".spool"

	recReport  = byte(1)
	recAck     = byte(2)
	recDrop    = byte(3)
	recSeqMark = byte(4)
	recSummary = byte(5)
	recFrame   = byte(6)

	// compactEvery bounds resolved (acked/dropped) records retained in the
	// file before it is rewritten with only pending frames.
	compactEvery = 512
)

var spoolFormat = seglog.Format{Magic: "MPROSUP3", MaxBody: 1 << 20}

// pendingRec is one spooled frame awaiting ack.
type pendingRec struct {
	seq uint64
	// frame is the encoded frame body, as spooled and as sent; summary is its
	// kind (a forwarded fused summary, not a report), which runs are cut by.
	frame   []byte
	summary bool
	// attempts counts sends tried so far; recovered marks a frame replayed
	// from disk after a process restart. Both feed the Replayed counter.
	attempts  int
	recovered bool
	// evicted marks a frame the capacity policy dropped; the sender may still
	// hold it in flight, and its late ack then changes nothing.
	evicted bool
}

// spool is the uplink's store-and-forward queue: every outbound report is
// appended before the first send attempt (write-ahead), and retired by an
// ack record once the PDME confirms it, so anything in flight when the DC
// process dies replays on the next start. With an empty dir the spool is a
// volatile in-memory queue with the same interface.
type spool struct {
	log  *seglog.Log // nil for in-memory
	cap  int
	boot uint64 // sequence-counter incarnation announced on the wire

	nextSeq  uint64
	pending  []*pendingRec   // oldest first
	resolved int             // resolved records in the file since last compact
	acks     []seglog.Record // resolve's framing scratch, reused
	enc      []byte          // add's encode scratch, reused
}

// newBootID draws a random boot incarnation id; zero is reserved for
// untagged frames.
func newBootID() (uint64, error) {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return 0, fmt.Errorf("uplink: draw boot id: %w", err)
	}
	id := binary.LittleEndian.Uint64(b[:])
	if id == 0 {
		id = 1
	}
	return id, nil
}

// openSpool opens (recovering) or creates the spool for dcid under dir.
// An empty dir yields an in-memory spool.
func openSpool(dir, dcid string, capacity int) (*spool, error) {
	if capacity <= 0 {
		capacity = DefaultSpoolCap
	}
	s := &spool{cap: capacity, nextSeq: 1}
	// A fresh boot id for a fresh counter: the in-memory spool's, or the one
	// a new (or torn-at-create) file is born with. An existing file keeps
	// the id in its header.
	boot, err := newBootID()
	if err != nil {
		return nil, err
	}
	s.boot = boot
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("uplink: create spool dir: %w", err)
	}
	path := filepath.Join(dir, seglog.FileName(dcid, spoolExt))
	meta := append(binary.LittleEndian.AppendUint64(nil, boot), dcid...)

	// Pending frames, the sequence watermark and the resolved-record count
	// come back from the records; frames keep first-append order.
	frames := make(map[uint64]*pendingRec)
	var order []uint64
	resolved := make(map[uint64]bool)
	var maxSeq uint64
	s.log, _, err = seglog.Open(path, spoolFormat, meta, func(r seglog.Record) error {
		if r.Seq == math.MaxUint64 {
			// A legitimate writer can never reach the last sequence; accepting
			// it would overflow the nextSeq watermark back to zero.
			return fmt.Errorf("implausible sequence")
		}
		maxSeq = max(maxSeq, r.Seq)
		rec := &pendingRec{seq: r.Seq, recovered: true}
		switch r.Kind {
		case recFrame:
			d, err := proto.DecodeFrame(r.Body)
			if err != nil {
				return fmt.Errorf("undecodable frame: %w", err)
			}
			if d.Seq != r.Seq {
				return fmt.Errorf("frame tagged %d under record sequence %d", d.Seq, r.Seq)
			}
			rec.frame, rec.summary = bytes.Clone(r.Body), d.Summary != nil
		case recReport, recSummary:
			// The parent's format: rec stays without a frame.
		case recAck, recDrop:
			resolved[r.Seq] = true
			return nil
		case recSeqMark:
			return nil // watermark only: maxSeq already advanced above
		default:
			return fmt.Errorf("unknown record type %d", r.Kind)
		}
		if _, dup := frames[r.Seq]; !dup {
			frames[r.Seq] = rec
			order = append(order, r.Seq)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("uplink: %w", err)
	}
	meta = s.log.Meta()
	if len(meta) < 8 || string(meta[8:]) != dcid {
		_ = s.log.Close() // best effort: the refusal is the story
		return nil, fmt.Errorf("uplink: %s: spool belongs to DC %q, not %q", path, meta[min(8, len(meta)):], dcid)
	}
	s.boot = binary.LittleEndian.Uint64(meta)
	parentFrames := 0
	for _, seq := range order {
		switch {
		case resolved[seq]:
			s.resolved++
		case frames[seq].frame == nil:
			parentFrames++
		default:
			s.pending = append(s.pending, frames[seq])
		}
	}
	if parentFrames > 0 {
		_ = s.log.Close() // best effort: the refusal is the story
		return nil, fmt.Errorf("uplink: %s: %d unresolved frames in the previous release's record format; drain the spool with the binary that wrote it, then start this one", path, parentFrames)
	}
	s.nextSeq = maxSeq + 1
	// Start compacted: resolved records recovered from a previous run carry
	// no information once pending is rebuilt.
	if s.resolved > 0 {
		if err := s.compact(); err != nil {
			_ = s.log.Close() // best effort: the compaction error is the story
			return nil, err
		}
	}
	return s, nil
}

// appendRecord writes one framed record in a single write.
func (s *spool) appendRecord(typ byte, seq uint64, body []byte) error {
	if s.log == nil {
		return nil
	}
	if err := s.log.Append(typ, seq, body); err != nil {
		return fmt.Errorf("uplink: %w", err)
	}
	return nil
}

// add assigns the next sequence to the payload in d, encodes the frame —
// once: these bytes are what is spooled, sent and journaled at the far end —
// and appends it (write-ahead: the spool entry exists before the first send
// attempt). Reports and summaries share the sequence space and the capacity
// policy, so a single FIFO drains both kinds. When the pending queue exceeds
// capacity the oldest frames are dropped; their sequences are returned so the
// caller can count them.
func (s *spool) add(d *proto.Delivery) (seq uint64, droppedSeqs []uint64, err error) {
	d.Boot, d.Seq = s.boot, s.nextSeq
	enc, err := proto.AppendFrame(s.enc[:0], d)
	if err != nil {
		return 0, nil, fmt.Errorf("uplink: encode spool frame: %w", err)
	}
	s.enc = enc[:0]
	rec := &pendingRec{seq: d.Seq, frame: bytes.Clone(enc), summary: d.Summary != nil}
	s.nextSeq++
	if err := s.appendRecord(recFrame, rec.seq, rec.frame); err != nil {
		return 0, nil, err
	}
	s.pending = append(s.pending, rec)
	for len(s.pending) > s.cap {
		oldest := s.popHead()
		oldest.evicted = true
		droppedSeqs = append(droppedSeqs, oldest.seq)
		if err := s.appendRecord(recDrop, oldest.seq, nil); err != nil {
			return 0, nil, err
		}
		s.resolved++
	}
	if err := s.maybeCompact(); err != nil {
		return 0, nil, err
	}
	return rec.seq, droppedSeqs, nil
}

// popHead removes and returns the oldest pending frame.
func (s *spool) popHead() *pendingRec {
	head := s.pending[0]
	s.pending[0] = nil // the backing array must not pin a retired frame
	s.pending = s.pending[1:]
	return head
}

// headRun appends the head-of-line run to dst: the oldest pending frame and
// the frames of its kind that follow it, up to proto.MaxRun.
func (s *spool) headRun(dst []*pendingRec) []*pendingRec {
	for _, rec := range s.pending {
		if len(dst) == proto.MaxRun || (len(dst) > 0 && rec.summary != dst[0].summary) {
			break
		}
		dst = append(dst, rec)
	}
	return dst
}

// resolve retires the answered (acked or permanently rejected) frames of the
// run headRun returned, in order, with one file write. Only the capacity
// policy removes frames behind the sender's back, and it takes the oldest
// first, so the run's frames not evicted meanwhile are still the head of the
// queue; an evicted one already has its recDrop and is skipped.
func (s *spool) resolve(run []*pendingRec) error {
	acks := s.acks[:0]
	for _, rec := range run {
		if rec.evicted {
			continue
		}
		s.popHead()
		acks = append(acks, seglog.Record{Kind: recAck, Seq: rec.seq})
	}
	s.acks = acks[:0]
	if s.log == nil {
		return nil
	}
	if err := s.log.AppendBatch(acks); err != nil {
		return fmt.Errorf("uplink: %w", err)
	}
	s.resolved += len(acks)
	return s.maybeCompact()
}

func (s *spool) maybeCompact() error {
	if s.log == nil || s.resolved < compactEvery {
		return nil
	}
	return s.compact()
}

// compact rewrites the file with only the pending frames plus a sequence
// watermark. A failed rewrite leaves the old file and handle in place.
func (s *spool) compact() error {
	err := s.log.Rewrite(func(w *seglog.Log) error {
		if s.nextSeq > 1 {
			if err := w.Append(recSeqMark, s.nextSeq-1, nil); err != nil {
				return err
			}
		}
		for _, rec := range s.pending {
			if err := w.Append(recFrame, rec.seq, rec.frame); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("uplink: compact spool: %w", err)
	}
	s.resolved = 0
	return nil
}

// close syncs and closes the spool file; pending frames stay on disk for
// the next open.
func (s *spool) close() error {
	if s.log == nil {
		return nil
	}
	return s.log.Close()
}

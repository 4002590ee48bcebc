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
//	recAck     — the PDME answered every frame up to this sequence
//	recDrop    — the capacity policy dropped every frame up to this sequence
//	recSeqMark — a sequence watermark the previous release wrote on
//	             compaction; read, resolves nothing, no longer written
//	recReport, recSummary — the previous release's bare JSON payloads. Not
//	             read: an unresolved one refuses the file
//
// Frames are resolved oldest first (resolve retires the head run, the
// capacity policy evicts the head), so one ack or drop record carries a whole
// run. Recovery: pending is the frames above the highest resolved sequence,
// in file order; the next sequence follows the highest one in the file.
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

	// compactEvery is how many frames are resolved (acked or dropped)
	// between compactions.
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
	ord     uint64 // its record's ordinal in the spool file
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
	pending  []*pendingRec // oldest first
	resolved int           // frames resolved since the last compaction
	// markOrd and doneOrd are the ordinals of the newest record carrying the
	// highest sequence and of the newest carrying the highest resolved one
	// (Next when there is none): what a compaction keeps besides pending.
	markOrd, doneOrd uint64
	enc              []byte // add's encode scratch, reused
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

	// Frames keep first-append order; the highest resolved sequence, the
	// highest sequence and the ordinals of the records carrying them come
	// back from the whole file.
	frames := make(map[uint64]bool)
	var order []*pendingRec
	var next, done, maxSeq uint64 // done: frames below it are resolved
	s.log, _, err = seglog.Open(path, spoolFormat, meta, func(r seglog.Record) error {
		if r.Seq == math.MaxUint64 {
			// A legitimate writer can never reach the last sequence; accepting
			// it would overflow the nextSeq watermark back to zero.
			return fmt.Errorf("implausible sequence")
		}
		ord := next
		next++
		if r.Seq >= maxSeq {
			maxSeq, s.markOrd = r.Seq, ord
		}
		rec := &pendingRec{seq: r.Seq, recovered: true, ord: ord}
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
			if r.Seq+1 >= done {
				done, s.doneOrd = r.Seq+1, ord
			}
			return nil
		case recSeqMark:
			return nil // watermark only: maxSeq already advanced above
		default:
			return fmt.Errorf("unknown record type %d", r.Kind)
		}
		if !frames[r.Seq] {
			frames[r.Seq] = true
			order = append(order, rec)
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
	if done == 0 {
		s.doneOrd = next
	}
	parentFrames := 0
	for _, rec := range order {
		switch {
		case rec.seq < done:
		case rec.frame == nil:
			parentFrames++
		default:
			s.pending = append(s.pending, rec)
		}
	}
	if parentFrames > 0 {
		_ = s.log.Close() // best effort: the refusal is the story
		return nil, fmt.Errorf("uplink: %s: %d unresolved frames in the previous release's record format; drain the spool with the binary that wrote it, then start this one", path, parentFrames)
	}
	s.nextSeq = maxSeq + 1
	// Start compacted: what a previous run resolved carries no information
	// once pending is rebuilt.
	if err := s.compact(); err != nil {
		_ = s.log.Close() // best effort: the compaction error is the story
		return nil, err
	}
	return s, nil
}

// appendRecord writes one framed record in a single write and returns its
// ordinal (0 for the in-memory spool).
func (s *spool) appendRecord(typ byte, seq uint64, body []byte) (uint64, error) {
	if s.log == nil {
		return 0, nil
	}
	ord := s.log.Next()
	if err := s.log.Append(typ, seq, body); err != nil {
		return 0, fmt.Errorf("uplink: %w", err)
	}
	return ord, nil
}

// add assigns the next sequence to the payload in d, encodes the frame —
// once: these bytes are what is spooled, sent and journaled at the far end —
// and appends it (write-ahead: the spool entry exists before the first send
// attempt). Reports and summaries share the sequence space and the capacity
// policy, so a single FIFO drains both kinds. When the pending queue exceeds
// capacity the oldest frames are dropped, under one drop record; their
// sequences are returned so the caller can count them.
func (s *spool) add(d *proto.Delivery) (seq uint64, droppedSeqs []uint64, err error) {
	d.Boot, d.Seq = s.boot, s.nextSeq
	enc, err := proto.AppendFrame(s.enc[:0], d)
	if err != nil {
		return 0, nil, fmt.Errorf("uplink: encode spool frame: %w", err)
	}
	s.enc = enc[:0]
	rec := &pendingRec{seq: d.Seq, frame: bytes.Clone(enc), summary: d.Summary != nil}
	s.nextSeq++
	if rec.ord, err = s.appendRecord(recFrame, rec.seq, rec.frame); err != nil {
		return 0, nil, err
	}
	s.markOrd = rec.ord
	s.pending = append(s.pending, rec)
	for len(s.pending) > s.cap {
		oldest := s.popHead()
		oldest.evicted = true
		droppedSeqs = append(droppedSeqs, oldest.seq)
	}
	if len(droppedSeqs) > 0 {
		if err := s.settle(recDrop, droppedSeqs[len(droppedSeqs)-1], len(droppedSeqs)); err != nil {
			return 0, nil, err
		}
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
// run headRun returned with one ack record. Only the capacity policy removes
// frames behind the sender's back, and it takes the oldest first, so the
// run's frames not evicted meanwhile are still the head of the queue; an
// evicted one already has its drop record and is skipped.
func (s *spool) resolve(run []*pendingRec) error {
	n, last := 0, uint64(0)
	for _, rec := range run {
		if rec.evicted {
			continue
		}
		s.popHead()
		n, last = n+1, rec.seq
	}
	if n == 0 {
		return nil
	}
	return s.settle(recAck, last, n)
}

// settle appends the ack or drop record that resolves every frame up to seq,
// the n frames just taken off the head, and compacts once compactEvery
// frames were resolved since the last compaction.
func (s *spool) settle(kind byte, seq uint64, n int) error {
	if s.log == nil {
		return nil
	}
	ord, err := s.appendRecord(kind, seq, nil)
	if err != nil {
		return err
	}
	s.doneOrd = ord
	if seq == s.nextSeq-1 {
		s.markOrd = ord
	}
	if s.resolved += n; s.resolved < compactEvery {
		return nil
	}
	return s.compact()
}

// compact drops the records a reopen no longer needs: those before the first
// pending frame, the newest record carrying the highest sequence and the
// newest carrying the highest resolved one, so the kept records alone reopen
// to the same state. A compaction that fails before its rename leaves the old
// file and handle in place.
func (s *spool) compact() error {
	keep := min(s.markOrd, s.doneOrd)
	if len(s.pending) > 0 {
		keep = min(keep, s.pending[0].ord)
	}
	if err := s.log.DropBefore(keep); err != nil {
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

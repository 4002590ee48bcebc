package pdme

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"

	"repro/internal/fusion"
	"repro/internal/health"
	"repro/internal/journal"
	"repro/internal/proto"
)

// Durability: every envelope the PDME accepts (report or heartbeat,
// post-dedup) is appended and fsynced to a write-ahead journal before the
// fusion mutation commits — the reports of one run in one write under one
// fsync, none of them applied before it — and a periodic checkpoint
// snapshots the derived state — each source's current report with the pairs'
// report counts, dedup watermarks + boot epochs, health observation history,
// the received counter — so recovery is checkpoint-load + tail-replay rather
// than full-history replay.
//
// Cadence: by default a checkpoint follows the state, not the report count.
// One is due once DefaultCheckpointEvery records sit above the last
// watermark and the WAL bytes appended since reach checkpointPace times the
// last checkpoint's length, so checkpoints write at most 1/checkpointPace of
// the WAL's bytes, and a crash replays at most the larger of those two
// tails plus what arrived while one checkpoint was being written. Before the
// first checkpoint its length is unknown and the record count alone decides.
// JournalOptions.CheckpointEvery > 0 keeps an exact record cadence instead.
//
// Consistency: deliveries hold acceptMu (read side) across journal append
// + fusion mutation + dedup mark; Checkpoint takes the write side, so the
// watermark it pins and the state it captures describe the same accepted
// prefix. The capture copies, in one read of the fuser
// (fusion.DiagnosticFuser.Held), the pointers of the current reports it holds
// — a report is never changed once posted, a newer one replaces it — and the
// counts; the checkpoint is formatted after the lock is released. Recovery
// re-posts the checkpoint's reports and then the WAL tail's into the OOSM,
// where KF folds them as it folds live ones (fuse), so fusion and the
// repository hold the current reports again; the fusion state is a pure
// function of them, the counts and the health registry. The journal is the engine's one durable
// store: the OOSM is working memory, and the DC databases keep every report.

// Journal record kinds. A frame record's body is the report frame as the
// server received it, which replay decodes with the server's own decoder.
// Kind 1, the previous release's re-encoded report, is refused, not read.
const (
	journalKindParentReport = byte(1)
	journalKindHeartbeat    = byte(2)
	journalKindFrame        = byte(3)
)

// DefaultCheckpointEvery is the fewest journaled records above the last
// watermark before an automatic checkpoint when
// JournalOptions.CheckpointEvery is zero. It is a floor, not the cadence:
// the checkpoint also waits until the WAL bytes appended since the last one
// reach checkpointPace times its length, so a large state checkpoints less
// often than every DefaultCheckpointEvery records and a small one exactly
// that often.
const DefaultCheckpointEvery = 1024

// checkpointPace is k in the paced default cadence: a checkpoint is due once
// the WAL has grown by k times the last checkpoint's length. Checkpoint
// bytes written are then at most 1/k of WAL bytes, and a crash replays at
// most k checkpoints' length of WAL above the DefaultCheckpointEvery floor.
const checkpointPace = 2

// checkpointFormat is the checkpoint format this release writes and reads.
// A checkpoint without one (format 0) holds running fusion masses, which
// this release cannot rebuild: OpenJournal refuses it.
const checkpointFormat = 2

// checkpointState is the checkpoint blob: every piece of derived state a
// crash would otherwise lose. Reports are the current reports as report
// frames, sorted by key: what fusion's entries and the OOSM repository hold
// (fuse). JSON keeps float64 bit-exact (Go emits the shortest
// uniquely-decoding representation), which recovery's bit-for-bit
// Ranked/Belief guarantee rests on. Recovery decodes it; Checkpoint writes a
// checkpointCapture, byte for byte json.Marshal of this struct at the same
// moment.
type checkpointState struct {
	Format     int                  `json:"format"`
	Received   int                  `json:"received"`
	Dedup      proto.DedupState     `json:"dedup"`
	Reports    []json.RawMessage    `json:"reports"`
	Counts     []fusion.PairCount   `json:"counts"`
	TotalFused int                  `json:"total_fused"`
	Health     health.RegistryState `json:"health"`
}

// JournalOptions configures the PDME's durability subsystem.
type JournalOptions struct {
	// Dir roots the WAL and checkpoint files.
	Dir string
	// CheckpointEvery is the automatic checkpoint cadence. Positive: exactly
	// every CheckpointEvery journaled records. Zero: paced by the state —
	// at least DefaultCheckpointEvery records and at least twice the last
	// checkpoint's length of WAL bytes since it (the records alone before
	// the first). Negative: no automatic checkpoints — the owner calls
	// Checkpoint itself.
	CheckpointEvery int
}

// RecoveryStats summarizes what OpenJournal restored.
type RecoveryStats struct {
	// CheckpointLoaded reports whether a durable checkpoint was restored;
	// CheckpointSeq is the journal sequence it covered.
	CheckpointLoaded bool
	CheckpointSeq    uint64
	// ReportsReplayed / HeartbeatsReplayed count tail records re-applied on
	// top of the checkpoint; SkippedRecords counts tail records that no
	// longer decode or apply (e.g. a condition removed from the failure
	// groups between runs), and checkpoint reports that no longer do.
	ReportsReplayed    int
	HeartbeatsReplayed int
	SkippedRecords     int
	// TornBytes is how much of an interrupted final append was truncated.
	TornBytes int64
}

// OpenJournal opens (or creates) the durability journal in opts.Dir,
// recovers checkpoint + tail into this PDME, and arms the journaled accept
// path: from here on every accepted envelope is fsynced before its fusion
// mutation commits. Call after ConfigureHealth and before any traffic. A
// read tier attaches after it: recovery restores state outside any write
// window (the checkpoint's counts), so it is refused while one is attached.
func (p *PDME) OpenJournal(opts JournalOptions) (RecoveryStats, error) {
	var stats RecoveryStats
	switch {
	case p.journalHandle() != nil:
		return stats, fmt.Errorf("pdme: journal already open")
	case p.invalidator() != nil:
		return stats, fmt.Errorf("pdme: open the journal before a read tier is attached")
	}
	jr, rec, err := journal.Open(opts.Dir)
	if err != nil {
		return stats, err
	}
	stats.TornBytes = rec.TornBytes
	parentRecords := 0
	for _, r := range rec.Tail {
		if r.Kind == journalKindParentReport {
			parentRecords++
		}
	}
	if parentRecords > 0 {
		_ = jr.Close() // best effort: the refusal is the story
		return stats, fmt.Errorf("pdme: journal %s: the WAL tail holds %d report record(s) in the previous release's format; recover it with the binary that wrote it and stop that cleanly (final checkpoint), then start this one", opts.Dir, parentRecords)
	}
	if rec.Checkpoint != nil {
		var st checkpointState
		if err := json.Unmarshal(rec.Checkpoint, &st); err != nil {
			_ = jr.Close() // best effort: the decode error is the story
			return stats, fmt.Errorf("pdme: decode checkpoint: %w", err)
		}
		if st.Format != checkpointFormat {
			_ = jr.Close() // best effort: the refusal is the story
			return stats, fmt.Errorf("pdme: journal %s: the checkpoint is format %d, this release reads format %d; recover it with the binary that wrote it, or start from an empty directory", opts.Dir, st.Format, checkpointFormat)
		}
		stats.SkippedRecords = p.restoreCheckpoint(&st)
		stats.CheckpointLoaded = true
		stats.CheckpointSeq = rec.CheckpointSeq
	}
	p.setIntake(intakeReplay)
	defer p.setIntake(intakeLive)
	for _, r := range rec.Tail {
		switch r.Kind {
		case journalKindFrame:
			d, err := proto.DecodeFrame(r.Body)
			if err == nil {
				err = p.replayReport(&d)
			}
			if err != nil {
				stats.SkippedRecords++
				continue
			}
			stats.ReportsReplayed++
		case journalKindHeartbeat:
			var hb proto.Heartbeat
			if err := json.Unmarshal(r.Body, &hb); err != nil {
				stats.SkippedRecords++
				continue
			}
			if err := p.Health().ObserveHeartbeat(&hb); err != nil {
				stats.SkippedRecords++
				continue
			}
			stats.HeartbeatsReplayed++
		default:
			stats.SkippedRecords++
		}
	}
	// The journal's byte count starts at the recovered tail's bytes, which
	// are exactly the WAL above the recovered watermark: pinned at zero with
	// the recovered checkpoint's length, a restarted engine paces its
	// checkpoints as it would have without the restart.
	p.mu.Lock()
	p.jrnl = jr
	p.checkpointEvery = opts.CheckpointEvery
	p.checkpointLen = len(rec.Checkpoint)
	p.checkpointTip = 0
	p.mu.Unlock()
	return stats, nil
}

// setIntake switches how fuse takes reports in (intake).
func (p *PDME) setIntake(in intake) {
	p.mu.Lock()
	p.intake = in
	p.mu.Unlock()
}

// restoreCheckpoint loads a checkpoint into the live state and returns how
// many of its reports no longer decode or fold. The health registry comes
// back first, so the conclusions the re-posted reports leave are discounted
// as the registry says; the counts last, over the ones the folds left.
func (p *PDME) restoreCheckpoint(st *checkpointState) (skipped int) {
	p.dedupHandle().Restore(st.Dedup)
	p.Health().RestoreState(st.Health)
	p.setIntake(intakeRestore)
	defer p.setIntake(intakeLive)
	for _, frame := range st.Reports {
		d, err := proto.DecodeFrame(frame)
		if err == nil && d.Report == nil {
			err = fmt.Errorf("pdme: checkpoint frame without a report")
		}
		if err == nil {
			err = p.postReport(d.Report)
		}
		if err != nil {
			skipped++
		}
	}
	p.diag.SetCounts(st.Counts, st.TotalFused)
	p.mu.Lock()
	p.received = st.Received
	p.mu.Unlock()
	return skipped
}

// replayReport re-posts one journaled report as a live accept posts it
// (apply, postReport; fuse records its severity idempotently) and re-marks
// its tag, so a resend after recovery is still a duplicate.
func (p *PDME) replayReport(d *proto.Delivery) error {
	if d.Report == nil {
		return fmt.Errorf("pdme: journaled frame without a report")
	}
	return p.apply(d, p.postReport)
}

// replaySeverity is observeSeverity made idempotent against a disk-backed
// historian that already recorded the sample before the crash: an
// identical (timestamp, value) point in the channel means this replay
// already happened.
func (p *PDME) replaySeverity(name string, at time.Time, severity float64) error {
	if p.hist.HasChannel(name) {
		if it, err := p.hist.Query(name, at, at); err == nil {
			for it.Next() {
				s := it.At()
				if s.At.Equal(at) && math.Float64bits(s.Value) == math.Float64bits(severity) {
					return nil
				}
			}
		}
	}
	return p.observeSeverity(name, at, severity)
}

// checkpointCapture is the derived state as Checkpoint found it under the
// accept lock's write side; appendJSON formats it once the lock is released.
type checkpointCapture struct {
	received int
	dedup    proto.DedupCapture
	// reports are the current reports in fusion's order, sorted by key
	// only in appendJSON: each is immutable once posted.
	reports []*proto.Report
	counts  []fusion.PairCount
	total   int
	health  health.RegistryState
}

// captureCheckpoint takes what a checkpoint holds. Callers hold acceptMu's
// write side, so nothing it reads is mid-delivery.
func (p *PDME) captureCheckpoint() checkpointCapture {
	c := checkpointCapture{
		received: p.ReceivedReports(),
		dedup:    p.dedupHandle().Capture(),
		health:   p.Health().ExportState(),
	}
	c.reports, c.counts, c.total = p.diag.Held(nil)
	return c
}

// appendJSON appends the capture exactly as json.Marshal writes the
// checkpointState of the same moment, sorting its reports in place. The
// health block is small and goes through json.Marshal itself.
func (c *checkpointCapture) appendJSON(dst []byte) ([]byte, error) {
	healthJSON, err := json.Marshal(c.health)
	if err != nil {
		return dst, err
	}
	slices.SortFunc(c.reports, func(a, b *proto.Report) int {
		return cmp.Or(cmp.Compare(a.SensedObjectID, b.SensedObjectID), cmp.Compare(a.MachineConditionID, b.MachineConditionID),
			cmp.Compare(a.DCID, b.DCID), cmp.Compare(a.KnowledgeSourceID, b.KnowledgeSourceID))
	})
	dst = append(dst, `{"format":`...)
	dst = strconv.AppendInt(dst, checkpointFormat, 10)
	dst = append(dst, `,"received":`...)
	dst = strconv.AppendInt(dst, int64(c.received), 10)
	dst = append(dst, `,"dedup":`...)
	dst = c.dedup.AppendJSON(dst)
	dst = append(dst, `,"reports":`...)
	if len(c.reports) == 0 {
		dst = append(dst, "null"...)
	} else {
		for i, r := range c.reports {
			dst = append(dst, "[,"[min(i, 1)])
			if dst, err = proto.AppendReportEnvelope(dst, r, "", 0, 0); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"counts":`...)
	if len(c.counts) == 0 {
		dst = append(dst, "null"...)
	} else {
		for i, pc := range c.counts {
			dst = append(dst, "[,"[min(i, 1)])
			dst = append(dst, `{"component":`...)
			dst = proto.AppendMarshalString(dst, pc.Component)
			dst = append(dst, `,"condition":`...)
			dst = proto.AppendMarshalString(dst, pc.Condition)
			dst = append(dst, `,"reports":`...)
			dst = strconv.AppendInt(dst, int64(pc.Reports), 10)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"total_fused":`...)
	dst = strconv.AppendInt(dst, int64(c.total), 10)
	dst = append(dst, `,"health":`...)
	dst = append(dst, healthJSON...)
	return append(dst, '}'), nil
}

// Checkpoint quiesces the accept path, captures the full derived state at
// the current journal watermark, and durably replaces the checkpoint file
// (after which the WAL is compacted to the records above the watermark).
// The journal's byte count is pinned with the watermark, so the WAL bytes
// the next automatic checkpoint waits for are those of exactly the records
// above it, the ones appended while this one was formatted included.
// The checkpoint is written into one buffer sized from the last one, which
// the file takes as it is. A success clears an earlier checkpoint's failure
// from JournalError.
func (p *PDME) Checkpoint() error {
	jr := p.journalHandle()
	if jr == nil {
		return fmt.Errorf("pdme: no journal open")
	}
	p.acceptMu.Lock()
	seq, tip := jr.Tip()
	if seq == 0 {
		// Nothing accepted since the journal began; nothing to cover.
		p.acceptMu.Unlock()
		return nil
	}
	c := p.captureCheckpoint()
	p.acceptMu.Unlock()
	p.mu.Lock()
	size := p.checkpointLen
	p.mu.Unlock()
	blob, err := c.appendJSON(make([]byte, 0, size+size/8))
	if err != nil {
		return fmt.Errorf("pdme: encode checkpoint: %w", err)
	}
	if err := jr.WriteCheckpoint(seq, blob); err != nil {
		return err
	}
	p.mu.Lock()
	p.checkpointLen = len(blob)
	// Two checkpoints may race to the journal; the later watermark stands.
	p.checkpointTip = max(p.checkpointTip, tip)
	p.journalErr = nil
	p.mu.Unlock()
	return nil
}

// maybeCheckpoint runs an automatic checkpoint when the journal tail has
// outgrown the configured cadence. Single-flight; a failure is recorded
// for JournalError rather than failing the delivery that tripped it (the
// delivery itself is already durable in the WAL).
func (p *PDME) maybeCheckpoint() {
	if !p.checkpointDue() {
		return
	}
	if !p.ckptFlight.TryLock() {
		return // one automatic checkpoint at a time
	}
	defer p.ckptFlight.Unlock()
	if !p.checkpointDue() {
		return // the checkpoint that held the flight covered this tail
	}
	if err := p.Checkpoint(); err != nil {
		p.mu.Lock()
		p.journalErr = err
		p.mu.Unlock()
	}
}

// checkpointDue applies the automatic cadence (JournalOptions.CheckpointEvery)
// to the journal's tail above the last watermark.
func (p *PDME) checkpointDue() bool {
	p.mu.Lock()
	jr, every, size, pinned := p.jrnl, p.checkpointEvery, p.checkpointLen, p.checkpointTip
	p.mu.Unlock()
	if jr == nil || every < 0 {
		return false
	}
	if every > 0 {
		return jr.SinceCheckpoint() >= every
	}
	if jr.SinceCheckpoint() < DefaultCheckpointEvery {
		return false
	}
	if size == 0 {
		return true // no checkpoint yet: its length is unknown
	}
	_, tip := jr.Tip()
	return tip >= pinned+checkpointPace*uint64(size)
}

// JournalError returns what daemons must surface (nil when healthy): why the
// WAL takes no more appends — every delivery is refused as unavailable until
// a restart, senders keep their frames spooled — else the last automatic
// checkpoint failure, which only lengthens the tail a recovery replays.
func (p *PDME) JournalError() error {
	if jr := p.journalHandle(); jr != nil {
		if err := jr.Err(); err != nil {
			return err
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.journalErr
}

// JournalInfo reports whether a journal is open, the last appended
// sequence, the durable checkpoint watermark, and the tail length above
// it.
func (p *PDME) JournalInfo() (open bool, lastSeq, checkpointSeq uint64, tail int) {
	jr := p.journalHandle()
	if jr == nil {
		return false, 0, 0, 0
	}
	return true, jr.LastSeq(), jr.CheckpointSeq(), jr.SinceCheckpoint()
}

func (p *PDME) journalHandle() *journal.Journal {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.jrnl
}

// journalBody admits an accepted envelope's encoding — a report's frame, a
// marshalled heartbeat — as a WAL record body. One over the record limit is
// refused for its own sake, not at the append all of a run shares.
func journalBody(blob []byte, err error) ([]byte, error) {
	if err != nil {
		return nil, fmt.Errorf("pdme: encode journal record: %w", err)
	}
	if len(blob) > journal.MaxBody {
		return nil, fmt.Errorf("pdme: journal record of %d bytes exceeds the %d-byte limit", len(blob), journal.MaxBody)
	}
	return blob, nil
}

// appendJournal journals the encoded envelopes of one accept as records of
// one kind, with one write and one fsync before return. Callers hold
// acceptMu (read side), and encode nothing while no journal is open. A
// failure is the journal's, not the envelopes': it wraps
// proto.ErrUnavailable, so senders keep what they sent and retry.
func (p *PDME) appendJournal(kind byte, blobs [][]byte) error {
	jr := p.journalHandle()
	if jr == nil || len(blobs) == 0 {
		return nil
	}
	if _, err := jr.AppendBatch(kind, blobs); err != nil {
		return fmt.Errorf("pdme: journal accept: %w: %w", proto.ErrUnavailable, err)
	}
	return nil
}

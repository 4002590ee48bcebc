package uplink

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/seglog"
)

func testReport(i int) *proto.Report {
	return &proto.Report{
		DCID:               "dc-1",
		KnowledgeSourceID:  "ks/dli",
		SensedObjectID:     "motor/1",
		MachineConditionID: "motor imbalance",
		Severity:           0.5,
		Belief:             0.8,
		Explanation:        "r" + string(rune('0'+i)),
		Timestamp:          time.Date(1998, 8, 15, 12, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Minute),
	}
}

// reportOf and summaryOf are what the uplink's two doors hand spool.add.
func reportOf(r *proto.Report) *proto.Delivery { return &proto.Delivery{Report: r, DCID: r.DCID} }
func summaryOf(s *proto.FusedSummary) *proto.Delivery {
	return &proto.Delivery{Summary: s, DCID: s.ShardID}
}

// payloadOf decodes the frame a pending record holds, as the server will.
func payloadOf(t *testing.T, rec *pendingRec) proto.Delivery {
	t.Helper()
	d, err := proto.DecodeFrame(rec.frame)
	if err != nil || d.Seq != rec.seq || (d.Summary != nil) != rec.summary {
		t.Fatalf("pending seq %d (summary %v) holds frame %s: decoded seq %d, err %v", rec.seq, rec.summary, rec.frame, d.Seq, err)
	}
	return d
}

func TestSpoolRecoversPendingAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := openSpool(dir, "dc-1", 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		seq, dropped, err := s.add(reportOf(testReport(i)))
		if err != nil || len(dropped) != 0 {
			t.Fatal(seq, dropped, err)
		}
		if seq != uint64(i) {
			t.Fatalf("seq %d, want %d", seq, i)
		}
	}
	if err := s.resolve(s.pending[:1]); err != nil {
		t.Fatal(err)
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}

	s2, err := openSpool(dir, "dc-1", 100)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.close()
	if len(s2.pending) != 2 {
		t.Fatalf("recovered %d pending, want 2", len(s2.pending))
	}
	// The boot incarnation persists with the file, so replayed sequences
	// stay deduplicable on the PDME across DC restarts.
	if s2.boot != s.boot || s2.boot == 0 {
		t.Errorf("boot %d after reopen, want the persisted %d", s2.boot, s.boot)
	}
	for i, rec := range s2.pending {
		if rec.seq != uint64(i+2) || !rec.recovered {
			t.Errorf("pending[%d] = seq %d recovered %v", i, rec.seq, rec.recovered)
		}
		if got, want := payloadOf(t, rec).Report.Explanation, "r"+string(rune('0'+i+2)); got != want {
			t.Errorf("pending[%d] explanation %q, want %q", i, got, want)
		}
	}
	// Monotonic sequences continue where the previous process stopped.
	seq, _, err := s2.add(reportOf(testReport(4)))
	if err != nil || seq != 4 {
		t.Fatalf("next seq %d err %v, want 4", seq, err)
	}
}

func TestSpoolSequenceSurvivesFullDrain(t *testing.T) {
	dir := t.TempDir()
	s, err := openSpool(dir, "dc-1", 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= proto.MaxRun; i++ {
		if _, _, err := s.add(reportOf(testReport(i))); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, seglog.FileName("dc-1", spoolExt))
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// The whole queue is one answered run: one ack record resolves it.
	if err := s.resolve(s.headRun(nil)); err != nil {
		t.Fatal(err)
	}
	if after, err := os.Stat(path); err != nil || after.Size()-before.Size() != 21 {
		t.Fatalf("an answered run of %d frames grew the spool by %d bytes (%v), want one 21-byte record", proto.MaxRun, after.Size()-before.Size(), err)
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	// Reopen compacts (resolved records recovered); the sequence watermark
	// must keep new sequences monotonic — reuse would make the PDME's dedup
	// window swallow brand-new reports.
	s2, err := openSpool(dir, "dc-1", 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.pending) != 0 || s2.nextSeq != proto.MaxRun+1 {
		t.Fatalf("pending %d nextSeq %d, want 0 and %d", len(s2.pending), s2.nextSeq, proto.MaxRun+1)
	}
	if err := s2.close(); err != nil {
		t.Fatal(err)
	}
	// And again, after the compacted file (watermark only) is re-read.
	s3, err := openSpool(dir, "dc-1", 100)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.close()
	if seq, _, err := s3.add(reportOf(testReport(4))); err != nil || seq != proto.MaxRun+1 {
		t.Fatalf("seq %d err %v, want %d", seq, err, proto.MaxRun+1)
	}
}

func TestSpoolTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := openSpool(dir, "dc-1", 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if _, _, err := s.add(reportOf(testReport(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, seglog.FileName("dc-1", spoolExt))
	// Simulate a power loss mid-append: a prefix of a record's frame.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte("SGL1\x01\x02\x00\x00\x00") // record magic, kind, two sequence bytes… and the lights go out
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := openSpool(dir, "dc-1", 100)
	if err != nil {
		t.Fatalf("torn tail not recovered: %v", err)
	}
	defer s2.close()
	if len(s2.pending) != 2 {
		t.Fatalf("recovered %d pending after torn tail, want 2", len(s2.pending))
	}
}

func TestSpoolInteriorCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	s, err := openSpool(dir, "dc-1", 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, _, err := s.add(reportOf(testReport(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, seglog.FileName("dc-1", spoolExt))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF // flip a bit mid-file
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openSpool(dir, "dc-1", 100); err == nil {
		t.Fatal("interior corruption accepted")
	} else if !strings.Contains(err.Error(), "corrupted") && !strings.Contains(err.Error(), "undecodable") {
		t.Errorf("unexpected corruption error: %v", err)
	}
}

func TestSpoolRefusesForeignDCID(t *testing.T) {
	dir := t.TempDir()
	s, err := openSpool(dir, "dc-1", 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	// Rename the spool so another DC id would open the same file.
	old := filepath.Join(dir, seglog.FileName("dc-1", spoolExt))
	if err := os.Rename(old, filepath.Join(dir, seglog.FileName("dc-2", spoolExt))); err != nil {
		t.Fatal(err)
	}
	if _, err := openSpool(dir, "dc-2", 100); err == nil {
		t.Fatal("foreign spool accepted")
	}
}

func TestSpoolCapacityDropsOldest(t *testing.T) {
	s, err := openSpool("", "dc-1", 3)
	if err != nil {
		t.Fatal(err)
	}
	var droppedAll []uint64
	for i := 1; i <= 5; i++ {
		_, dropped, err := s.add(reportOf(testReport(i)))
		if err != nil {
			t.Fatal(err)
		}
		droppedAll = append(droppedAll, dropped...)
	}
	if len(droppedAll) != 2 || droppedAll[0] != 1 || droppedAll[1] != 2 {
		t.Fatalf("dropped %v, want oldest-first [1 2]", droppedAll)
	}
	if len(s.pending) != 3 || s.pending[0].seq != 3 {
		t.Fatalf("pending head %d len %d", s.pending[0].seq, len(s.pending))
	}
}

func TestSpoolCompactionShrinksFile(t *testing.T) {
	dir := t.TempDir()
	s, err := openSpool(dir, "dc-1", 10000)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	// Cycle well past compactEvery resolved records.
	for i := 0; i < compactEvery+10; i++ {
		if _, _, err := s.add(reportOf(testReport(i % 10))); err != nil {
			t.Fatal(err)
		}
		if err := s.resolve(s.pending[:1]); err != nil {
			t.Fatal(err)
		}
	}
	if s.resolved >= compactEvery {
		t.Errorf("resolved count %d never compacted", s.resolved)
	}
	info, err := os.Stat(filepath.Join(dir, seglog.FileName("dc-1", spoolExt)))
	if err != nil {
		t.Fatal(err)
	}
	// A compacted empty spool is just header + watermark; give slack for a
	// few post-compaction records.
	if info.Size() > 4096 {
		t.Errorf("spool file %d bytes after full drain; compaction missing", info.Size())
	}
	if s.nextSeq != uint64(compactEvery+11) {
		t.Errorf("nextSeq %d after compaction, want %d", s.nextSeq, compactEvery+11)
	}
}

// TestSpoolTornHeaderIsATornCreate: a crash during the spool's first write
// leaves a prefix of the header; that opens as a new, empty spool with a
// fresh boot id instead of refusing the uplink forever.
func TestSpoolTornHeaderIsATornCreate(t *testing.T) {
	dir := t.TempDir()
	s, err := openSpool(dir, "dc-1", 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, seglog.FileName("dc-1", spoolExt))
	hdr, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := 8 + 2 + 8 + len("dc-1"); len(hdr) != want {
		t.Fatalf("empty spool is %d bytes, want the %d-byte header", len(hdr), want)
	}
	for cut := 0; cut < len(hdr); cut++ {
		if err := os.WriteFile(path, hdr[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := openSpool(dir, "dc-1", 100)
		if err != nil {
			t.Fatalf("header cut at %d refused: %v", cut, err)
		}
		if len(s2.pending) != 0 || s2.nextSeq != 1 || s2.boot == 0 || s2.boot == s.boot {
			t.Fatalf("header cut at %d: pending %d nextSeq %d boot %d (old %d)", cut, len(s2.pending), s2.nextSeq, s2.boot, s.boot)
		}
		if _, _, err := s2.add(reportOf(testReport(1))); err != nil {
			t.Fatal(err)
		}
		if err := s2.close(); err != nil {
			t.Fatal(err)
		}
		s3, err := openSpool(dir, "dc-1", 100)
		if err != nil {
			t.Fatal(err)
		}
		if len(s3.pending) != 1 || s3.boot != s2.boot {
			t.Fatalf("header cut at %d: reopen pending %d boot %d, want 1 and %d", cut, len(s3.pending), s3.boot, s2.boot)
		}
		if err := s3.close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSpoolCompactionFailureLeavesSpoolUsable: when the compaction that
// compactEvery resolves trigger cannot create its temp file, or cannot
// rename it into place, the error surfaces but the spool keeps appending to
// the file it had, so nothing spooled before or after is lost.
func TestSpoolCompactionFailureLeavesSpoolUsable(t *testing.T) {
	for name, obstruct := range map[string]func(t *testing.T, path string) (restore func()){
		"temp cannot be created": func(t *testing.T, path string) func() {
			if err := os.Mkdir(path+".tmp", 0o755); err != nil {
				t.Fatal(err)
			}
			return func() {} // the reopen clears the (empty) directory like any stale temp
		},
		"rename fails": func(t *testing.T, path string) func() {
			// A non-empty directory where the spool was; the spool's inode
			// stays reachable through a second link.
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
			return func() {
				if err := os.RemoveAll(path); err != nil {
					t.Fatal(err)
				}
				if err := os.Rename(keep, path); err != nil {
					t.Fatal(err)
				}
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := openSpool(dir, "dc-1", 10000)
			if err != nil {
				t.Fatal(err)
			}
			// One frame is pending throughout: each round spools the next
			// and retires the one before it.
			keep, _, err := s.add(reportOf(testReport(1)))
			if err != nil {
				t.Fatal(err)
			}
			restore := obstruct(t, filepath.Join(dir, seglog.FileName("dc-1", spoolExt)))
			failed := false
			for i := 0; i < compactEvery; i++ {
				if keep, _, err = s.add(reportOf(testReport(i % 10))); err != nil {
					t.Fatal(err)
				}
				if err := s.resolve(s.pending[:1]); err != nil {
					failed = true
				}
			}
			if !failed {
				t.Fatal("compaction never failed")
			}
			// The record is appended before the compaction attempt, so it
			// is on disk even though add reports the compaction error.
			_, _, _ = s.add(reportOf(testReport(2)))
			last := s.nextSeq - 1
			if err := s.close(); err != nil {
				t.Fatal(err)
			}
			restore()
			s2, err := openSpool(dir, "dc-1", 10000)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.close()
			if len(s2.pending) != 2 || s2.pending[0].seq != keep || s2.pending[1].seq != last {
				t.Fatalf("recovered pending %d (want seqs %d and %d)", len(s2.pending), keep, last)
			}
			if s2.boot != s.boot {
				t.Fatalf("boot changed across the failed compaction: %d then %d", s.boot, s2.boot)
			}
		})
	}
}

// TestSpoolParentFormatRefused: the pre-seglog spool magic is not read; the
// error names the file so the operator knows what to delete.
func TestSpoolParentFormatRefused(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, seglog.FileName("dc-1", spoolExt))
	old := append([]byte("MPROSUP2\x01\x02\x03\x04\x05\x06\x07\x08\x04\x00"), "dc-1"...)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := openSpool(dir, "dc-1", 100)
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("error %v, want one naming the file and its magic", err)
	}
}

// parentSpoolFile writes, through seglog alone, the spool the previous release
// left behind for dcid: a report, a summary and a report as bare JSON payloads
// under its record kinds, the first acked of them acked. It returns the path.
func parentSpoolFile(tb testing.TB, dir, dcid string, boot uint64, acked int) string {
	tb.Helper()
	path := filepath.Join(dir, seglog.FileName(dcid, spoolExt))
	meta := append(binary.LittleEndian.AppendUint64(nil, boot), dcid...)
	log, _, err := seglog.Open(path, spoolFormat, meta, func(seglog.Record) error { return nil })
	if err != nil {
		tb.Fatal(err)
	}
	for i, payload := range []any{testReport(1), testSummary(2), testReport(3)} {
		body, err := json.Marshal(payload)
		if err != nil {
			tb.Fatal(err)
		}
		kind := recReport
		if i == 1 {
			kind = recSummary
		}
		if err := log.Append(kind, uint64(i+1), body); err != nil {
			tb.Fatal(err)
		}
	}
	for seq := 1; seq <= acked; seq++ {
		if err := log.Append(recAck, uint64(seq), nil); err != nil {
			tb.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		tb.Fatal(err)
	}
	return path
}

// TestSpoolParentRecordKinds is the spool's upgrade contract: the previous
// release's payload records are not read. A spool it drained opens in place
// with its boot id and sequence watermark; one still holding an unacked frame
// is refused, by name and count, and left as it was.
func TestSpoolParentRecordKinds(t *testing.T) {
	const boot = 0x5EED
	dir := t.TempDir()
	parentSpoolFile(t, dir, "dc-1", boot, 3)
	s, err := openSpool(dir, "dc-1", 100)
	if err != nil {
		t.Fatalf("a drained parent spool refused: %v", err)
	}
	if s.boot != boot || s.nextSeq != 4 || len(s.pending) != 0 {
		t.Fatalf("boot %#x nextSeq %d pending %d, want %#x, 4 and 0", s.boot, s.nextSeq, len(s.pending), boot)
	}
	if seq, _, err := s.add(reportOf(testReport(4))); err != nil || seq != 4 {
		t.Fatalf("first frame after the upgrade: seq %d, err %v; want 4", seq, err)
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	if s, err = openSpool(dir, "dc-1", 100); err != nil || s.boot != boot || len(s.pending) != 1 || s.pending[0].seq != 4 {
		t.Fatalf("reopen after the upgrade: %+v, %v", s, err)
	}
	_ = s.close()

	dir = t.TempDir()
	path := parentSpoolFile(t, dir, "dc-1", boot, 2)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, err = openSpool(dir, "dc-1", 100)
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "1 unresolved") {
		t.Fatalf("error %v, want a refusal naming %s and the 1 unresolved frame", err, path)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("the refused spool was modified (%v)", err)
	}

	dir = t.TempDir()
	parentCompactedSpoolFile(t, dir, "dc-1", boot)
	if s, err = openSpool(dir, "dc-1", 100); err != nil || s.boot != boot || s.nextSeq != 6 || len(s.pending) != 1 || s.pending[0].seq != 5 {
		t.Fatalf("the parent's compacted spool: %+v, %v; want frame 5 pending and next sequence 6", s, err)
	}
	_ = s.close()
}

// parentCompactedSpoolFile writes the layout the previous release left after
// a compaction and one more answer: a sequence mark, the frames it kept, then
// an ack of the first of them — recSeqMark(5) F4 F5 ack(4).
func parentCompactedSpoolFile(tb testing.TB, dir, dcid string, boot uint64) string {
	tb.Helper()
	path := filepath.Join(dir, seglog.FileName(dcid, spoolExt))
	log, _, err := seglog.Open(path, spoolFormat, append(binary.LittleEndian.AppendUint64(nil, boot), dcid...), func(seglog.Record) error { return nil })
	if err != nil {
		tb.Fatal(err)
	}
	recs := []seglog.Record{{Kind: recSeqMark, Seq: 5}}
	for seq := uint64(4); seq <= 5; seq++ {
		frame, err := proto.AppendFrame(nil, &proto.Delivery{Report: testReport(int(seq)), DCID: dcid, Boot: boot, Seq: seq})
		if err != nil {
			tb.Fatal(err)
		}
		recs = append(recs, seglog.Record{Kind: recFrame, Seq: seq, Body: frame})
	}
	if err := log.AppendBatch(append(recs, seglog.Record{Kind: recAck, Seq: 4})); err != nil {
		tb.Fatal(err)
	}
	if err := log.Close(); err != nil {
		tb.Fatal(err)
	}
	return path
}

// TestSpoolMixedKindsDrainFIFO: reports, summaries and reports again in one
// spool drain in the order they were added, a run never holds both kinds or
// more than proto.MaxRun frames, and a reopen in the middle of a run picks up
// at the first frame not yet retired.
func TestSpoolMixedKindsDrainFIFO(t *testing.T) {
	dir := t.TempDir()
	s, err := openSpool(dir, "dc-1", 100)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	add := func(kind string, n int) {
		for i := 0; i < n; i++ {
			label := fmt.Sprintf("%s-%d", kind, len(want))
			d := reportOf(testReport(i % 10))
			d.Report.Explanation = label
			if kind == "summary" {
				d = summaryOf(testSummary(i % 10))
				d.Summary.Condition = label
			}
			if _, _, err := s.add(d); err != nil {
				t.Fatal(err)
			}
			want = append(want, label)
		}
	}
	add("report", 3)
	add("summary", proto.MaxRun+4)
	add("report", 2)

	var got []string
	var runs []int
	for drained := 0; ; drained++ {
		run := s.headRun(nil)
		if len(run) == 0 {
			break
		}
		for _, rec := range run {
			if rec.summary != run[0].summary {
				t.Fatalf("run %d holds both kinds", drained)
			}
		}
		if drained == 1 {
			// Only the head of the summary run is answered before the process
			// goes away; the next life resends the rest.
			run = run[:5]
		}
		for _, rec := range run {
			if d := payloadOf(t, rec); d.Summary != nil {
				got = append(got, d.Summary.Condition)
			} else {
				got = append(got, d.Report.Explanation)
			}
		}
		runs = append(runs, len(run))
		if err := s.resolve(run); err != nil {
			t.Fatal(err)
		}
		if drained == 1 {
			if err := s.close(); err != nil {
				t.Fatal(err)
			}
			if s, err = openSpool(dir, "dc-1", 100); err != nil {
				t.Fatal(err)
			}
		}
	}
	defer s.close()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("drained %v, want %v", got, want)
	}
	if wantRuns := []int{3, 5, proto.MaxRun - 1, 2}; !reflect.DeepEqual(runs, wantRuns) {
		t.Errorf("run lengths %v, want %v", runs, wantRuns)
	}
}

package uplink

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/proto"
	"repro/internal/seglog"
)

// spoolFileBytes builds a realistic spool file by driving the real
// write path, then returns its raw bytes for use as a fuzz seed.
func spoolFileBytes(tb testing.TB, mutate func(s *spool)) []byte {
	tb.Helper()
	dir := tb.TempDir()
	s, err := openSpool(dir, "dc-fuzz", 8)
	if err != nil {
		tb.Fatalf("seed spool: %v", err)
	}
	mutate(s)
	if err := s.close(); err != nil {
		tb.Fatalf("close seed spool: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, seglog.FileName("dc-fuzz", spoolExt)))
	if err != nil {
		tb.Fatalf("read seed spool: %v", err)
	}
	return data
}

// FuzzSpoolRecover writes arbitrary bytes as a spool file and opens it.
// Recovery must never panic. When it accepts the file, the rebuilt state
// must be internally consistent (every pending sequence below the
// next-sequence watermark, no duplicate pending sequences) and stable: a
// second open after close must see the same boot id, pending sequences,
// and watermark, because recovery repairs the file in place (torn tails
// are truncated, and the records a reopen no longer needs dropped).
func FuzzSpoolRecover(f *testing.F) {
	full := spoolFileBytes(f, func(s *spool) {
		for i := 0; i < 4; i++ {
			if _, _, err := s.add(reportOf(testReport(i))); err != nil {
				f.Fatalf("seed add: %v", err)
			}
		}
		// An answered run of two: one ack record resolves both.
		if err := s.resolve(s.pending[:2]); err != nil {
			f.Fatalf("seed resolve: %v", err)
		}
	})
	f.Add(full)
	f.Add(spoolFileBytes(f, func(s *spool) {})) // header only
	f.Add(full[:len(full)-3])                   // torn tail mid-record
	f.Add(full[:len(spoolFormat.Magic)+4])      // torn header
	flipped := bytes.Clone(full)
	flipped[len(flipped)-1] ^= 0x40 // CRC breaks on the last record
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte(spoolFormat.Magic + " but not really a spool"))
	f.Add(spoolFileBytes(f, func(s *spool) { // a forwarded summary between two reports
		if _, _, err := s.add(reportOf(testReport(0))); err != nil {
			f.Fatalf("seed add: %v", err)
		}
		if _, _, err := s.add(summaryOf(testSummary(0))); err != nil {
			f.Fatalf("seed add summary: %v", err)
		}
		if _, _, err := s.add(reportOf(testReport(1))); err != nil {
			f.Fatalf("seed add: %v", err)
		}
	}))
	summaries := spoolFileBytes(f, func(s *spool) { // a run of summaries, its head half acked
		for i := 0; i < 6; i++ {
			if _, _, err := s.add(summaryOf(testSummary(i))); err != nil {
				f.Fatalf("seed add summary: %v", err)
			}
		}
		if err := s.resolve(s.headRun(nil)[:3]); err != nil {
			f.Fatalf("seed resolve: %v", err)
		}
	})
	f.Add(summaries)
	f.Add(summaries[:len(summaries)-10]) // … torn inside its ack
	// The previous release's record kinds: a spool it drained (opens), and one
	// with a frame still unacked (refused).
	for _, acked := range []int{3, 2} {
		data, err := os.ReadFile(parentSpoolFile(f, f.TempDir(), "dc-fuzz", 0x5EED, acked))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// … and its compacted layout, a sequence mark ahead of the kept frames.
	compacted, err := os.ReadFile(parentCompactedSpoolFile(f, f.TempDir(), "dc-fuzz", 0x5EED))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(compacted)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, seglog.FileName("dc-fuzz", spoolExt))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := openSpool(dir, "dc-fuzz", 8)
		if err != nil {
			return // refused input: any error is acceptable, panics are not
		}
		seqs := make(map[uint64]bool)
		for _, rec := range s.pending {
			if rec.seq >= s.nextSeq {
				t.Fatalf("pending seq %d not below watermark %d", rec.seq, s.nextSeq)
			}
			if seqs[rec.seq] {
				t.Fatalf("duplicate pending seq %d", rec.seq)
			}
			seqs[rec.seq] = true
			if d, err := proto.DecodeFrame(rec.frame); err != nil || d.Seq != rec.seq || (d.Summary != nil) != rec.summary {
				t.Fatalf("pending seq %d (summary %v) recovered with frame %q: decoded seq %d, err %v", rec.seq, rec.summary, rec.frame, d.Seq, err)
			}
		}
		if err := s.close(); err != nil {
			t.Fatalf("close recovered spool: %v", err)
		}

		s2, err := openSpool(dir, "dc-fuzz", 8)
		if err != nil {
			t.Fatalf("recovery not stable: reopen failed: %v", err)
		}
		defer func() { _ = s2.close() }()
		if s2.boot != s.boot {
			t.Fatalf("boot changed across reopen: %d then %d", s.boot, s2.boot)
		}
		if s2.nextSeq != s.nextSeq {
			t.Fatalf("watermark changed across reopen: %d then %d", s.nextSeq, s2.nextSeq)
		}
		if len(s2.pending) != len(s.pending) {
			t.Fatalf("pending count changed across reopen: %d then %d", len(s.pending), len(s2.pending))
		}
		for i, rec := range s2.pending {
			if rec.seq != s.pending[i].seq {
				t.Fatalf("pending[%d] seq changed across reopen: %d then %d", i, s.pending[i].seq, rec.seq)
			}
		}
	})
}

package historian

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/seglog"
)

// Byte offsets of the seglog layout the hand-crafted files below rely on:
// the header is magic, u16 meta length, channel name; a record is 17 bytes
// of frame header, the samples, and a 4-byte CRC.
const (
	testHeaderLen = 8 + 2 + len("vib/motor/rms")
	testRecHeader = 17
	testBlockLen  = testRecHeader + 32*recordSize + 4 // fillChannel seals 32 samples a block
)

func fillChannel(t *testing.T, dir string, n int) string {
	t.Helper()
	s := mustOpen(t, dir)
	ensure(t, s, ChannelConfig{Name: "vib/motor/rms"})
	for i := 0; i < n; i++ {
		if err := s.Append("vib/motor/rms", t0.Add(time.Duration(i)*time.Second), float64(i)); err != nil {
			t.Fatal(err)
		}
		sealEvery(t, s, i, 32)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, seglog.FileName("vib/motor/rms", segmentExt))
}

func TestReopenRecoversAllSamples(t *testing.T) {
	dir := t.TempDir()
	fillChannel(t, dir, 100)
	s := mustOpen(t, dir)
	defer s.Close()
	if !s.HasChannel("vib/motor/rms") {
		t.Fatalf("channel not recovered; have %v", s.Channels())
	}
	got, err := s.QueryAll("vib/motor/rms")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("recovered %d samples, want 100", len(got))
	}
	for i, smp := range got {
		if smp.Value != float64(i) {
			t.Fatalf("sample %d = %g", i, smp.Value)
		}
	}
	// Appends continue after recovery and survive another cycle.
	if err := s.Append("vib/motor/rms", t0.Add(200*time.Second), 200); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir)
	defer s2.Close()
	got, _ = s2.QueryAll("vib/motor/rms")
	if len(got) != 101 {
		t.Fatalf("after append+reopen: %d samples", len(got))
	}
}

// TestRollupAfterRecovery: a recovered channel answers rollups straight
// from its recovered samples, with no EnsureChannel.
func TestRollupAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	fillChannel(t, dir, 120)
	s := mustOpen(t, dir)
	defer s.Close()
	rolls, err := s.QueryRollup("vib/motor/rms", time.Minute, time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rolls) != 2 || rolls[0].Count != 60 || rolls[0].Min != 0 || rolls[0].Max != 59 {
		t.Fatalf("recovered rollups %+v", rolls)
	}
}

// TestTornTailTruncated mirrors relstore's crash test: a partial final
// block (power loss mid-append) is silently truncated to the last complete
// record boundary and the store reopens clean.
func TestTornTailTruncated(t *testing.T) {
	for _, cut := range []int{1, 7, 8, 20, recordSize*5 + 11} {
		dir := t.TempDir()
		path := fillChannel(t, dir, 96) // 3 full blocks of 32
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Simulate a torn append: a prefix of a fourth block (the third
		// one's bytes again — a torn record is cut before its CRC counts).
		torn := make([]byte, 0, len(data)+cut)
		torn = append(torn, data...)
		block := data[len(data)-testBlockLen:]
		if cut > len(block) {
			t.Fatalf("cut %d exceeds block", cut)
		}
		torn = append(torn, block[:cut]...)
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		s := mustOpen(t, dir)
		got, err := s.QueryAll("vib/motor/rms")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 96 {
			t.Fatalf("cut=%d: recovered %d samples, want the 96 complete ones", cut, len(got))
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// The truncation is physical: the file is back to its clean size.
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() != int64(len(data)) {
			t.Fatalf("cut=%d: file size %d after recovery, want %d", cut, info.Size(), len(data))
		}
	}
}

// TestInteriorCorruptionRefused: a flipped bit inside a non-final block is
// real corruption, not a torn tail, and must fail loudly (relstore's
// "valid record after malformed line" rule).
func TestInteriorCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	path := fillChannel(t, dir, 96)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the first block (well past the header).
	data[testHeaderLen+testRecHeader] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("interior corruption accepted")
	}
}

// TestCorruptFinalBlockRefused: a full-length final block with a bad CRC
// cannot come from a torn append (the CRC is written in the same single
// write), so it too is refused.
func TestCorruptFinalBlockRefused(t *testing.T) {
	dir := t.TempDir()
	path := fillChannel(t, dir, 96)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-5] ^= 0x01 // inside the last block's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("corrupt final block accepted")
	}
}

func TestBadHeaderRefused(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x"+segmentExt)
	if err := os.WriteFile(path, []byte("NOTMAGIC\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("bad header accepted")
	}
}

func TestChannelFileNameEncoding(t *testing.T) {
	names := []string{
		"vib/motor drive end/rms",
		"proc/evap_pressure",
		"severity/chiller|1%weird",
	}
	seen := map[string]bool{}
	for _, n := range names {
		f := seglog.FileName(n, segmentExt)
		if seen[f] {
			t.Fatalf("collision on %q", f)
		}
		seen[f] = true
		for _, c := range f {
			if c == '/' || c == 0 {
				t.Fatalf("unsafe char in %q", f)
			}
		}
	}
	// Round trip through a real store.
	dir := t.TempDir()
	s := mustOpen(t, dir)
	for _, n := range names {
		ensure(t, s, ChannelConfig{Name: n})
		if err := s.Append(n, t0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir)
	defer s2.Close()
	for _, n := range names {
		if !s2.HasChannel(n) {
			t.Fatalf("channel %q lost in round trip; have %v", n, s2.Channels())
		}
	}
}

// TestTornHeaderIsATornCreate: a crash while a channel file is being
// created leaves a prefix of its header. The store still opens, the channel
// comes back empty under the name its file name encodes, and it takes
// appends that survive a further reopen.
func TestTornHeaderIsATornCreate(t *testing.T) {
	const name = "vib/motor/rms"
	for cut := 0; cut < testHeaderLen; cut++ {
		dir := t.TempDir()
		path := fillChannel(t, dir, 0)
		hdr, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(hdr) != testHeaderLen {
			t.Fatalf("empty channel file is %d bytes, want the %d-byte header", len(hdr), testHeaderLen)
		}
		if err := os.WriteFile(path, hdr[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("header cut at %d bricks the store: %v", cut, err)
		}
		if got, err := s.QueryAll(name); err != nil || len(got) != 0 {
			t.Fatalf("header cut at %d: %d samples, err %v; want the channel back, empty", cut, len(got), err)
		}
		ensure(t, s, ChannelConfig{Name: name})
		if err := s.Append(name, t0, 1); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2 := mustOpen(t, dir)
		if got, _ := s2.QueryAll(name); len(got) != 1 {
			t.Fatalf("header cut at %d: %d samples after append+reopen, want 1", cut, len(got))
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestParentFormatRefused: the pre-seglog segment magic is not read; the
// error names the file so the operator knows what to delete.
func TestParentFormatRefused(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, seglog.FileName("a", segmentExt))
	if err := os.WriteFile(path, []byte("MPROSHS1\x01\x00a"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(Options{Dir: dir})
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("error %v, want one naming the file and its magic", err)
	}
}

// TestRollupSameAfterReopen: a rollup is a function of the held samples,
// so shuffled appends fold to the same buckets, bit for bit, before a
// close and after the reopen.
func TestRollupSameAfterReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	ensure(t, s, ChannelConfig{Name: "a"})
	rng := rand.New(rand.NewSource(5))
	for _, i := range rng.Perm(200) {
		if err := s.Append("a", t0.Add(time.Duration(i)*time.Minute), rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	before, err := s.QueryRollup("a", time.Hour, time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir)
	defer s2.Close()
	after, err := s2.QueryRollup("a", time.Hour, time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("rollups before close\n%+v\nafter reopen\n%+v", before, after)
	}
}

// fileRecords counts the records in a channel's file.
func fileRecords(t *testing.T, dir, name string) int {
	t.Helper()
	n := 0
	_, err := seglog.Scan(filepath.Join(dir, seglog.FileName(name, segmentExt)), segmentFormat, func(seglog.Record) error {
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestOpenAppliesTheWindow: a crash between a seal's append and its drop,
// or a failed drop, leaves a file holding a segment that ended more than
// Window before the newest sample. The open drops it, as a seal would.
func TestOpenAppliesTheWindow(t *testing.T) {
	dir := t.TempDir()
	log, _, err := seglog.Open(filepath.Join(dir, seglog.FileName("a", segmentExt)), segmentFormat, []byte("a"), func(seglog.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	newest := Sample{At: t0.Add(Window + time.Hour), Value: 3}
	for _, seg := range [][]Sample{{{At: t0, Value: 1}, {At: t0.Add(time.Minute), Value: 2}}, {newest}} {
		if err := log.Append(0, 0, encodeSamples(seg)); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir)
	defer s.Close()
	got, err := s.QueryAll("a")
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := s.Stats("a"); !reflect.DeepEqual(got, []Sample{newest}) || st.Samples != 1 || st.Segments != 1 {
		t.Fatalf("after open: samples %v, stats %+v; want only %v", got, st, newest)
	}
	if n := fileRecords(t, dir, "a"); n != 1 {
		t.Fatalf("the file holds %d records after the open, want 1", n)
	}
}

// TestDisorderedSegmentLeavesTheFileLate: a segment of old samples sealed
// after a newer one leaves memory as soon as it leaves the window, but the
// file keeps only a suffix, so it stays there until the segments before it
// go. Reads are the same before a close and after the reopen.
func TestDisorderedSegmentLeavesTheFileLate(t *testing.T) {
	const day = 24 * time.Hour
	dir := t.TempDir()
	s := mustOpen(t, dir)
	ensure(t, s, ChannelConfig{Name: "a"})
	appendSync := func(at time.Time, v float64) {
		t.Helper()
		if err := s.Append("a", at, v); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	appendSync(t0.Add(20*day), 1) // segment 0
	appendSync(t0, 2)             // segment 1, sealed after a newer one
	appendSync(t0.Add(31*day), 3) // segment 2; segment 1 left the window
	if st, _ := s.Stats("a"); st.Segments != 2 || st.Samples != 2 {
		t.Fatalf("stats %+v, want segments 0 and 2 held", st)
	}
	if n := fileRecords(t, dir, "a"); n != 3 {
		t.Fatalf("the file holds %d records, want all 3 while segment 0 is held", n)
	}
	q1, err := s.QueryAll("a")
	if err != nil {
		t.Fatal(err)
	}
	st1, _ := s.Stats("a")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir)
	defer s.Close()
	q2, err := s.QueryAll("a")
	if err != nil {
		t.Fatal(err)
	}
	if st2, _ := s.Stats("a"); !reflect.DeepEqual(q1, q2) || st1 != st2 {
		t.Fatalf("before close: %v %+v; after reopen: %v %+v", q1, st1, q2, st2)
	}
	appendSync(t0.Add(51*day), 4) // segment 0 leaves the window: the file drops 0 and 1
	if n := fileRecords(t, dir, "a"); n != 2 {
		t.Fatalf("the file holds %d records, want segments 2 and 3", n)
	}
}

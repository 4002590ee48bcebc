package seglog_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/chiller"
	"repro/internal/dc"
	"repro/internal/historian"
	"repro/internal/journal"
	"repro/internal/proto"
	"repro/internal/seglog"
	"repro/internal/uplink"
)

// discard is a report sink that takes everything.
type discard struct{}

func (discard) Deliver(*proto.Report) error { return nil }

// userFiles drives each of the four owners through its public write path
// and returns the bytes of every log file that leaves on disk, so the
// framing fuzzer starts from real headers, metas, kinds and bodies.
func userFiles(tb testing.TB) [][]byte {
	tb.Helper()
	dir := tb.TempDir()
	check := func(err error) {
		tb.Helper()
		if err != nil {
			tb.Fatalf("seed: %v", err)
		}
	}
	at := time.Date(1998, 8, 15, 12, 0, 0, 0, time.UTC)

	j, _, err := journal.Open(filepath.Join(dir, "journal"))
	check(err)
	for i := 0; i < 4; i++ {
		_, err := j.Append(byte(i%2+1), bytes.Repeat([]byte{byte('a' + i)}, i*9))
		check(err)
	}
	check(j.WriteCheckpoint(2, []byte(`{"received":2}`)))
	check(j.Close())

	up, err := uplink.New(uplink.Config{
		Addr: "127.0.0.1:1", DCID: "dc/seed", SpoolDir: filepath.Join(dir, "spool"),
		BackoffMin: time.Hour, BackoffMax: time.Hour,
	})
	check(err)
	check(up.Deliver(&proto.Report{
		DCID: "dc/seed", KnowledgeSourceID: "ks/dli", SensedObjectID: "motor/1",
		MachineConditionID: "motor imbalance", Severity: 0.5, Belief: 0.8, Timestamp: at,
	}))
	check(up.DeliverSummary(&proto.FusedSummary{
		ShardID: "shard-1", Component: "chiller/1", Condition: "refrigerant low charge",
		Belief: 0.6, Plausibility: 0.9, Unknown: 0.3, Reliability: 1, UpdatedAt: at,
	}))
	check(up.Close())

	hist, err := historian.Open(historian.Options{Dir: filepath.Join(dir, "historian")})
	check(err)
	check(hist.EnsureChannel(historian.ChannelConfig{Name: "vib/motor/rms"}))
	for i := 0; i < 10; i++ {
		check(hist.Append("vib/motor/rms", at.Add(time.Duration(i)*time.Second), float64(i)))
		if i%4 == 3 { // several records in the seed file
			check(hist.Sync())
		}
	}
	check(hist.Close())

	plant, err := chiller.New(chiller.DefaultConfig())
	check(err)
	check(plant.SetFault(chiller.MotorImbalance, 0.7))
	dcCfg := dc.DefaultConfig("dc/seed", "chiller/1")
	dcCfg.FrameLen = 1024
	dcCfg.ReportLog = filepath.Join(dir, "dc", "reports.log")
	d, err := dc.New(dcCfg, plant, nil, discard{})
	check(err)
	check(d.RunFor(0))
	if len(d.StoredReports("")) == 0 {
		tb.Fatal("seed: the DC stored no reports")
	}
	check(d.Close())

	var files [][]byte
	check(filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		files = append(files, data)
		return err
	}))
	if len(files) != 5 { // report log, channel, wal, checkpoint, spool
		tb.Fatalf("seed: %d user files, want 5", len(files))
	}
	return files
}

// FuzzRecover writes arbitrary bytes as a log file and opens it. Open must
// never panic. When it accepts the file: every record it yielded sits in
// the input at the offset the layout says, under a CRC that verifies; the
// accepted prefix takes one more append; a drop before the ordinal drop
// picks (modulo one past the last record) leaves the header and exactly the
// kept records' bytes; and a reopen after close truncates nothing and sees
// exactly the kept suffix of the same records plus that append. The inputs
// are read under the fuzz format's own magic, so seeds from the users'
// files have theirs overwritten with it.
func FuzzRecover(f *testing.F) {
	ft := seglog.Format{Magic: "MPROSFZ1", MaxBody: 1 << 16}
	for i, data := range userFiles(f) {
		copy(data, ft.Magic)
		drop := uint8(i)
		f.Add(data, drop)
		f.Add(data[:len(data)-3], drop+1) // torn tail
		f.Add(data[:5], drop)             // torn header
		flipped := bytes.Clone(data)
		flipped[len(flipped)-7] ^= 0x10
		f.Add(flipped, drop)
	}
	// A multi-record batch from a single write, whole and cut inside its
	// second record.
	batchPath := filepath.Join(f.TempDir(), "batch.log")
	bl, _, err := seglog.Open(batchPath, ft, []byte("batch"), func(seglog.Record) error { return nil })
	if err == nil {
		err = bl.AppendBatch([]seglog.Record{{Kind: 1, Seq: 1, Body: []byte("first")}, {Kind: 1, Seq: 2, Body: bytes.Repeat([]byte{'s'}, 90)}, {Kind: 2, Seq: 3}})
	}
	if err == nil {
		err = bl.Close()
	}
	batch, rerr := os.ReadFile(batchPath)
	if err != nil || rerr != nil {
		f.Fatalf("seed batch: %v, %v", err, rerr)
	}
	f.Add(batch, uint8(2))
	f.Add(batch[:len(batch)-21-60], uint8(1))
	f.Add([]byte{}, uint8(0))
	f.Add([]byte(ft.Magic), uint8(1))

	f.Fuzz(func(t *testing.T, data []byte, drop uint8) {
		path := filepath.Join(t.TempDir(), "fuzz.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var got []rec
		off := -1 // set from the header once the first record shows one was read
		l, torn, err := seglog.Open(path, ft, []byte("created"), func(r seglog.Record) error {
			if off < 0 {
				off = 8 + 2 + int(binary.LittleEndian.Uint16(data[8:]))
			}
			end := off + 17 + len(r.Body)
			if end+4 > len(data) || data[off+4] != r.Kind ||
				binary.LittleEndian.Uint64(data[off+5:]) != r.Seq ||
				!bytes.Equal(data[off+17:end], r.Body) {
				t.Fatalf("record %d is not what the input holds at offset %d", len(got), off)
			}
			if crc32.ChecksumIEEE(data[off+4:end]) != binary.LittleEndian.Uint32(data[end:]) {
				t.Fatalf("record %d at offset %d yielded under a CRC that does not verify", len(got), off)
			}
			off = end + 4
			got = append(got, rec{r.Kind, r.Seq, string(r.Body)})
			return nil
		})
		if err != nil {
			if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
				t.Fatalf("refused file was modified")
			}
			return // refused input: any error is acceptable, panics are not
		}
		if torn < 0 || torn > int64(len(data)) {
			t.Fatalf("torn = %d of %d bytes", torn, len(data))
		}
		meta := string(l.Meta())
		extra := rec{0xEE, 12345, "appended after recovery"}
		if err := l.Append(extra.kind, extra.seq, []byte(extra.body)); err != nil {
			t.Fatalf("accepted prefix not appendable: %v", err)
		}
		all := append(got, extra)
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		k := uint64(drop) % uint64(len(all)+1)
		if err := l.DropBefore(k); err != nil {
			t.Fatalf("DropBefore(%d) of %d records: %v", k, len(all), err)
		}
		from := 8 + 2 + int(binary.LittleEndian.Uint16(before[8:]))
		want := bytes.Clone(before[:from])
		for _, r := range all[:k] {
			from += 21 + len(r.body)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, append(want, before[from:]...)) {
			t.Fatalf("DropBefore(%d): the file is not the header and the kept records' bytes (%v)", k, err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("close recovered log: %v", err)
		}

		var again []rec
		l2, torn2, err := seglog.Open(path, ft, []byte("ignored"), collect(&again))
		if err != nil {
			t.Fatalf("recovery not stable: reopen failed: %v", err)
		}
		defer func() { _ = l2.Close() }()
		if torn2 != 0 || string(l2.Meta()) != meta || !equalRecs(again, all[k:]) || l2.Next() != uint64(len(again)) {
			t.Fatalf("reopen: %d torn, meta %q (was %q), %d records (want the last %d of %d), next %d", torn2, l2.Meta(), meta, len(again), len(all)-int(k), len(all), l2.Next())
		}
	})
}

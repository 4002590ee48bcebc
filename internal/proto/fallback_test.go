package proto_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/fusion"
	"repro/internal/oosm"
	"repro/internal/pdme"
	"repro/internal/proto"
	"repro/internal/relstore"
	"repro/internal/seglog"
	"repro/internal/uplink"
)

// TestReferencePathRecoversLikeItsTwin: frames the hand reader leaves to
// json.Unmarshal — one from a newer sender, with a field this decoder does
// not know, and one whose text escapes é as \u00e9 — decode to the same
// Delivery as their canonical twins, and through the two owners that keep
// frames on disk they end in the same state: a spool recovered and drained
// into a journaled engine fuses the same beliefs and posts the same report
// objects, and that engine's WAL, which holds the frames as they came,
// replays to the same beliefs.
func TestReferencePathRecoversLikeItsTwin(t *testing.T) {
	const dcid = "dc-1"
	at := time.Date(1998, 8, 15, 12, 0, 0, 0, time.UTC)
	var canonical [][]byte
	for i, cond := range []string{"motor imbalance", "motor misalignment", "motor imbalance"} {
		r := fuzzReport()
		r.MachineConditionID = cond
		r.Explanation = "débit réduit, palier côté accouplement"
		r.Timestamp = at.Add(time.Duration(i) * time.Hour)
		canonical = append(canonical, frameBody(t, proto.Delivery{Report: r, DCID: dcid, Boot: 7, Seq: uint64(i + 1)}))
	}
	forms := []struct {
		name    string
		rewrite func([]byte) []byte
	}{
		{"canonical", bytes.Clone},
		{"newer sender", func(b []byte) []byte {
			return bytes.Replace(b, []byte(`{"kind":"report",`), []byte(`{"kind":"report","hops":[1,{"via":"relay"}],`), 1)
		}},
		{"escaped", func(b []byte) []byte { return bytes.ReplaceAll(b, []byte("é"), []byte(`\u00e9`)) }},
	}

	var twin drainResult
	for _, form := range forms {
		var frames [][]byte
		for i, body := range canonical {
			frame := form.rewrite(body)
			if form.name != "canonical" && bytes.Equal(frame, body) {
				t.Fatalf("%s: frame %d not rewritten", form.name, i)
			}
			got, err := proto.DecodeFrame(frame)
			if err != nil {
				t.Fatalf("%s: %v", form.name, err)
			}
			want, err := proto.DecodeFrame(body)
			if err != nil {
				t.Fatal(err)
			}
			got.Frame, want.Frame = nil, nil
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: frame %d decodes to %+v, its twin to %+v", form.name, i, got, want)
			}
			frames = append(frames, frame)
		}
		got := drainSpoolIntoEngine(t, dcid, frames)
		if form.name == "canonical" {
			twin = got
			if len(twin.ranked) == 0 || !reflect.DeepEqual(twin.recovered, twin.ranked) {
				t.Fatalf("canonical frames: fused %+v, recovered %+v", twin.ranked, twin.recovered)
			}
			continue
		}
		if !reflect.DeepEqual(got.ranked, twin.ranked) || !reflect.DeepEqual(got.reports, twin.reports) {
			t.Errorf("%s: drained spool fused %+v with report objects %v; its twin %+v with %v",
				form.name, got.ranked, got.reports, twin.ranked, twin.reports)
		}
		if !reflect.DeepEqual(got.recovered, twin.ranked) {
			t.Errorf("%s: replayed WAL fused %+v, its twin %+v", form.name, got.recovered, twin.ranked)
		}
	}
}

// drainResult is what drainSpoolIntoEngine observed.
type drainResult struct {
	ranked, recovered []pdme.MaintenanceItem
	reports           []map[string]any
}

// drainSpoolIntoEngine writes frames into a spool file as its pending
// records, lets an uplink recover and drain it into a journaled engine, and
// returns that engine's list and report objects, and the list of a second
// engine recovered from the first one's WAL alone.
func drainSpoolIntoEngine(t *testing.T, dcid string, frames [][]byte) drainResult {
	t.Helper()
	dir := t.TempDir()
	spoolDir, journalDir := filepath.Join(dir, "spool"), filepath.Join(dir, "journal")
	if err := os.MkdirAll(spoolDir, 0o755); err != nil {
		t.Fatal(err)
	}
	spool, _, err := seglog.Open(filepath.Join(spoolDir, seglog.FileName(dcid, ".spool")),
		seglog.Format{Magic: "MPROSUP3", MaxBody: 1 << 20}, append(binary.LittleEndian.AppendUint64(nil, 7), dcid...),
		func(seglog.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, frame := range frames {
		if err := spool.Append(6, uint64(i+1), frame); err != nil { // a frame record
			t.Fatal(err)
		}
	}
	if err := spool.Close(); err != nil {
		t.Fatal(err)
	}

	groups := fusion.Groups{"structural": {"motor imbalance", "motor misalignment"}}
	newEngine := func() *pdme.PDME {
		model, err := oosm.NewModel(relstore.NewMemory())
		if err != nil {
			t.Fatal(err)
		}
		p, err := pdme.New(model, groups)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// The engine is abandoned, never closed: its final checkpoint would empty
	// the WAL the second engine recovers from.
	engine := newEngine()
	if _, err := engine.OpenJournal(pdme.JournalOptions{Dir: journalDir, CheckpointEvery: -1}); err != nil {
		t.Fatal(err)
	}
	addr, srv, err := engine.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	up, err := uplink.New(uplink.Config{Addr: addr, DCID: dcid, SpoolDir: spoolDir, BackoffMin: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := up.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := up.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := engine.ReceivedReports(); got != len(frames) {
		t.Fatalf("engine fused %d of %d spooled frames", got, len(frames))
	}
	var res drainResult
	res.ranked = engine.PrioritizedList()
	ids, err := engine.Model().Instances(pdme.ReportClass)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		props, err := engine.Model().Get(id)
		if err != nil {
			t.Fatal(err)
		}
		res.reports = append(res.reports, props)
	}

	recovered := newEngine()
	defer recovered.Close()
	stats, err := recovered.OpenJournal(pdme.JournalOptions{Dir: journalDir, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReportsReplayed != len(frames) || stats.SkippedRecords != 0 {
		t.Fatalf("WAL replayed %d of %d frames, skipped %d", stats.ReportsReplayed, len(frames), stats.SkippedRecords)
	}
	res.recovered = recovered.PrioritizedList()
	return res
}

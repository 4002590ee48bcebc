package pdme

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fusion"
	"repro/internal/health"
	"repro/internal/journal"
	"repro/internal/oosm"
	"repro/internal/proto"
	"repro/internal/relstore"
	"repro/internal/seglog"
	"repro/internal/uplink"
)

func newJournaledPDME(t testing.TB, dir string, every int) *PDME {
	t.Helper()
	p := newTestPDME(t)
	if _, err := p.OpenJournal(JournalOptions{Dir: dir, CheckpointEvery: every}); err != nil {
		t.Fatal(err)
	}
	return p
}

// journalFixtureReports is a small, varied traffic mix: several components,
// reinforcing sources, prognostics, and tagged delivery ids.
func journalFixtureReports(t0 time.Time) []*proto.Report {
	vec := proto.PrognosticVector{{Probability: 0.3, HorizonSeconds: 24 * 3600}, {Probability: 0.8, HorizonSeconds: 96 * 3600}}
	return []*proto.Report{
		report("ks/dli", "motor/1", "motor imbalance", 0.5, 0.6, t0, nil),
		report("ks/sbfr", "motor/1", "motor imbalance", 0.55, 0.5, t0.Add(time.Minute), vec),
		report("ks/dli", "motor/1", "oil whirl", 0.3, 0.4, t0.Add(2*time.Minute), nil),
		report("ks/mset", "pump/2", "stator electrical unbalance", 0.7, 0.65, t0.Add(3*time.Minute), nil),
		report("ks/dli", "motor/1", "motor imbalance", 0.6, 0.55, t0.Add(4*time.Minute), nil),
	}
}

func deliverFixture(t testing.TB, p *PDME, t0 time.Time) {
	t.Helper()
	for i, r := range journalFixtureReports(t0) {
		if err := p.DeliverTagged(r, "dc-1", 7, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.ObserveHeartbeat(&proto.Heartbeat{
		DCID: "dc-1", SentAt: t0.Add(5 * time.Minute), Incarnation: 7, SpoolDepth: 2,
	}); err != nil {
		t.Fatal(err)
	}
}

// assertSameFusionState checks the recovery guarantee: Ranked/Belief output
// of the recovered engine is bit-for-bit identical to the reference.
func assertSameFusionState(t *testing.T, ref, got *PDME) {
	t.Helper()
	if got.ReceivedReports() != ref.ReceivedReports() {
		t.Errorf("received = %d, want %d", got.ReceivedReports(), ref.ReceivedReports())
	}
	refList, gotList := ref.PrioritizedList(), got.PrioritizedList()
	if len(gotList) != len(refList) {
		t.Fatalf("prioritized list has %d items, want %d", len(gotList), len(refList))
	}
	for i := range refList {
		r, g := refList[i], gotList[i]
		if g.Component != r.Component || g.Condition != r.Condition {
			t.Fatalf("item %d: (%s, %s), want (%s, %s)", i, g.Component, g.Condition, r.Component, r.Condition)
		}
		if math.Float64bits(g.Belief) != math.Float64bits(r.Belief) ||
			math.Float64bits(g.Plausibility) != math.Float64bits(r.Plausibility) {
			t.Errorf("%s/%s: belief/pl (%v, %v), want bit-exact (%v, %v)",
				g.Component, g.Condition, g.Belief, g.Plausibility, r.Belief, r.Plausibility)
		}
		if g.Reports != r.Reports {
			t.Errorf("%s/%s: %d reports, want %d", g.Component, g.Condition, g.Reports, r.Reports)
		}
		if g.HasPrognostic != r.HasPrognostic || g.TimeToHalf != r.TimeToHalf {
			t.Errorf("%s/%s: prognostic (%v, %v), want (%v, %v)",
				g.Component, g.Condition, g.HasPrognostic, g.TimeToHalf, r.HasPrognostic, r.TimeToHalf)
		}
	}
}

// conclusionObjects reads every conclusion object the engine's model holds on
// the components, by (component, condition).
func conclusionObjects(t *testing.T, p *PDME, components ...string) map[[2]string]map[string]any {
	t.Helper()
	out := map[[2]string]map[string]any{}
	for _, c := range components {
		ids, err := p.Model().FindByProp(ConclusionClass, "component", c)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			props, err := p.Model().Get(id)
			if err != nil {
				t.Fatal(err)
			}
			key := [2]string{c, props["condition"].(string)}
			if _, twin := out[key]; twin {
				t.Fatalf("two conclusion objects on %v", key)
			}
			out[key] = props
		}
	}
	return out
}

// assertSameConclusionObjects checks that two engines' models hold the same
// conclusion objects on the components, every property bit for bit: floats by
// their bits, the prognostics text byte for byte, updated_at by its binary
// form (instant and zone).
func assertSameConclusionObjects(t *testing.T, ref, got *PDME, components ...string) {
	t.Helper()
	want, have := conclusionObjects(t, ref, components...), conclusionObjects(t, got, components...)
	if len(want) == 0 || len(have) != len(want) {
		t.Fatalf("%d conclusion objects, want %d (and some)", len(have), len(want))
	}
	for key, w := range want {
		g, ok := have[key]
		if !ok {
			t.Errorf("no conclusion object on %v", key)
			continue
		}
		if len(g) != len(w) {
			t.Errorf("%v: %d properties, want %d", key, len(g), len(w))
		}
		for name, wv := range w {
			gv := g[name]
			same := false
			switch wv := wv.(type) {
			case float64:
				gf, ok := gv.(float64)
				same = ok && math.Float64bits(gf) == math.Float64bits(wv)
			case time.Time:
				gt, ok := gv.(time.Time)
				wb, werr := wv.MarshalBinary()
				gb, gerr := gt.MarshalBinary()
				same = ok && werr == nil && gerr == nil && bytes.Equal(wb, gb)
			default:
				same = gv == wv
			}
			if !same {
				t.Errorf("%v: %s = %#v, want %#v", key, name, gv, wv)
			}
		}
	}
}

// TestJournalRecoveryMatchesUndisturbedRun: kill a journaled PDME without
// any shutdown courtesy (no Close, no checkpoint), recover into a fresh
// engine, and compare against an undisturbed engine that saw the same
// traffic: Ranked/Belief bit-for-bit, dedup suppression intact, heartbeat
// history restored. The conclusion objects the replay posts are the ones the
// live accept posted, property for property.
func TestJournalRecoveryMatchesUndisturbedRun(t *testing.T) {
	t0 := time.Date(1998, 9, 1, 12, 0, 0, 0, time.UTC)
	dir := t.TempDir()

	ref := newTestPDME(t)
	defer ref.Close()
	deliverFixture(t, ref, t0)

	crashed := newJournaledPDME(t, dir, -1) // no automatic checkpoints: pure WAL replay
	deliverFixture(t, crashed, t0)
	// Crash: the engine is abandoned mid-flight, never Closed.

	recovered := newTestPDME(t)
	defer recovered.Close()
	stats, err := recovered.OpenJournal(JournalOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CheckpointLoaded {
		t.Error("no checkpoint was written, yet one loaded")
	}
	if stats.ReportsReplayed != 5 || stats.HeartbeatsReplayed != 1 || stats.SkippedRecords != 0 {
		t.Errorf("replayed %d reports + %d heartbeats, %d skipped; want 5 + 1, 0 skipped",
			stats.ReportsReplayed, stats.HeartbeatsReplayed, stats.SkippedRecords)
	}
	assertSameFusionState(t, ref, recovered)
	assertSameConclusionObjects(t, crashed, recovered, "motor/1", "pump/2")

	// The dedup window survived: a spool replay of an already-fused report
	// is suppressed, not double-fused.
	if !recovered.dedupHandle().Seen("dc-1", 7, 3) {
		t.Error("pre-crash sequence not suppressed after recovery")
	}
	if recovered.dedupHandle().Seen("dc-1", 7, 6) {
		t.Error("never-sent sequence suppressed after recovery")
	}
	// Heartbeat history survived.
	snap := recovered.Health().Snapshot()
	if len(snap) != 1 || snap[0].DCID != "dc-1" || snap[0].SpoolDepth != 2 {
		t.Errorf("recovered health snapshot %+v, want dc-1 with spool depth 2", snap)
	}
	// The recovered engine keeps fusing correctly on top of replayed state.
	next := report("ks/dli", "motor/1", "motor imbalance", 0.6, 0.5, t0.Add(time.Hour), nil)
	if err := recovered.DeliverTagged(next, "dc-1", 7, 6); err != nil {
		t.Fatal(err)
	}
	if err := ref.DeliverTagged(next, "dc-1", 7, 6); err != nil {
		t.Fatal(err)
	}
	assertSameFusionState(t, ref, recovered)
	assertSameConclusionObjects(t, ref, recovered, "motor/1", "pump/2")
}

// TestJournalRecoveryFromCheckpointPlusTail: traffic that spans an
// automatic checkpoint recovers from checkpoint-load + tail-replay, not
// full-history replay, and still matches the undisturbed run bit-for-bit.
func TestJournalRecoveryFromCheckpointPlusTail(t *testing.T) {
	t0 := time.Date(1998, 9, 1, 12, 0, 0, 0, time.UTC)
	dir := t.TempDir()

	ref := newTestPDME(t)
	defer ref.Close()
	crashed := newJournaledPDME(t, dir, 4) // checkpoint after the 4th record

	for round := 0; round < 3; round++ {
		base := t0.Add(time.Duration(round) * time.Hour)
		deliverFixture(t, ref, base)
		deliverFixture(t, crashed, base)
	}
	if err := crashed.JournalError(); err != nil {
		t.Fatalf("automatic checkpoint failed: %v", err)
	}
	open, lastSeq, ckptSeq, tail := crashed.JournalInfo()
	if !open || ckptSeq == 0 || lastSeq != 18 {
		t.Fatalf("journal info open=%v last=%d ckpt=%d tail=%d; want open, last=18, a checkpoint", open, lastSeq, ckptSeq, tail)
	}

	recovered := newTestPDME(t)
	defer recovered.Close()
	stats, err := recovered.OpenJournal(JournalOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.CheckpointLoaded || stats.CheckpointSeq != ckptSeq {
		t.Errorf("checkpoint loaded=%v seq=%d, want loaded at %d", stats.CheckpointLoaded, stats.CheckpointSeq, ckptSeq)
	}
	if replayed := stats.ReportsReplayed + stats.HeartbeatsReplayed; replayed != int(lastSeq-ckptSeq) {
		t.Errorf("replayed %d tail records, want %d (last %d - checkpoint %d)",
			replayed, lastSeq-ckptSeq, lastSeq, ckptSeq)
	}
	if stats.SkippedRecords != 0 {
		t.Errorf("%d records skipped", stats.SkippedRecords)
	}
	assertSameFusionState(t, ref, recovered)
}

// TestExplicitCheckpointAndReopen: Checkpoint() + clean Close, then reopen
// — the canonical restart path — recovers with an empty tail, and the
// browser (E10) shows the same current reports and predictions it showed
// before the restart.
func TestExplicitCheckpointAndReopen(t *testing.T) {
	t0 := time.Date(1998, 9, 1, 12, 0, 0, 0, time.UTC)
	dir := t.TempDir()

	ref := newTestPDME(t)
	defer ref.Close()
	deliverFixture(t, ref, t0)

	first := newJournaledPDME(t, dir, -1)
	deliverFixture(t, first, t0)
	if err := first.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	browser, err := first.RenderBrowser("motor/1")
	if err != nil {
		t.Fatal(err)
	}
	first.Close()

	second := newTestPDME(t)
	defer second.Close()
	stats, err := second.OpenJournal(JournalOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.CheckpointLoaded {
		t.Fatal("checkpoint not loaded on reopen")
	}
	if stats.ReportsReplayed+stats.HeartbeatsReplayed != 0 {
		t.Errorf("tail replayed %d records after a clean checkpointed shutdown",
			stats.ReportsReplayed+stats.HeartbeatsReplayed)
	}
	assertSameFusionState(t, ref, second)
	if got, err := second.RenderBrowser("motor/1"); err != nil || got != browser {
		t.Errorf("browser after the restart (%v):\n%s\nbefore:\n%s", err, got, browser)
	}
}

// TestRecoverySkipsInapplicableRecords: a WAL written under one failure
// -group configuration replays into an engine whose groups no longer know a
// condition — that record is counted skipped, the rest recover.
func TestRecoverySkipsInapplicableRecords(t *testing.T) {
	t0 := time.Date(1998, 9, 1, 12, 0, 0, 0, time.UTC)
	dir := t.TempDir()

	writer := newJournaledPDME(t, dir, -1)
	if err := writer.Deliver(report("ks/dli", "motor/1", "motor imbalance", 0.5, 0.6, t0, nil)); err != nil {
		t.Fatal(err)
	}
	if err := writer.Deliver(report("ks/dli", "motor/1", "oil whirl", 0.3, 0.4, t0.Add(time.Minute), nil)); err != nil {
		t.Fatal(err)
	}

	model, err := oosm.NewModel(relstore.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	// "oil whirl" is gone from the narrowed groups.
	narrowed, err := New(model, fusion.Groups{"structural": {"motor imbalance", "motor misalignment"}})
	if err != nil {
		t.Fatal(err)
	}
	defer narrowed.Close()
	stats, err := narrowed.OpenJournal(JournalOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReportsReplayed != 1 || stats.SkippedRecords != 1 {
		t.Errorf("replayed=%d skipped=%d, want 1 replayed + 1 skipped", stats.ReportsReplayed, stats.SkippedRecords)
	}
	if b, err := narrowed.Belief("motor/1", "motor imbalance"); err != nil || math.Abs(b-0.6) > 1e-9 {
		t.Errorf("surviving condition belief %v (err %v), want 0.6", b, err)
	}
}

// lockedBuffer is a bytes.Buffer a relay goroutine writes and the test reads.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// throughRelay sends whatever deliver hands a disk-spooled uplink named dcid
// to the server at addr through a TCP relay that records the sender's side of
// the connection, waits for the spool to drain, and returns the frame bodies
// the spool file held and the frame bodies that crossed the wire, with the
// uplink's boot id.
func throughRelay(t *testing.T, addr, dcid string, deliver func(u *uplink.Uplink) error) (spooled, wire [][]byte, boot uint64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var sent lockedBuffer
	var relays sync.WaitGroup
	relays.Add(1)
	go func() {
		defer relays.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed: the exchange is over
			}
			server, err := net.Dial("tcp", addr)
			if err != nil {
				_ = conn.Close()
				continue
			}
			relays.Add(2)
			go func() {
				defer relays.Done()
				_, _ = io.Copy(server, io.TeeReader(conn, &sent))
				_ = server.Close()
			}()
			go func() {
				defer relays.Done()
				_, _ = io.Copy(conn, server)
				_ = conn.Close()
			}()
		}
	}()
	dir := t.TempDir()
	u, err := uplink.New(uplink.Config{Addr: ln.Addr().String(), DCID: dcid, SpoolDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := deliver(u); err != nil {
		t.Fatal(err)
	}
	if err := u.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Acked frames stay in the file until its next compaction.
	const recFrame = 6
	_, err = seglog.Scan(filepath.Join(dir, seglog.FileName(dcid, ".spool")), seglog.Format{Magic: "MPROSUP3", MaxBody: 1 << 20},
		func(r seglog.Record) error {
			if r.Kind == recFrame {
				spooled = append(spooled, bytes.Clone(r.Body))
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	boot = u.Boot()
	if err := u.Close(); err != nil {
		t.Fatal(err)
	}
	_ = ln.Close()
	relays.Wait()
	for stream := sent.buf.Bytes(); len(stream) > 0; {
		n := 4 + int(binary.BigEndian.Uint32(stream))
		wire = append(wire, stream[4:n])
		stream = stream[n:]
	}
	return spooled, wire, boot
}

// walTail reads, through a second handle, the records a live engine's journal
// holds above its checkpoint.
func walTail(t *testing.T, dir string) []journal.Record {
	t.Helper()
	jr, rec, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_ = jr.Close()
	return rec.Tail
}

// TestOneFrameFormSpoolWireJournal drives a report and a summary down the
// real path — a disk-spooled uplink, a TCP connection, a served and journaled
// engine — and requires the report to be the same bytes in the spool record,
// on the wire and in the WAL record: AppendReportEnvelope's, encoded once.
// The summary, which a PDME refuses and so never journals, is in spool and
// wire the bytes proto's TestSummaryFrameGolden pins.
func TestOneFrameFormSpoolWireJournal(t *testing.T) {
	t0 := time.Date(1998, 9, 1, 12, 0, 0, 0, time.UTC)
	jdir := t.TempDir()
	engine := newJournaledPDME(t, jdir, -1)
	defer engine.Close()
	addr, srv, err := engine.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	reports := journalFixtureReports(t0)[:2]
	reports[0].Explanation = "1x radial \"vibration\" elevated\n" // bytes an encoder must escape
	spooled, wire, boot := throughRelay(t, addr, "dc-1", func(u *uplink.Uplink) error {
		for _, r := range reports {
			if err := u.Deliver(r); err != nil {
				return err
			}
		}
		return nil
	})
	tail := walTail(t, jdir)
	if len(spooled) != len(reports) || len(wire) != len(reports) || len(tail) != len(reports) {
		t.Fatalf("%d spool records, %d wire frames, %d WAL records; want %d of each", len(spooled), len(wire), len(tail), len(reports))
	}
	for i, r := range reports {
		want, err := proto.AppendReportEnvelope(nil, r, "dc-1", boot, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		for where, got := range map[string][]byte{"spool record": spooled[i], "wire frame": wire[i], "WAL record": tail[i].Body} {
			if !bytes.Equal(got, want) {
				t.Errorf("report %d: %s\n got %s\nwant %s", i, where, got, want)
			}
		}
		if tail[i].Kind != journalKindFrame {
			t.Errorf("report %d journaled under kind %d, want %d", i, tail[i].Kind, journalKindFrame)
		}
	}
	if engine.ReceivedReports() != len(reports) {
		t.Errorf("the engine fused %d reports, want %d", engine.ReceivedReports(), len(reports))
	}

	summary := &proto.FusedSummary{
		ShardID: "shard-a", Component: "chiller/14", Condition: "refrigerant low charge", Group: "refrigerant",
		Belief: 0.8125, Plausibility: 0.9375, Unknown: 0.125, Reports: 7, Reliability: 0.96, Degraded: true,
		Prognostics: proto.PrognosticVector{{Probability: 0.25, HorizonSeconds: 86400}, {Probability: 0.75, HorizonSeconds: 604800}},
		UpdatedAt:   time.Date(1998, 8, 15, 12, 30, 0, 0, time.UTC),
	}
	spooled, wire, boot = throughRelay(t, addr, "shard-a", func(u *uplink.Uplink) error { return u.DeliverSummary(summary) })
	golden := fmt.Sprintf(`{"kind":"summary","summary":{"shard_id":"shard-a","component":"chiller/14","condition":"refrigerant low charge","group":"refrigerant","belief":0.8125,"plausibility":0.9375,"unknown":0.125,"reports":7,"reliability":0.96,"degraded":true,"prognostics":[{"probability":0.25,"time":86400},{"probability":0.75,"time":604800}],"updated_at":"1998-08-15T12:30:00Z"},"dc":"shard-a","boot":%d,"seq":1}`, boot)
	if len(spooled) != 1 || len(wire) != 1 || string(spooled[0]) != golden || string(wire[0]) != golden {
		t.Errorf("summary\n spool %s\n  wire %s\n  want %s", spooled, wire, golden)
	}
	if _, last, _, _ := engine.JournalInfo(); last != uint64(len(reports)) {
		t.Errorf("journal at %d after a refused summary, want it still at %d", last, len(reports))
	}
}

// parentJournaledReport is the WAL record body the previous release wrote for
// an accepted report (its journal kind 1).
type parentJournaledReport struct {
	DCID   string        `json:"dcid,omitempty"`
	Boot   uint64        `json:"boot,omitempty"`
	Seq    uint64        `json:"seq,omitempty"`
	Report *proto.Report `json:"report"`
}

// TestParentJournalUpgrade is the journal's upgrade contract: the previous
// release's report records are not read. A journal it stopped cleanly — a
// checkpoint over everything, and whatever of its records a crash between
// the checkpoint and the compaction left under the watermark — reopens in
// place with its fusion state; one with such a record in the tail is refused,
// by name and count, with nothing changed on disk or in the engine.
func TestParentJournalUpgrade(t *testing.T) {
	t0 := time.Date(1998, 9, 1, 12, 0, 0, 0, time.UTC)
	dir := t.TempDir()
	ref := newJournaledPDME(t, dir, -1)
	deliverFixture(t, ref, t0)
	_, ckptSeq, _, _ := ref.JournalInfo()
	ref.Close() // the clean stop: a checkpoint at the last jseq, an empty WAL
	// The checkpoint and heartbeat formats did not change; what did is the
	// report record, so put the parent's under the watermark and above it.
	parentRecord := func(i int) []byte {
		body, err := json.Marshal(parentJournaledReport{DCID: "dc-1", Boot: 7, Seq: uint64(i + 1), Report: journalFixtureReports(t0)[i%5]})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	scratch := t.TempDir()
	jr, _, err := journal.Open(scratch)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < int(ckptSeq); i++ {
		if _, err := jr.Append(journalKindParentReport, parentRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join(scratch, "wal.mprosj"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal.mprosj"), wal, 0o644); err != nil {
		t.Fatal(err)
	}

	upgraded := newTestPDME(t)
	stats, err := upgraded.OpenJournal(JournalOptions{Dir: dir, CheckpointEvery: -1})
	if err != nil || !stats.CheckpointLoaded || stats.CheckpointSeq != ckptSeq || stats.ReportsReplayed != 0 || stats.SkippedRecords != 0 {
		t.Fatalf("cleanly stopped parent journal: stats %+v, err %v; want checkpoint@%d and nothing replayed or skipped", stats, err, ckptSeq)
	}
	assertSameFusionState(t, ref, upgraded)
	assertSameBeliefBits(t, ref, upgraded)
	if !upgraded.dedupHandle().Seen("dc-1", 7, 5) {
		t.Error("the dedup window did not come back with the checkpoint")
	}
	if err := upgraded.journalHandle().Close(); err != nil { // abandoned again
		t.Fatal(err)
	}

	// One parent record above the watermark: a parent that was killed.
	if jr, _, err = journal.Open(dir); err != nil {
		t.Fatal(err)
	}
	if seq, err := jr.Append(journalKindParentReport, parentRecord(int(ckptSeq))); err != nil || seq != ckptSeq+1 {
		t.Fatalf("append the parent's tail record: jseq %d, %v", seq, err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	walBefore := readWAL(t, dir)
	ckptBefore, err := os.ReadFile(filepath.Join(dir, "checkpoint.mprosc"))
	if err != nil {
		t.Fatal(err)
	}
	killed := newTestPDME(t)
	defer killed.Close()
	_, err = killed.OpenJournal(JournalOptions{Dir: dir})
	if err == nil || !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), "holds 1 report record") {
		t.Fatalf("error %v, want a refusal naming %s and the 1 record", err, dir)
	}
	if open, _, _, _ := killed.JournalInfo(); open || killed.ReceivedReports() != 0 || len(killed.PrioritizedList()) != 0 {
		t.Errorf("the refusing engine kept something: journal open %v, %d received, %d conclusions", open, killed.ReceivedReports(), len(killed.PrioritizedList()))
	}
	ckpt, err := os.ReadFile(filepath.Join(dir, "checkpoint.mprosc"))
	if err != nil || !bytes.Equal(readWAL(t, dir), walBefore) || !bytes.Equal(ckpt, ckptBefore) {
		t.Errorf("the refused journal was modified (%v)", err)
	}
}

// TestOpenJournalRefusedWithTierAttached: recovery restores state outside
// any write window (the checkpoint's counts), so OpenJournal is refused while
// a read tier's hook is installed, and the refusal opens and restores
// nothing. Detached, the same engine recovers.
func TestOpenJournalRefusedWithTierAttached(t *testing.T) {
	t0 := time.Date(1998, 9, 1, 12, 0, 0, 0, time.UTC)
	dir := t.TempDir()
	writer := newJournaledPDME(t, dir, -1)
	deliverFixture(t, writer, t0)
	writer.Close()

	p := newTestPDME(t)
	defer p.Close()
	windows := &windowLog{p: p}
	if err := p.SetInvalidator(windows); err != nil {
		t.Fatal(err)
	}
	if _, err := p.OpenJournal(JournalOptions{Dir: dir}); err == nil {
		t.Fatal("OpenJournal accepted with a read tier attached")
	}
	if p.journalHandle() != nil || p.ReceivedReports() != 0 || len(p.PrioritizedList()) != 0 || len(windows.seqs) != 0 {
		t.Errorf("the refused OpenJournal restored something: journal open %v, %d received, %d rows, %d windows",
			p.journalHandle() != nil, p.ReceivedReports(), len(p.PrioritizedList()), len(windows.seqs))
	}
	if err := p.SetInvalidator(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.OpenJournal(JournalOptions{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if got, want := p.ReceivedReports(), len(journalFixtureReports(t0)); got != want {
		t.Errorf("recovered %d reports, want %d", got, want)
	}
}

// TestConfigureHealthRefusedAfterOpenJournal: recovery restores the health
// registry's history, which a replaced registry would drop, so
// ConfigureHealth is refused once a journal is open.
func TestConfigureHealthRefusedAfterOpenJournal(t *testing.T) {
	t0 := time.Date(1998, 9, 1, 12, 0, 0, 0, time.UTC)
	dir := t.TempDir()
	writer := newJournaledPDME(t, dir, -1)
	deliverFixture(t, writer, t0)
	writer.Close()

	p := newJournaledPDME(t, dir, -1)
	defer p.Close()
	reg := p.Health()
	if len(reg.Snapshot()) != 1 {
		t.Fatalf("fixture: recovered %d DCs, want 1", len(reg.Snapshot()))
	}
	if err := p.ConfigureHealth(health.Config{}); err == nil {
		t.Error("ConfigureHealth accepted after OpenJournal")
	}
	if p.Health() != reg || len(p.Health().Snapshot()) != 1 {
		t.Errorf("the recovered registry was replaced: %d DCs", len(p.Health().Snapshot()))
	}
}

// TestConfigureDedupKeepsRecoveredWindow: a dedup window configured after
// recovery keeps the recovered tags, so a spool resend of a journaled report
// is acknowledged as a duplicate, not fused a second time.
func TestConfigureDedupKeepsRecoveredWindow(t *testing.T) {
	t0 := time.Date(1998, 9, 1, 12, 0, 0, 0, time.UTC)
	dir := t.TempDir()
	writer := newJournaledPDME(t, dir, -1)
	deliverFixture(t, writer, t0)
	writer.Close()

	p := newJournaledPDME(t, dir, -1)
	defer p.Close()
	p.ConfigureDedup(64)
	addr, srv, err := p.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	c, err := proto.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	fused := p.ReceivedReports()
	dup, err := c.SendTagged(journalFixtureReports(t0)[2], 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !dup || p.ReceivedReports() != fused {
		t.Errorf("a resent journaled tag: dup %v, %d reports fused, want a duplicate and %d", dup, p.ReceivedReports(), fused)
	}
}

// TestDoubleOpenRefused: a second OpenJournal on the same engine fails.
func TestDoubleOpenRefused(t *testing.T) {
	p := newJournaledPDME(t, t.TempDir(), -1)
	defer p.Close()
	if _, err := p.OpenJournal(JournalOptions{Dir: t.TempDir()}); err == nil {
		t.Error("second OpenJournal accepted")
	}
}

package pdme

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/fusion"
	"repro/internal/oosm"
	"repro/internal/proto"
	"repro/internal/relstore"
)

// referenceFrame is a report frame as json.Marshal writes it: proto's
// envelope with no delivery tag.
type referenceFrame struct {
	Kind   string        `json:"kind"`
	Report *proto.Report `json:"report"`
}

// referenceCheckpoint is the checkpoint's reference encoding: json.Marshal of
// the state the fuser's Held, State and ExportState hold,
// the reports sorted by key and each framed by json.Marshal. Callers hold
// acceptMu's write side.
func (p *PDME) referenceCheckpoint() ([]byte, error) {
	st := checkpointState{Format: checkpointFormat, Received: p.ReceivedReports(), Dedup: p.dedupHandle().State(), Health: p.Health().ExportState()}
	reports, counts, total := p.diag.Held(nil)
	st.Counts, st.TotalFused = counts, total
	slices.SortFunc(reports, func(a, b *proto.Report) int {
		return cmp.Or(cmp.Compare(a.SensedObjectID, b.SensedObjectID), cmp.Compare(a.MachineConditionID, b.MachineConditionID),
			cmp.Compare(a.DCID, b.DCID), cmp.Compare(a.KnowledgeSourceID, b.KnowledgeSourceID))
	})
	for _, r := range reports {
		frame, err := json.Marshal(referenceFrame{Kind: "report", Report: r})
		if err != nil {
			return nil, err
		}
		st.Reports = append(st.Reports, frame)
	}
	return json.Marshal(st)
}

// post creates a report object straight in p's model, past the accept path's
// validation, and fails t if knowledge fusion refuses it: a refusal reaches
// nobody but the fused count, which it leaves where it was.
func post(t testing.TB, p *PDME, r *proto.Report) {
	t.Helper()
	fused := p.diag.ReportCount()
	if _, err := p.Model().Create(ReportClass, r); err != nil {
		t.Fatal(err)
	}
	if p.diag.ReportCount() == fused {
		t.Fatalf("knowledge fusion refused %+v", r)
	}
}

// checkpointBytes returns what Checkpoint writes for p's state and the
// reference encoding, both taken in one locked section.
func checkpointBytes(t testing.TB, p *PDME) (got, want []byte) {
	t.Helper()
	p.acceptMu.Lock()
	c := p.captureCheckpoint()
	want, werr := p.referenceCheckpoint()
	p.acceptMu.Unlock()
	got, err := c.appendJSON(nil)
	if err != nil || werr != nil {
		t.Fatalf("writer error %v, reference error %v", err, werr)
	}
	return got, want
}

// oddGroups names conditions and groups with everything encoding/json
// escapes: HTML characters, quotes, control characters, U+2028/2029 and
// invalid UTF-8.
func oddGroups() fusion.Groups {
	return fusion.Groups{
		"g<&>":          {"c\"quoted\\", "c\u2028line", "c\x01\x1f\x7f"},
		"g\u2029\xff":   {"c\xff\xfe bad", "c\tab\b\f\n\r"},
		"plain <group>": {"ascii"},
	}
}

func newOddPDME(t testing.TB) *PDME {
	t.Helper()
	model, err := oosm.NewModel(relstore.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(model, oddGroups())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// checkpointShapes are engine states the writer must encode exactly as the
// reference does.
var checkpointShapes = []struct {
	name  string
	odd   bool // built over oddGroups
	build func(t testing.TB, p *PDME)
}{
	{"empty engine", false, func(testing.TB, *PDME) {}},
	{"no prognostics", false, func(t testing.TB, p *PDME) {
		t0 := time.Date(1998, 8, 15, 12, 0, 0, 0, time.UTC)
		for i, r := range journalFixtureReports(t0) {
			r.Prognostics = nil
			if err := p.DeliverTagged(r, "dc-1", 3, uint64(i+1)); err != nil {
				t.Fatal(err)
			}
		}
	}},
	{"journal fixture", false, func(t testing.TB, p *PDME) {
		deliverFixture(t, p, time.Date(1998, 8, 15, 12, 0, 0, 123456789, time.UTC))
	}},
	{"anonymous source, zero and zoned timestamps", false, func(t testing.TB, p *PDME) {
		zoned := time.Date(2001, 2, 3, 4, 5, 6, 700, time.FixedZone("IST", 5*3600+1800))
		// No report is zero-stamped (the historian refuses one); the health
		// section's last_heartbeat is.
		for _, r := range []struct {
			dc, source string
			at         time.Time
		}{{"", "", zoned}, {"", "ks/dli", zoned.Add(time.Second)}, {"dc-1", "", zoned}, {"dc-1", "ks/dli", zoned}, {"dc-1", "ks/west", zoned.In(time.FixedZone("", -7*3600))}} {
			post(t, p, &proto.Report{DCID: r.dc, KnowledgeSourceID: r.source, SensedObjectID: "pump/9", MachineConditionID: "oil whirl", Belief: 0.4, Timestamp: r.at})
		}
		post(t, p, &proto.Report{SensedObjectID: "pump/9", MachineConditionID: "motor imbalance", Belief: 0.999, Timestamp: zoned.UTC()})
	}},
	{"dedup window across a boot change", false, func(t testing.TB, p *PDME) {
		p.ConfigureDedup(8)
		d := p.dedupHandle()
		for seq := uint64(1); seq <= 20; seq++ {
			d.Mark("dc-1", 1, seq)
		}
		for _, seq := range []uint64{3, 1, 2, 7} {
			d.Mark("dc-1", 2, seq) // the boot change resets the window
		}
		for _, seq := range []uint64{1 << 40, 5, 1<<40 - 3} {
			d.Mark("dc-0", 9, seq)
		}
		d.Mark("dc-2", 0, 0)
		d.Seen("dc-1", 2, 3) // one hit
	}},
	{"heartbeats with suites and restarts", false, func(t testing.TB, p *PDME) {
		t0 := time.Date(1998, 8, 15, 12, 0, 0, 0, time.UTC)
		for i, inc := range []uint64{1, 1, 2, 3, 3} {
			hb := &proto.Heartbeat{DCID: "dc-7", Boot: 4, Incarnation: inc, SentAt: t0.Add(time.Duration(i) * time.Minute), SpoolDepth: i,
				Suites: []proto.SuiteStatus{{Name: "vibration-test", LastRun: t0, Runs: int64(i)}, {Name: "never-ran"}}}
			if err := p.ObserveHeartbeat(hb); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.ObserveHeartbeat(&proto.Heartbeat{DCID: "dc-3", SentAt: t0}); err != nil {
			t.Fatal(err)
		}
		p.Health().ObserveReport("dc-3", "ks/fuzzy", t0.Add(time.Second))
	}},
	{"names encoding/json escapes", true, func(t testing.TB, p *PDME) {
		at := time.Date(1998, 8, 15, 12, 0, 0, 0, time.UTC)
		for i, g := range []string{"c\"quoted\\", "c\u2028line", "c\x01\x1f\x7f", "c\xff\xfe bad", "c\tab\b\f\n\r", "ascii"} {
			for _, comp := range []string{"m<1>&\u2029", "m\"2\"", "m\xc3"} {
				for _, src := range []string{"ks\t\"<x>\\", "ks/\u00e9t\u00e9", ""} {
					post(t, p, &proto.Report{DCID: src, KnowledgeSourceID: "ks<\u2028>", SensedObjectID: comp, MachineConditionID: g, Belief: 0.3,
						Timestamp: at.Add(time.Duration(i) * time.Second), Explanation: "a & b < c\u2029", SuspectChannels: []string{"\xff"},
						Prognostics: proto.PrognosticVector{{Probability: 0.2, HorizonSeconds: 3600}}})
				}
			}
			p.dedupHandle().Mark("dc\x00<&>\u2028", 1, uint64(i+1))
		}
		if err := p.ObserveHeartbeat(&proto.Heartbeat{DCID: "dc<\xff>", SentAt: at,
			Suites: []proto.SuiteStatus{{Name: "s&\u2029"}}}); err != nil {
			t.Fatal(err)
		}
	}},
	{"restored extremes", false, func(t testing.TB, p *PDME) {
		frames := []string{
			`{"kind":"report","report":{"dc_id":"dc-1","knowledge_source_id":"ks/a","sensed_object_id":"m/1","machine_condition_id":"motor imbalance","severity":5e-324,"belief":1e-7,"timestamp":"9999-12-31T23:59:59.999999999Z","prognostics":[{"probability":1e-7,"time":1e21},{"probability":1,"time":1.5e300}]}}`,
			`{"kind":"report","report":{"dc_id":"dc-1","knowledge_source_id":"ks/b","sensed_object_id":"m/1","machine_condition_id":"motor misalignment","severity":1,"belief":1,"timestamp":"0000-01-01T00:00:00.000000001Z"}}`,
			`{"kind":"report","report":{"knowledge_source_id":"ks/c","sensed_object_id":"m/2","machine_condition_id":"oil whirl","severity":0.1,"belief":0.30000000000000004,"timestamp":"2001-02-03T04:05:06-07:00"}}`,
			`{"kind":"report","report":{"dc_id":"dc-2","knowledge_source_id":"ks/a","sensed_object_id":"m/1","machine_condition_id":"no such condition","severity":0.5,"belief":0.5,"timestamp":"2001-02-03T04:05:06Z"}}`,
			`{"kind":"summary","summary":{}}`,
			`not a frame`,
		}
		st := checkpointState{
			Format:   checkpointFormat,
			Received: 1 << 40,
			Dedup:    proto.DedupState{Hits: 1<<63 - 1, DCs: []proto.DedupDCState{{DCID: "dc-1", Boot: 1<<64 - 1, MaxSeq: 4}}},
			Counts: []fusion.PairCount{{Component: "m/1", Condition: "motor imbalance", Reports: 1 << 40}, {Component: "m/1", Condition: "motor misalignment", Reports: 0},
				{Component: "m/9", Condition: "oil whirl", Reports: 3}, {Component: "m/2", Condition: "no such condition", Reports: 2}},
			TotalFused: 7,
		}
		for _, f := range frames {
			st.Reports = append(st.Reports, json.RawMessage(f))
		}
		if skipped := p.restoreCheckpoint(&st); skipped != 3 {
			t.Fatalf("%d of the checkpoint's frames skipped, want the unknown condition's, the summary and the garbage", skipped)
		}
	}},
}

func buildShape(t testing.TB, odd bool, build func(testing.TB, *PDME)) *PDME {
	t.Helper()
	var p *PDME
	if odd {
		p = newOddPDME(t)
	} else {
		p = newTestPDME(t)
	}
	build(t, p)
	return p
}

// TestCheckpointBytesMatchReference: for every engine shape the checkpoint
// writer's bytes are json.Marshal's of the reference state, so a checkpoint
// written by either encoder loads wherever the other's does.
func TestCheckpointBytesMatchReference(t *testing.T) {
	for _, sh := range checkpointShapes {
		t.Run(sh.name, func(t *testing.T) {
			p := buildShape(t, sh.odd, sh.build)
			got, want := checkpointBytes(t, p)
			if !bytes.Equal(got, want) {
				t.Fatalf("writer and reference differ at byte %d:\n got %s\nwant %s", firstDiff(got, want), got, want)
			}
		})
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestCheckpointWriterRefusesWhatMarshalRefuses: a time json.Marshal cannot
// write fails the writer too, rather than producing a checkpoint the
// reference would not.
func TestCheckpointWriterRefusesWhatMarshalRefuses(t *testing.T) {
	for _, at := range []time.Time{
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2000, 1, 1, 0, 0, 0, 0, time.FixedZone("", -25*3600)),
		time.Date(2000, 1, 1, 0, 0, 0, 0, time.FixedZone("", 24*3600)),
	} {
		p := newTestPDME(t)
		post(t, p, report("ks/a", "m/1", "oil whirl", 0.5, 0.5, at, nil))
		p.acceptMu.Lock()
		c := p.captureCheckpoint()
		_, werr := p.referenceCheckpoint()
		p.acceptMu.Unlock()
		if _, err := c.appendJSON(nil); err == nil || werr == nil {
			t.Errorf("time %v: writer error %v, reference error %v; want both to fail", at, err, werr)
		}
	}
}

// FuzzCheckpointJSON: any checkpoint that decodes restores — its reports
// re-posted and folded, its counts, dedup window and health registry put
// back — and the restored engine's checkpoint is written by the writer
// exactly as by json.Marshal of its reference state.
func FuzzCheckpointJSON(f *testing.F) {
	for _, sh := range checkpointShapes {
		if sh.odd {
			continue
		}
		p := buildShape(f, false, sh.build)
		p.acceptMu.Lock()
		blob, err := p.referenceCheckpoint()
		p.acceptMu.Unlock()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte(`{"format":2,"reports":[{"kind":"report","report":{"dc_id":"\ufffd","knowledge_source_id":"<\u2028>","sensed_object_id":"m","machine_condition_id":"oil whirl","severity":0,"belief":1e-7,"timestamp":"1998-08-01T00:00:00Z"}}],"counts":[{"component":"m","condition":"oil whirl","reports":-1}]}`))
	f.Fuzz(func(t *testing.T, blob []byte) {
		var st checkpointState
		if json.Unmarshal(blob, &st) != nil {
			return
		}
		p := newTestPDME(t)
		p.restoreCheckpoint(&st)
		p.acceptMu.Lock()
		c := p.captureCheckpoint()
		want, werr := p.referenceCheckpoint()
		p.acceptMu.Unlock()
		got, err := c.appendJSON(nil)
		if (err != nil) != (werr != nil) {
			t.Fatalf("writer error %v, reference error %v", err, werr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("writer and reference differ at byte %d:\n got %s\nwant %s", firstDiff(got, want), got, want)
		}
	})
}

// TestCheckpointCaptureConsistentUnderDelivery: what the checkpoint captured
// under the accept lock is what it writes, although deliveries to the very
// same pairs, sources and DCs go on while it formats.
func TestCheckpointCaptureConsistentUnderDelivery(t *testing.T) {
	p := newTestPDME(t)
	t0 := time.Date(1998, 8, 15, 12, 0, 0, 0, time.UTC)
	vec := proto.PrognosticVector{{Probability: 0.3, HorizonSeconds: 24 * 3600}, {Probability: 0.8, HorizonSeconds: 96 * 3600}}
	sources := []string{"ks/dli", "ks/sbfr", "ks/fuzzy"}
	conds := []string{"motor imbalance", "oil whirl", "stator electrical unbalance", "motor misalignment"}
	seq := uint64(0)
	deliver := func(round int) error {
		for m := range 8 {
			for i, cond := range conds {
				seq++
				at := t0.Add(time.Duration(round)*time.Hour + time.Duration(i)*time.Second)
				r := report(sources[(m+i+round)%len(sources)], fmt.Sprintf("motor/%d", m), cond, 0.5, 0.2+0.1*float64(round%5), at, vec)
				if err := p.DeliverTagged(r, fmt.Sprintf("dc-%d", m%3), 1, seq); err != nil {
					return err
				}
			}
		}
		return p.ObserveHeartbeat(&proto.Heartbeat{DCID: "dc-0", SentAt: t0.Add(time.Duration(round) * time.Hour), Incarnation: uint64(round/3 + 1)})
	}
	for round := range 3 {
		if err := deliver(round); err != nil {
			t.Fatal(err)
		}
	}
	p.acceptMu.Lock()
	c := p.captureCheckpoint()
	want, err := p.referenceCheckpoint()
	p.acceptMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	// The first round after the capture lands before the encode starts, so a
	// capture that shares what deliveries change cannot pass by luck; the
	// rest run while it formats.
	moved, done := make(chan error, 1), make(chan error, 1)
	go func() {
		moved <- deliver(3)
		var err error
		for round := 4; round < 12 && err == nil; round++ {
			err = deliver(round)
		}
		done <- err
	}()
	if err := <-moved; err != nil {
		t.Fatal(err)
	}
	got, err := c.appendJSON(nil)
	if derr := <-done; derr != nil {
		t.Fatal(derr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the encode saw deliveries made after the capture (first difference at byte %d)", firstDiff(got, want))
	}
}

// TestCheckpointSuccessClearsStaleFailure: a failed automatic checkpoint is
// reported by JournalError only until a later one succeeds — a daemon must
// not keep printing a failure the journal has since recovered from.
func TestCheckpointSuccessClearsStaleFailure(t *testing.T) {
	dir := t.TempDir()
	p := newJournaledPDME(t, dir, 4)
	defer p.Close()
	// A non-empty directory where the checkpoint's temp file goes: the
	// stale-temp cleanup cannot remove it, so the checkpoint fails.
	blocker := filepath.Join(dir, "checkpoint.mprosc.tmp")
	if err := os.MkdirAll(filepath.Join(blocker, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(1998, 8, 15, 12, 0, 0, 0, time.UTC)
	for i := range 5 {
		r := report("ks/dli", "motor/1", "motor imbalance", 0.5, 0.4, t0.Add(time.Duration(i)*time.Minute), nil)
		if err := p.DeliverTagged(r, "dc-1", 1, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if p.JournalError() == nil {
		t.Fatal("the automatic checkpoint succeeded with a directory in its temp file's place")
	}
	if err := os.RemoveAll(blocker); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 13; i++ {
		r := report("ks/dli", "motor/1", "motor imbalance", 0.5, 0.4, t0.Add(time.Duration(i)*time.Minute), nil)
		if err := p.DeliverTagged(r, "dc-1", 1, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, ckpt, _ := p.JournalInfo(); ckpt == 0 {
		t.Fatal("no checkpoint succeeded after the blocker was removed")
	}
	if err := p.JournalError(); err != nil {
		t.Fatalf("JournalError after a successful checkpoint = %v, want nil", err)
	}
}

// ingestShape draws a seeded schedule at the fleet shape the benchmark's
// durable ingest runs: 128 chillers, 12 conditions in 4 groups, 4 knowledge
// sources and two DCs, each report about a machine, condition and source
// drawn at random, one virtual second after the last.
type ingestShape struct {
	rng   *rand.Rand
	conds []string
	seqs  [2]uint64
	n     int
}

// newIngestShapePDME returns an engine configured for the shape — its groups,
// a 1 024-sequence dedup window per DC as the benchmark configures — and the
// schedule drawn from seed.
func newIngestShapePDME(t testing.TB, seed int64) (*PDME, *ingestShape) {
	t.Helper()
	groups := fusion.Groups{}
	var conds []string
	for g := range 4 {
		for c := range 3 {
			name := fmt.Sprintf("condition %c%d", 'a'+g, c)
			groups[fmt.Sprintf("group %d", g)] = append(groups[fmt.Sprintf("group %d", g)], name)
			conds = append(conds, name)
		}
	}
	model, err := oosm.NewModel(relstore.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(model, groups)
	if err != nil {
		t.Fatal(err)
	}
	p.ConfigureDedup(1024)
	return p, &ingestShape{rng: rand.New(rand.NewSource(seed)), conds: conds}
}

var ingestShapeSources = []string{"ks/dli", "ks/fuzzy", "ks/sbfr", "ks/wnn"}

// next appends the schedule's next n deliveries to run.
func (s *ingestShape) next(run []proto.Delivery, n int) []proto.Delivery {
	t0 := time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC)
	for range n {
		dc := s.n % 2
		s.seqs[dc]++
		p1 := 0.1 + 0.4*s.rng.Float64()
		r := report(ingestShapeSources[s.rng.Intn(len(ingestShapeSources))], fmt.Sprintf("chiller/%d", s.rng.Intn(128)),
			s.conds[s.rng.Intn(len(s.conds))], 0.5, 0.3+0.6*s.rng.Float64(), t0.Add(time.Duration(s.n)*time.Second),
			proto.PrognosticVector{{Probability: p1, HorizonSeconds: 86400 * float64(3+s.rng.Intn(28))}})
		r.Explanation = fmt.Sprintf("synthetic finding, severity %.2f, ticket %06d", r.Severity, s.n)
		run = append(run, proto.Delivery{Report: r, DCID: fmt.Sprintf("dc-%d", dc), Boot: 1, Seq: s.seqs[dc]})
		s.n++
	}
	return run
}

// deliverRun delivers run as one batch and fails on any refusal.
func deliverRun(t testing.TB, p *PDME, run []proto.Delivery) {
	t.Helper()
	p.DeliverBatch(run)
	for _, d := range run {
		if d.Err != nil {
			t.Fatal(d.Err)
		}
	}
}

// TestCheckpointAllocBudget: at the fleet shape the benchmark's durable
// ingest runs — 128 chillers, 12 conditions in 4 groups, 4 knowledge sources,
// two DCs with full dedup windows — one steady-state Checkpoint allocates at
// most 2.5 times the checkpoint it writes: one buffer for the bytes, the
// capture's copies, and little else.
func TestCheckpointAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("fills a 128-machine engine")
	}
	p, shape := newIngestShapePDME(t, 1)
	dir := t.TempDir()
	if _, err := p.OpenJournal(JournalOptions{Dir: dir, CheckpointEvery: -1}); err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	run := make([]proto.Delivery, 0, 512)
	for range 24 * 1024 / cap(run) {
		run = shape.next(run[:0], cap(run))
		deliverRun(t, p, run)
	}
	if err := p.Checkpoint(); err != nil { // sizes the next one's buffer
		t.Fatal(err)
	}
	if err := p.DeliverTagged(report("ks/dli", "chiller/1", shape.conds[0], 0.5, 0.5, time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC), nil), "dc-0", 1, shape.seqs[0]+1); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	fi, err := os.Stat(filepath.Join(dir, "checkpoint.mprosc"))
	if err != nil {
		t.Fatal(err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	ratio := float64(alloc) / float64(fi.Size())
	t.Logf("one checkpoint of %d bytes allocated %d bytes (%.2f×)", fi.Size(), alloc, ratio)
	if ratio > 2.5 {
		t.Errorf("one checkpoint of %d bytes allocated %d bytes, %.2f× its size; budget 2.5×", fi.Size(), alloc, ratio)
	}
}

// pacedCheckpoint is one automatic checkpoint a schedule saw: after which
// batch, at which watermark, how long, and the journal's byte count it pinned.
type pacedCheckpoint struct {
	batch int
	seq   uint64
	len   int
	tip   uint64
}

// lastCheckpoint reads the engine's newest checkpoint, stamped with batch.
func lastCheckpoint(p *PDME, batch int) pacedCheckpoint {
	_, _, seq, _ := p.JournalInfo()
	p.mu.Lock()
	defer p.mu.Unlock()
	return pacedCheckpoint{batch: batch, seq: seq, len: p.checkpointLen, tip: p.checkpointTip}
}

// walTip is the journal's byte count: every WAL byte appended since the
// journal was created, for an engine that never reopened it.
func walTip(p *PDME) uint64 {
	_, n := p.journalHandle().Tip()
	return n
}

// crashImage copies the journal files in dir as a crash would leave them, to
// a directory of their own that a second engine can recover from while the
// first still holds the originals.
func crashImage(t *testing.T, dir string) string {
	t.Helper()
	image := t.TempDir()
	for _, name := range []string{"wal.mprosj", "checkpoint.mprosc"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(image, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return image
}

// TestCheckpointPacedByWALBytes: by default a checkpoint waits for the WAL to
// outgrow it. On a seeded schedule over the benchmark's fleet shape, whose
// checkpoint is larger than 1 024 records of WAL, (i) the checkpoints write at
// most half the WAL's bytes plus one checkpoint; (ii) a tiny state still
// checkpoints every 1 024 records; (iii) CheckpointEvery 8 still checkpoints
// every 8 records; (iv) an engine abandoned, without Close, just before a
// paced checkpoint recovers Ranked/Belief bit for bit, replays no more than
// the bound, and then paces its checkpoints exactly as the undisturbed run.
func TestCheckpointPacedByWALBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("fills a 128-machine engine")
	}
	const batch, batches = 32, 640
	undisturbed, shape := newIngestShapePDME(t, 1)
	if _, err := undisturbed.OpenJournal(JournalOptions{Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	defer undisturbed.Close()
	var ckpts []pacedCheckpoint
	seen := uint64(0) // the newest watermark in ckpts
	run := make([]proto.Delivery, 0, batch)
	for b := range batches {
		run = shape.next(run[:0], batch)
		deliverRun(t, undisturbed, run)
		if c := lastCheckpoint(undisturbed, b); c.seq != seen {
			ckpts, seen = append(ckpts, c), c.seq
		}
	}
	if err := undisturbed.JournalError(); err != nil {
		t.Fatal(err)
	}
	wal := walTip(undisturbed)
	written, largest := 0, 0
	for _, c := range ckpts {
		written += c.len
		largest = max(largest, c.len)
	}
	perRecord := float64(wal) / float64(batch*batches)
	t.Logf("%d records, %d WAL bytes (%.0f per record); %d checkpoints at %v, %d bytes written, the last %d bytes",
		batch*batches, wal, perRecord, len(ckpts), ckpts, written, ckpts[len(ckpts)-1].len)
	if last := ckpts[len(ckpts)-1].len; float64(last) <= DefaultCheckpointEvery*perRecord {
		t.Fatalf("the last checkpoint (%d bytes) is no larger than %d records of WAL (%.0f bytes): the shape does not test the pace",
			last, DefaultCheckpointEvery, DefaultCheckpointEvery*perRecord)
	}
	if len(ckpts) < 3 || ckpts[0].seq != DefaultCheckpointEvery {
		t.Fatalf("checkpoints at %v: want the first at record %d and at least two paced ones after it", ckpts, DefaultCheckpointEvery)
	}
	// (i) Each checkpoint after the first waited for twice its predecessor's
	// length of WAL, so all but the last add up to at most half the WAL.
	if uint64(written) > wal/checkpointPace+uint64(largest) {
		t.Errorf("(i) checkpoints wrote %d bytes for %d WAL bytes: over half the WAL plus one checkpoint (%d)",
			written, wal, wal/checkpointPace+uint64(largest))
	}

	// (iv) A second engine runs the same schedule and is abandoned, never
	// Closed. Its files are copied twice: halfway between the last two
	// checkpoints, with more than DefaultCheckpointEvery records above the
	// watermark, and right before the batch that trips the last one, when
	// the WAL tail is the longest the cadence lets grow.
	crash, prev := ckpts[len(ckpts)-1], ckpts[len(ckpts)-2]
	half := (prev.batch + crash.batch) / 2
	if (half-prev.batch)*batch <= DefaultCheckpointEvery {
		t.Fatalf("checkpoints after batches %d and %d: too close to crash between them above the record floor", prev.batch, crash.batch)
	}
	crashed, replay := newIngestShapePDME(t, 1)
	dir := t.TempDir()
	if _, err := crashed.OpenJournal(JournalOptions{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	var halfway string
	for b := range crash.batch {
		if b == half {
			halfway = crashImage(t, dir)
		}
		run = replay.next(run[:0], batch)
		deliverRun(t, crashed, run)
	}
	if got := lastCheckpoint(crashed, crash.batch-1); got.seq != prev.seq || got.len != prev.len {
		t.Fatalf("the second run's newest checkpoint is %+v before the crash, want %+v", got, prev)
	}
	_, last, _, _ := crashed.JournalInfo()
	tailBytes := walTip(crashed) - prev.tip
	recovered, _ := newIngestShapePDME(t, 1)
	stats, err := recovered.OpenJournal(JournalOptions{Dir: crashImage(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if !stats.CheckpointLoaded || stats.CheckpointSeq != prev.seq || uint64(stats.ReportsReplayed) != last-prev.seq || stats.SkippedRecords != 0 {
		t.Fatalf("recovery %+v: want checkpoint %d loaded and %d records replayed", stats, prev.seq, last-prev.seq)
	}
	// The bound: the floor's records or twice the checkpoint's length of
	// WAL, whichever is more, plus the batch in flight when the cadence fired.
	if bound := max(DefaultCheckpointEvery*perRecord, float64(checkpointPace*prev.len)) + batch*perRecord; float64(tailBytes) > bound {
		t.Errorf("(iv) recovery replayed %d records, %d WAL bytes: over the bound of %.0f bytes", stats.ReportsReplayed, tailBytes, bound)
	}
	t.Logf("crash after record %d: replayed %d records (%d WAL bytes) above a %d-byte checkpoint", last, stats.ReportsReplayed, tailBytes, prev.len)
	assertSameFusionState(t, crashed, recovered)

	// The engine recovered halfway paces as the undisturbed one did: its
	// next checkpoint lands after the same batch, at the same record.
	resumed, rest := newIngestShapePDME(t, 1)
	if _, err := resumed.OpenJournal(JournalOptions{Dir: halfway}); err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	for range half {
		rest.next(run[:0], batch)
	}
	var again []pacedCheckpoint
	seen = prev.seq
	for b := half; b < batches; b++ {
		run = rest.next(run[:0], batch)
		deliverRun(t, resumed, run)
		if c := lastCheckpoint(resumed, b); c.seq != seen {
			again, seen = append(again, c), c.seq
		}
	}
	if len(again) != 1 || again[0].batch != crash.batch || again[0].seq != crash.seq || again[0].len != crash.len {
		t.Errorf("(iv) after a recovery halfway the checkpoints landed at %v, want %v", again, []pacedCheckpoint{crash})
	}
	assertSameFusionState(t, undisturbed, resumed)

	// (ii) A tiny state checkpoints every DefaultCheckpointEvery records:
	// twice its checkpoint is far less WAL than the floor's records.
	tiny := newTestPDME(t)
	if _, err := tiny.OpenJournal(JournalOptions{Dir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	defer tiny.Close()
	t0 := time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC)
	for n := 1; n <= 3*DefaultCheckpointEvery+16; n += 16 {
		run = run[:0]
		for i := range 16 {
			r := report("ks/dli", "motor/1", "motor imbalance", 0.5, 0.5, t0.Add(time.Duration(n+i)*time.Second), nil)
			run = append(run, proto.Delivery{Report: r, DCID: "dc-1", Boot: 1, Seq: uint64(n + i)})
		}
		deliverRun(t, tiny, run)
		_, last, ckpt, _ := tiny.JournalInfo()
		if want := last / DefaultCheckpointEvery * DefaultCheckpointEvery; ckpt != want {
			t.Fatalf("(ii) a tiny state's checkpoint after record %d is at %d, want %d", last, ckpt, want)
		}
	}

	// (iii) An explicit cadence keeps its exact record meaning.
	every8 := newTestPDME(t)
	if _, err := every8.OpenJournal(JournalOptions{Dir: t.TempDir(), CheckpointEvery: 8}); err != nil {
		t.Fatal(err)
	}
	defer every8.Close()
	for n := uint64(1); n <= 40; n++ {
		r := report("ks/dli", "motor/1", "motor imbalance", 0.5, 0.5, t0.Add(time.Duration(n)*time.Second), nil)
		if err := every8.DeliverTagged(r, "dc-1", 1, n); err != nil {
			t.Fatal(err)
		}
		if _, _, ckpt, _ := every8.JournalInfo(); ckpt != n/8*8 {
			t.Fatalf("(iii) CheckpointEvery 8: checkpoint after record %d is at %d, want %d", n, ckpt, n/8*8)
		}
	}
}

package pdme

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/historian"
	"repro/internal/journal"
	"repro/internal/oosm"
	"repro/internal/proto"
	"repro/internal/relstore"
	"repro/internal/uplink"
)

// runRecorder is the engine as the server sees it, a proto.BatchSink, noting
// how long each run it was handed was.
type runRecorder struct {
	*PDME
	mu   sync.Mutex
	runs []int
}

func (s *runRecorder) DeliverBatch(run []proto.Delivery) {
	s.mu.Lock()
	s.runs = append(s.runs, len(run))
	s.mu.Unlock()
	s.PDME.DeliverBatch(run)
}

// taggedOnly hands the engine whatever run the server cut one delivery at a
// time: the singles reference the batch accept is compared against.
type taggedOnly struct{ p *PDME }

func (s taggedOnly) Deliver(r *proto.Report) error { return s.p.Deliver(r) }
func (s taggedOnly) DeliverBatch(run []proto.Delivery) {
	for i := range run {
		s.p.DeliverBatch(run[i : i+1])
	}
}

// serveSink runs a report server over sink with the engine's dedup window
// and returns a client connected to it.
func serveSink(t *testing.T, p *PDME, sink proto.Sink) *proto.Client {
	t.Helper()
	srv := proto.NewServer(sink)
	srv.SetDedup(p.dedupHandle())
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client, err := proto.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	return client
}

// batchStream draws a seeded report stream from two senders, cut into runs of
// 1..MaxRun frames. Beside plain ascending frames a run may hold an invalid
// report, a condition outside every failure group, a sequence already sent in
// an earlier run, and a sequence repeated inside the run.
func batchStream(rng *rand.Rand, frames int) [][]proto.Delivery {
	conditions := []string{"motor imbalance", "motor misalignment", "oil whirl",
		"motor bearing outer race defect", "stator electrical unbalance", "motor rotor bar problem"}
	sources := []string{"ks/dli", "ks/sbfr", "ks/mset"}
	t0 := time.Date(1998, 9, 1, 12, 0, 0, 0, time.UTC)
	next := map[string]uint64{"dc-1": 1, "dc-2": 1}
	var runs [][]proto.Delivery
	for made := 0; made < frames; {
		run := make([]proto.Delivery, 0, proto.MaxRun)
		for n := 1 + rng.Intn(proto.MaxRun); len(run) < n; made++ {
			dc := "dc-1"
			if rng.Intn(4) == 0 {
				dc = "dc-2"
			}
			var vec proto.PrognosticVector
			if rng.Intn(3) == 0 {
				vec = proto.PrognosticVector{{Probability: 0.2 + 0.1*rng.Float64(), HorizonSeconds: 24 * 3600},
					{Probability: 0.7 + 0.2*rng.Float64(), HorizonSeconds: 96 * 3600}}
			}
			r := report(sources[rng.Intn(len(sources))], fmt.Sprintf("motor/%d", 1+rng.Intn(3)),
				conditions[rng.Intn(len(conditions))], rng.Float64(), 0.3+0.6*rng.Float64(),
				t0.Add(time.Duration(made)*time.Minute), vec)
			r.DCID = dc
			d := proto.Delivery{Report: r, DCID: dc, Boot: 7, Seq: next[dc]}
			switch roll := rng.Intn(20); {
			case roll == 0:
				r.Severity = 2 // invalid: refused before it reaches the engine
			case roll == 1:
				r.MachineConditionID = "no such condition" // refused at the engine's door
			case roll == 2 && d.Seq > 1:
				d.Seq = 1 + uint64(rng.Int63n(int64(d.Seq-1))) // already sent, maybe long ago
			case roll == 3 && len(run) > 0:
				d.DCID, d.Seq = run[len(run)-1].DCID, run[len(run)-1].Seq // repeated inside the run
			}
			if d.Seq == next[dc] {
				next[dc]++
			}
			run = append(run, d)
		}
		runs = append(runs, run)
	}
	return runs
}

type answer struct {
	dup bool
	err string
}

func answersOf(run []proto.Delivery) []answer {
	out := make([]answer, len(run))
	for i, d := range run {
		out[i].dup = d.Dup
		if d.Err != nil {
			out[i].err = d.Err.Error()
		}
	}
	return out
}

// assertSameBeliefBits compares the fused belief of every pair either engine
// knows, bit for bit.
func assertSameBeliefBits(t *testing.T, ref, got *PDME) {
	t.Helper()
	for _, item := range append(ref.PrioritizedList(), got.PrioritizedList()...) {
		want, err1 := ref.Belief(item.Component, item.Condition)
		have, err2 := got.Belief(item.Component, item.Condition)
		if err1 != nil || err2 != nil || math.Float64bits(want) != math.Float64bits(have) {
			t.Errorf("%s/%s: belief %v (%v), want bit-exact %v (%v)", item.Component, item.Condition, have, err2, want, err1)
		}
	}
}

// TestBatchAcceptMatchesSingles is the differential property behind run
// batching: an engine the server feeds whole runs through DeliverBatch and
// one it feeds frame by frame through DeliverTagged answer every frame alike
// and end in the same state — beliefs bit for bit, ranking, received and
// suppressed counts — and a fresh engine recovering either journal matches
// both. The dedup window is narrower than a run.
func TestBatchAcceptMatchesSingles(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			dirs := [2]string{t.TempDir(), t.TempDir()}
			var engines [2]*PDME
			for i := range engines {
				engines[i] = newTestPDME(t)
				engines[i].ConfigureDedup(proto.MaxRun / 2)
				if _, err := engines[i].OpenJournal(JournalOptions{Dir: dirs[i], CheckpointEvery: -1}); err != nil {
					t.Fatal(err)
				}
			}
			batched, singles := engines[0], engines[1]
			recorder := &runRecorder{PDME: batched}
			runClient := serveSink(t, batched, recorder)
			oneClient := serveSink(t, singles, taggedOnly{singles})

			for ri, run := range batchStream(rand.New(rand.NewSource(seed)), 400) {
				mirror := append([]proto.Delivery(nil), run...)
				if n, err := runClient.SendRun(run); err != nil || n != len(run) {
					t.Fatalf("run %d: SendRun answered %d of %d: %v", ri, n, len(run), err)
				}
				for i := range mirror {
					if n, err := oneClient.SendRun(mirror[i : i+1]); err != nil || n != 1 {
						t.Fatalf("run %d frame %d: single send: %v", ri, i, err)
					}
				}
				if got, want := answersOf(run), answersOf(mirror); !reflect.DeepEqual(got, want) {
					t.Fatalf("run %d: batched answers %+v, frame by frame %+v", ri, got, want)
				}
			}
			longest := 0
			for _, n := range recorder.runs {
				longest = max(longest, n)
			}
			if longest < 2 {
				t.Fatalf("the server never handed the engine a run longer than %d", longest)
			}
			if batched.DedupHits() == 0 || batched.DedupHits() != singles.DedupHits() {
				t.Errorf("dedup hits %d batched, %d frame by frame; want equal and non-zero", batched.DedupHits(), singles.DedupHits())
			}
			assertSameFusionState(t, singles, batched)
			assertSameBeliefBits(t, singles, batched)

			// Both engines journaled the frames as they arrived, in one order:
			// the two WALs are the same bytes.
			wals := [2][]byte{readWAL(t, dirs[0]), readWAL(t, dirs[1])}
			if !bytes.Equal(wals[0], wals[1]) {
				t.Errorf("batch-fed WAL (%d bytes) and frame-by-frame WAL (%d bytes) differ", len(wals[0]), len(wals[1]))
			}
			// A third journal holds the same frames as a newer sender might
			// have written them, with a field this decoder does not know.
			newer := t.TempDir()
			jr, _, err := journal.Open(newer)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range walTail(t, dirs[0]) {
				body := bytes.Replace(r.Body, []byte(`{"kind":"report",`), []byte(`{"kind":"report","hops":[1,{"via":"relay"}],`), 1)
				if _, err := jr.Append(r.Kind, body); err != nil || bytes.Equal(body, r.Body) {
					t.Fatalf("rewrite journal record %d: %v", r.Seq, err)
				}
			}
			if err := jr.Close(); err != nil {
				t.Fatal(err)
			}

			// Both engines are abandoned, never closed: recovery is pure WAL
			// replay of what each journaled.
			for i, dir := range []string{dirs[0], dirs[1], newer} {
				recovered := newTestPDME(t)
				defer recovered.Close()
				recovered.ConfigureDedup(proto.MaxRun / 2)
				stats, err := recovered.OpenJournal(JournalOptions{Dir: dir})
				if err != nil {
					t.Fatal(err)
				}
				if stats.SkippedRecords != 0 || stats.ReportsReplayed != batched.ReceivedReports() {
					t.Errorf("journal %d: replayed %d, skipped %d; want %d and 0", i, stats.ReportsReplayed, stats.SkippedRecords, batched.ReceivedReports())
				}
				assertSameFusionState(t, batched, recovered)
				assertSameBeliefBits(t, batched, recovered)
			}
		})
	}
}

// readWAL returns the bytes of the write-ahead log under a journal directory.
func readWAL(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "wal.mprosj"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// windowLog is an Invalidator that notes, each time a write window opens,
// how far the journal had got, and can run a hook first.
type windowLog struct {
	p      *PDME
	before func(opened int)
	seqs   []uint64
}

func (w *windowLog) BeginMutation(string, string, string) {
	if w.before != nil {
		w.before(len(w.seqs))
	}
	_, last, _, _ := w.p.JournalInfo()
	w.seqs = append(w.seqs, last)
}
func (w *windowLog) EndMutation(string, string, string) {}

// TestBatchAcceptDurabilityContract pins what a run may and may not do:
// reports refused for their own sake fail alone and are not journaled; the
// whole run is in the journal before the first report of it touches any
// state; a journal failure refuses the run with nothing applied, marked or
// counted; an apply failure is the failing report's alone.
func TestBatchAcceptDurabilityContract(t *testing.T) {
	t0 := time.Date(1998, 9, 1, 12, 0, 0, 0, time.UTC)
	model, err := oosm.NewModel(relstore.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	hist, err := historian.Open(historian.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewWithHistorian(model, testGroups(), hist)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.OpenJournal(JournalOptions{Dir: t.TempDir(), CheckpointEvery: -1}); err != nil {
		t.Fatal(err)
	}
	windows := &windowLog{p: p}
	if err := p.SetInvalidator(windows); err != nil {
		t.Fatal(err)
	}
	deliveries := func(firstSeq uint64, reports ...*proto.Report) []proto.Delivery {
		run := make([]proto.Delivery, len(reports))
		for i, r := range reports {
			run[i] = proto.Delivery{Report: r, DCID: "dc-1", Boot: 7, Seq: firstSeq + uint64(i)}
		}
		return run
	}
	good := func(i int) *proto.Report {
		return report("ks/dli", "motor/1", "motor imbalance", 0.5, 0.6, t0.Add(time.Duration(i)*time.Minute), nil)
	}
	invalid := good(1)
	invalid.Severity = 2
	unknown := good(2)
	unknown.MachineConditionID = "no such condition"
	oversized := good(5)
	oversized.Explanation = strings.Repeat("x", journal.MaxBody)

	// Door checks are per delivery — a body no journal record can hold and a
	// payload that is not a report among them; the survivors share one journal
	// append that is complete before the first write window opens.
	run := append(deliveries(1, good(0), invalid, unknown, good(3), good(4), oversized),
		proto.Delivery{Summary: &proto.FusedSummary{ShardID: "shard-1"}, DCID: "shard-1", Boot: 1, Seq: 1})
	p.DeliverBatch(run)
	for i, wantErr := range []bool{false, true, true, false, false, true, true} {
		if (run[i].Err != nil) != wantErr {
			t.Fatalf("report %d: err %v, want an error: %v", i, run[i].Err, wantErr)
		}
		if errors.Is(run[i].Err, proto.ErrUnavailable) {
			t.Fatalf("report %d refused for its own sake, yet as unavailability: %v", i, run[i].Err)
		}
	}
	if _, last, _, _ := p.JournalInfo(); last != 3 || p.ReceivedReports() != 3 {
		t.Fatalf("journal at %d with %d received, want the 3 admitted reports in both", last, p.ReceivedReports())
	}
	if !reflect.DeepEqual(windows.seqs, []uint64{3, 3, 3}) {
		t.Fatalf("journal watermark at each write window %v, want the whole run (3) before the first", windows.seqs)
	}
	for seq, want := range map[uint64]bool{1: true, 2: false, 3: false, 4: true, 5: true, 6: false} {
		if got := p.dedupHandle().Seen("dc-1", 7, seq); got != want {
			t.Errorf("seq %d marked %v, want %v", seq, got, want)
		}
	}

	// An apply failure is the failing report's alone: the historian that
	// records the severities closes as the second write window opens; the
	// first report is fused, the others are refused one by one, and all three
	// are in the journal.
	windows.seqs = nil
	windows.before = func(opened int) {
		if opened == 1 {
			_ = hist.Close()
		}
	}
	run = deliveries(7, good(6), good(7), good(8))
	p.DeliverBatch(run)
	if run[0].Err != nil || run[1].Err == nil || run[2].Err == nil {
		t.Fatalf("apply errors %v, %v, %v; want only the first report accepted", run[0].Err, run[1].Err, run[2].Err)
	}
	if _, last, _, _ := p.JournalInfo(); last != 6 || p.ReceivedReports() != 4 {
		t.Fatalf("journal at %d with %d received, want 6 and 4", last, p.ReceivedReports())
	}
	if p.dedupHandle().Seen("dc-1", 7, 8) {
		t.Error("a report whose apply failed was marked delivered")
	}

	// A journal failure refuses the whole run before anything is applied.
	windows.seqs, windows.before = nil, nil
	belief, _ := p.Belief("motor/1", "motor imbalance")
	if err := p.journalHandle().Close(); err != nil {
		t.Fatal(err)
	}
	run = deliveries(10, good(9), unknown, good(10))
	p.DeliverBatch(run)
	for i, unavailable := range []bool{true, false, true} {
		// The journal's failure is not the reports': only the one refused at
		// the door for its own sake may be dropped by its sender.
		if run[i].Err == nil || errors.Is(run[i].Err, proto.ErrUnavailable) != unavailable {
			t.Fatalf("report %d with the journal gone: %v, want unavailable: %v", i, run[i].Err, unavailable)
		}
	}
	after, _ := p.Belief("motor/1", "motor imbalance")
	if len(windows.seqs) != 0 || p.ReceivedReports() != 4 || math.Float64bits(after) != math.Float64bits(belief) ||
		p.dedupHandle().Seen("dc-1", 7, 10) || p.dedupHandle().Seen("dc-1", 7, 12) {
		t.Errorf("a refused run left a trace: %d windows opened, %d received, belief %v → %v", len(windows.seqs), p.ReceivedReports(), belief, after)
	}
	if err := p.DeliverTagged(good(12), "dc-1", 7, 13); !errors.Is(err, proto.ErrUnavailable) {
		t.Errorf("the run of one with the journal gone: %v, want unavailable", err)
	}
}

// TestUnavailableJournalKeepsReportsSpooled: an engine whose journal can no
// longer be written does not refuse what it is sent — it hangs up, so the
// uplink keeps every report spooled and retries instead of dropping them as
// rejected; an engine recovered from the same journal on the same address
// then fuses each one exactly once.
func TestUnavailableJournalKeepsReportsSpooled(t *testing.T) {
	const before, during = 5, 2*proto.MaxRun + 3
	t0 := time.Date(1998, 9, 1, 12, 0, 0, 0, time.UTC)
	nth := func(i int) *proto.Report {
		return report("ks/dli", "motor/1", "motor imbalance", 0.5, 0.3+0.01*float64(i%40), t0.Add(time.Duration(i)*time.Minute), nil)
	}
	dir := t.TempDir()
	sick := newTestPDME(t)
	if _, err := sick.OpenJournal(JournalOptions{Dir: dir, CheckpointEvery: -1}); err != nil {
		t.Fatal(err)
	}
	addr, srv, err := sick.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	u, err := uplink.New(uplink.Config{Addr: addr, DCID: "dc-1",
		BackoffMin: 2 * time.Millisecond, BackoffMax: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = u.Close() }()
	ref := newTestPDME(t)
	defer ref.Close()
	deliver := func(from, to int) {
		for i := from; i < to; i++ {
			if err := u.Deliver(nth(i)); err != nil {
				t.Fatal(err)
			}
			if err := ref.Deliver(nth(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	deliver(0, before)
	if err := u.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	if err := sick.JournalError(); err != nil {
		t.Fatalf("JournalError = %v on a healthy journal", err)
	}
	if err := sick.journalHandle().Close(); err != nil {
		t.Fatal(err)
	}
	deliver(before, before+during)
	for deadline := time.Now().Add(10 * time.Second); u.Counters().Retried == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("counters %+v: the uplink never saw the failed journal as a transport failure", u.Counters())
		}
	}
	if c := u.Counters(); c.Dropped != 0 || c.Acked != before || u.Pending() != during {
		t.Fatalf("counters %+v with %d pending; want nothing dropped and all %d reports since the failure still spooled", c, u.Pending(), during)
	}
	if sick.ReceivedReports() != before {
		t.Fatalf("the engine fused %d reports, %d of them without a journal", sick.ReceivedReports(), sick.ReceivedReports()-before)
	}
	if sick.JournalError() == nil {
		t.Error("JournalError is nil on an engine whose journal refuses every delivery: the operator sees nothing")
	}

	// The process is replaced: same journal, same address.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	healthy := newTestPDME(t)
	defer healthy.Close()
	if stats, err := healthy.OpenJournal(JournalOptions{Dir: dir}); err != nil || stats.ReportsReplayed != before {
		t.Fatalf("recovery replayed %d reports, want %d: %v", stats.ReportsReplayed, before, err)
	}
	_, srv2, err := healthy.Serve(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv2.Close() }()
	if err := u.Flush(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if c := u.Counters(); c.Dropped != 0 || c.Acked != before+during || c.DedupAcks != 0 {
		t.Errorf("counters %+v, want %d reports acked once each", c, before+during)
	}
	assertSameFusionState(t, ref, healthy)
	assertSameBeliefBits(t, ref, healthy)
	if err := healthy.JournalError(); err != nil {
		t.Errorf("JournalError = %v on the engine that replaced it", err)
	}
}

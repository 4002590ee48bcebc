package pdme

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/oosm"
	"repro/internal/proto"
)

// reportTracker records the value of every report object created in a model,
// by object number, from the ObjectCreated events: a report object's value
// never changes, and its number is never reused.
type reportTracker struct {
	mu      sync.Mutex
	created map[int64]*proto.Report
}

// trackReports subscribes a reportTracker to model's report objects.
func trackReports(model *oosm.Model) *reportTracker {
	tr := &reportTracker{created: make(map[int64]*proto.Report)}
	model.SubscribeClass(ReportClass, oosm.ObjectCreated, func(e oosm.Event) {
		tr.mu.Lock()
		tr.created[e.Object.Num] = e.Value.(*proto.Report)
		tr.mu.Unlock()
	})
	return tr
}

// requireModelHoldsFusionsReports fails t unless the values of p's report
// objects are exactly, pointer for pointer, the reports fusion's entries hold.
func requireModelHoldsFusionsReports(t *testing.T, p *PDME, tr *reportTracker, step string) {
	t.Helper()
	ids, err := p.Model().Instances(ReportClass)
	if err != nil {
		t.Fatal(err)
	}
	objects := make(map[*proto.Report]int, len(ids))
	tr.mu.Lock()
	for _, id := range ids {
		r := tr.created[id.Num]
		if r == nil {
			tr.mu.Unlock()
			t.Fatalf("%s: report object %v was created before the tracker", step, id)
		}
		objects[r]++
	}
	tr.mu.Unlock()
	held := make(map[*proto.Report]int)
	reports, _, _ := p.diag.Held(nil)
	for _, r := range reports {
		held[r]++
	}
	if !maps.Equal(objects, held) {
		t.Fatalf("%s: the model holds %d report objects over %d reports, fusion's entries %d reports, and they differ",
			step, len(ids), len(objects), len(held))
	}
}

// TestModelReportsAreFusionsEntries: a seeded schedule of restated, tied,
// late and refused reports from two DCs — refused at the door, and refused by
// knowledge fusion after being created straight in the model — goes through
// the accept path, a checkpoint, more accepts and a recovery from the crash
// image by OpenJournal. After every step the model's report objects are
// fusion's entries' reports, and the recovered engine holds the same reports
// the crashed one did.
func TestModelReportsAreFusionsEntries(t *testing.T) {
	dir := t.TempDir()
	p := newTestPDME(t)
	tr := trackReports(p.Model())
	if _, err := p.OpenJournal(JournalOptions{Dir: dir, CheckpointEvery: -1}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(70))
	t0 := time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC)
	machines := []string{"motor/1", "motor/2"}
	conds := []string{"motor imbalance", "motor misalignment", "oil whirl", "motor bearing outer race defect"}
	sources := []string{"ks/dli", "ks/wnn"}
	dcs := []string{"dc-1", "dc-2"}
	vec := proto.PrognosticVector{{Probability: 0.3, HorizonSeconds: 86400}}
	newest := map[[4]string]time.Time{}
	seqs := map[string]uint64{}
	// Kinds 0-3 are the cases below; 4 and 5 are reports sensed now, the
	// key's first or a restatement.
	var kinds [6]int
	// step runs one seeded schedule step on engine e at minute i.
	step := func(e *PDME, tr *reportTracker, i int) {
		r := report(sources[rng.Intn(len(sources))], machines[rng.Intn(len(machines))], conds[rng.Intn(len(conds))],
			rng.Float64(), rng.Float64(), t0.Add(time.Duration(i)*time.Minute), nil)
		r.DCID = dcs[rng.Intn(len(dcs))]
		if rng.Intn(3) == 0 {
			r.Prognostics = vec
		}
		key := [4]string{r.SensedObjectID, r.MachineConditionID, r.DCID, r.KnowledgeSourceID}
		kind := rng.Intn(len(kinds))
		held, restated := newest[key]
		switch {
		case kind == 0 && restated: // late: sensed before what the key holds
			r.Timestamp = held.Add(-time.Duration(1+rng.Intn(60)) * time.Minute)
		case kind == 1 && restated: // tied with what the key holds
			r.Timestamp = held
		case kind <= 1:
			kind = 4 // the key's first report
		}
		switch kind {
		case 2: // refused at the door: no failure group holds the condition
			r.MachineConditionID = "no such condition"
		case 3: // created straight in the model, and refused by knowledge fusion
			r.Prognostics = proto.PrognosticVector{{Probability: 2, HorizonSeconds: 1}}
			if _, err := e.Model().Create(ReportClass, r); err != nil {
				t.Fatal(err)
			}
		}
		kinds[kind]++
		if kind != 3 {
			seqs[r.DCID]++
			err := e.DeliverTagged(r, r.DCID, 1, seqs[r.DCID])
			if (err != nil) != (kind == 2) {
				t.Fatalf("step %d (kind %d): delivery answered %v", i, kind, err)
			}
			if err == nil && r.Timestamp.After(newest[key]) {
				newest[key] = r.Timestamp
			}
		}
		requireModelHoldsFusionsReports(t, e, tr, fmt.Sprintf("step %d", i))
	}
	const steps = 600
	for i := range steps / 2 {
		step(p, tr, i)
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := steps / 2; i < steps; i++ {
		step(p, tr, i)
	}
	for kind, n := range kinds {
		if n == 0 {
			t.Fatalf("the schedule has no step of kind %d", kind)
		}
	}
	// Recovery from the crash image: the checkpoint's reports, then the WAL
	// tail's, re-posted into a fresh model.
	image := crashImage(t, dir)
	q := newTestPDME(t)
	defer q.Close()
	qtr := trackReports(q.Model())
	stats, err := q.OpenJournal(JournalOptions{Dir: image, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.CheckpointLoaded || stats.ReportsReplayed == 0 {
		t.Fatalf("recovery %+v, want a checkpoint and a WAL tail", stats)
	}
	requireModelHoldsFusionsReports(t, q, qtr, "after recovery")
	p.acceptMu.Lock()
	c := p.captureCheckpoint()
	p.acceptMu.Unlock()
	q.acceptMu.Lock()
	qc := q.captureCheckpoint()
	q.acceptMu.Unlock()
	want, err := c.appendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := qc.appendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("the recovered engine's checkpoint differs from the crashed one's at byte %d", firstDiff(got, want))
	}
	// The recovered engine goes on: its reports give way as live ones do.
	for i := steps; i < steps+100; i++ {
		step(q, qtr, i)
	}
	p.Close()
}

// TestRefusedDirectPostLeavesNothing: a report object created straight in the
// model, not by an accept, that knowledge fusion refuses is deleted as an
// accept's would be, and its refusal is not kept for anybody.
func TestRefusedDirectPostLeavesNothing(t *testing.T) {
	p := newTestPDME(t)
	defer p.Close()
	at := time.Date(1998, 9, 1, 12, 0, 0, 0, time.UTC)
	if err := p.Deliver(report("ks/dli", "motor/1", "motor imbalance", 0.5, 0.6, at, nil)); err != nil {
		t.Fatal(err)
	}
	bad := report("ks/dli", "motor/1", "motor imbalance", 0.5, 0.9, at.Add(time.Hour), proto.PrognosticVector{{Probability: 2, HorizonSeconds: 1}})
	if _, err := p.Model().Create(ReportClass, bad); err != nil {
		t.Fatal(err)
	}
	if got := countInstances(t, p.Model(), ReportClass); got != 1 {
		t.Errorf("%d report objects after a refused direct post, want the accepted one", got)
	}
	p.mu.Lock()
	parked := len(p.posting)
	p.mu.Unlock()
	if parked != 0 {
		t.Errorf("%d refusals kept after the Create that raised them returned", parked)
	}
	if bel, err := p.Belief("motor/1", "motor imbalance"); err != nil || math.Abs(bel-0.6) > 1e-12 {
		t.Errorf("belief %g (%v) after a refused direct post, want the accepted report's 0.6", bel, err)
	}
}

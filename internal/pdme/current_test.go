package pdme

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"repro/internal/health"
	"repro/internal/historian"
	"repro/internal/oosm"
	"repro/internal/proto"
	"repro/internal/relstore"
)

// rankOf is the position of (component, condition) on p's prioritized list,
// -1 when it is not there.
func rankOf(p *PDME, component, condition string) int {
	return slices.IndexFunc(p.PrioritizedList(), func(it MaintenanceItem) bool {
		return it.Component == component && it.Condition == condition
	})
}

// TestCurrentCallOutranksAStaleOne: with health configured, one DC reports
// motor imbalance hourly for 1 000 h, then motor misalignment — the same
// group — hourly for 50 h. Once the last imbalance report is older than
// FreshFor, misalignment ranks above it: what the DC currently says wins over
// what it said a thousand times before.
func TestCurrentCallOutranksAStaleOne(t *testing.T) {
	p := newTestPDME(t)
	defer p.Close()
	if err := p.ConfigureHealth(health.Config{}); err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC)
	for h := range 1000 {
		if err := p.Deliver(dcReport("dc-1", "motor/1", "motor imbalance", 0.9, t0.Add(time.Duration(h)*time.Hour))); err != nil {
			t.Fatal(err)
		}
	}
	last := t0.Add(999 * time.Hour)
	for h := 1; h <= 50; h++ {
		at := last.Add(time.Duration(h) * time.Hour)
		if err := p.Deliver(dcReport("dc-1", "motor/1", "motor misalignment", 0.9, at)); err != nil {
			t.Fatal(err)
		}
		a, b := rankOf(p, "motor/1", "motor imbalance"), rankOf(p, "motor/1", "motor misalignment")
		if at.Sub(last) > health.DefaultFreshFor && (b < 0 || a >= 0 && a < b) {
			t.Fatalf("%d h after the last imbalance report misalignment ranks %d, imbalance %d", h, b, a)
		}
	}
	if bel, err := p.Belief("motor/1", "motor misalignment"); err != nil || bel < 0.5 {
		t.Errorf("misalignment, called hourly for 50 h, has belief %g (%v)", bel, err)
	}
}

// TestTwoDCsNeverLockAGroup: two DCs assert different members of one group,
// 10 000 reports each, through DeliverBatch. No report is refused and both
// beliefs stay above 0: no number of clamped reports reaches total conflict.
func TestTwoDCsNeverLockAGroup(t *testing.T) {
	p := newTestPDME(t)
	defer p.Close()
	t0 := time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC)
	const each, run = 10000, 16
	var seq [2]uint64
	batch := make([]proto.Delivery, 0, run)
	for i := 0; i < 2*each; i += run {
		batch = batch[:0]
		for k := range run {
			n := i + k
			dc, cond := n%2, "motor imbalance"
			if dc == 1 {
				cond = "motor misalignment"
			}
			seq[dc]++
			r := dcReport([]string{"dc-1", "dc-2"}[dc], "motor/1", cond, 0.999, t0.Add(time.Duration(n)*30*time.Minute))
			batch = append(batch, proto.Delivery{Report: r, DCID: r.DCID, Boot: 1, Seq: seq[dc]})
		}
		p.DeliverBatch(batch)
		for _, d := range batch {
			if d.Err != nil {
				t.Fatalf("report %d of %s refused: %v", d.Seq, d.DCID, d.Err)
			}
		}
	}
	if got := p.ReceivedReports(); got != 2*each {
		t.Fatalf("%d reports received, want %d", got, 2*each)
	}
	for _, cond := range []string{"motor imbalance", "motor misalignment"} {
		if bel, err := p.Belief("motor/1", cond); err != nil || !(bel > 0) {
			t.Errorf("%s: belief %g (%v), want above 0", cond, bel, err)
		}
	}
}

// TestRefusedReportChangesNothing: a report knowledge fusion refuses leaves
// no severity sample, and one the historian refuses — after fusion decided to
// take it — changes neither the fusion state (its reads and the checkpoint's
// bytes), the counts nor the OOSM.
func TestRefusedReportChangesNothing(t *testing.T) {
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
	defer p.Close()
	t0 := time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC)
	vec := proto.PrognosticVector{{Probability: 0.3, HorizonSeconds: 86400}}
	for i, r := range []*proto.Report{
		report("ks/dli", "motor/1", "motor imbalance", 0.5, 0.7, t0, vec),
		report("ks/wnn", "motor/1", "motor misalignment", 0.4, 0.6, t0.Add(time.Minute), nil),
	} {
		if err := p.DeliverTagged(r, "dc-1", 1, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	state := func() ([]byte, []MaintenanceItem, int) {
		p.acceptMu.Lock()
		c := p.captureCheckpoint()
		p.acceptMu.Unlock()
		b, err := c.appendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		return b, p.PrioritizedList(), countInstances(t, model, ReportClass)
	}
	// A report fusion refuses, posted straight into the model past the
	// accept path's validation, leaves no severity sample.
	samples := len(p.SeverityHistory("motor/1", "motor imbalance"))
	bad := report("ks/dli", "motor/1", "motor imbalance", 0.9, 0.2, t0.Add(time.Hour), proto.PrognosticVector{{Probability: 2, HorizonSeconds: 1}})
	if _, err := model.Create(ReportClass, bad); err != nil {
		t.Fatal(err)
	}
	if got := len(p.SeverityHistory("motor/1", "motor imbalance")); got != samples {
		t.Errorf("%d severity samples after a report fusion refused, %d before", got, samples)
	}
	ckpt, list, objects := state()
	if err := hist.Close(); err != nil {
		t.Fatal(err)
	}
	// A newer report from the held key, and one from a new knowledge source.
	for i, r := range []*proto.Report{
		report("ks/dli", "motor/1", "motor imbalance", 0.9, 0.2, t0.Add(time.Hour), nil),
		report("ks/sbfr", "motor/1", "motor imbalance", 0.9, 0.95, t0.Add(time.Hour), vec),
	} {
		if err := p.DeliverTagged(r, "dc-1", 1, uint64(3+i)); err == nil {
			t.Fatalf("report %d was accepted by a closed historian", i)
		}
	}
	ckpt2, list2, objects2 := state()
	if !bytes.Equal(ckpt, ckpt2) {
		t.Errorf("refused reports changed the checkpoint:\n%s\n%s", ckpt, ckpt2)
	}
	if !slices.EqualFunc(list, list2, func(a, b MaintenanceItem) bool {
		return a.ConditionBelief == b.ConditionBelief && a.TimeToHalf == b.TimeToHalf
	}) || objects != objects2 || p.ReceivedReports() != 2 {
		t.Errorf("refused reports changed the list (%v → %v), the report objects (%d → %d) or the count (%d)",
			list, list2, objects, objects2, p.ReceivedReports())
	}
}

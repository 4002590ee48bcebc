package pdme

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/historian"
	"repro/internal/oosm"
	"repro/internal/proto"
	"repro/internal/relstore"
)

// reportObjects returns the props of the report objects the model holds for
// one knowledge source's reports on one (machine, condition) pair.
func reportObjects(t *testing.T, model *oosm.Model, sensed, source, condition string) []map[string]any {
	t.Helper()
	ids, err := model.FindByProp(ReportClass, "sensed", sensed)
	if err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	for _, id := range ids {
		props, err := model.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if props["ks_id"] == source && props["condition"] == condition {
			out = append(out, props)
		}
	}
	return out
}

// conclusionConditions returns, sorted, the condition of every conclusion
// whose component is the machine.
func conclusionConditions(t *testing.T, model *oosm.Model, machine oosm.ObjectID) []string {
	t.Helper()
	ids, err := model.FindByProp(ConclusionClass, "component", machine.String())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		props, err := model.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, props["condition"].(string))
	}
	slices.Sort(out)
	return out
}

func countInstances(t *testing.T, model *oosm.Model, class string) int {
	t.Helper()
	ids, err := model.Instances(class)
	if err != nil {
		t.Fatal(err)
	}
	return len(ids)
}

// TestReportRepositoryStaysBounded: the OOSM keeps each knowledge source's
// current report per (machine, condition) — the one with the latest
// timestamp, a tie going to the later arrival. Ten rounds of reports over the
// same keys leave one report object per key and one conclusion per
// (machine, condition), with every report counted; a late report does not
// displace the held one, and a report knowledge fusion refused leaves no
// object.
func TestReportRepositoryStaysBounded(t *testing.T) {
	at := time.Date(1998, 9, 1, 12, 0, 0, 0, time.UTC)
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
	// The machines live in the model, and each conclusion names one.
	if err := model.RegisterClass(oosm.Class{Name: "motor", Props: map[string]oosm.PropType{"name": oosm.PropString}}); err != nil {
		t.Fatal(err)
	}
	var machines []oosm.ObjectID
	for i := 0; i < 2; i++ {
		id, err := model.Create("motor", map[string]any{"name": fmt.Sprintf("M%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		machines = append(machines, id)
	}
	sources := []string{"ks/dli", "ks/fuzzy", "ks/wnn"}
	conditions := []string{"motor imbalance", "oil whirl", "motor rotor bar problem"}
	keys := len(machines) * len(sources) * len(conditions)
	vec := proto.PrognosticVector{{Probability: 0.3, HorizonSeconds: 86400}}

	const rounds = 10
	sent := 0
	deliver := func(r *proto.Report) error {
		sent++
		return p.DeliverTagged(r, r.DCID, 1, uint64(sent))
	}
	var last time.Time
	for round := 0; round < rounds; round++ {
		for _, m := range machines {
			for _, ks := range sources {
				for _, c := range conditions {
					last = at.Add(time.Duration(sent) * time.Second)
					if err := deliver(report(ks, m.String(), c, 0.5, 0.3+0.05*float64(round%5), last, vec)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	if got := countInstances(t, model, ReportClass); got != keys {
		t.Fatalf("%d report objects after %d reports over %d keys, want %d", got, sent, keys, keys)
	}
	conclusions := countInstances(t, model, ConclusionClass)
	if conclusions != len(machines)*len(conditions) {
		t.Fatalf("%d conclusion objects, want %d", conclusions, len(machines)*len(conditions))
	}
	for _, m := range machines {
		if got := conclusionConditions(t, model, m); !slices.Equal(got, slices.Sorted(slices.Values(conditions))) {
			t.Fatalf("conclusions on %v are for %v, want one for each of %v", m, got, conditions)
		}
	}
	if got := p.ReceivedReports(); got != sent {
		t.Fatalf("%d reports received, %d sent", got, sent)
	}

	// The held object is the source's latest report on the pair.
	m0 := machines[0].String()
	held := reportObjects(t, model, m0, "ks/dli", "motor imbalance")
	newest := at.Add(time.Duration((rounds-1)*keys) * time.Second)
	if len(held) != 1 || !held[0]["timestamp"].(time.Time).Equal(newest) {
		t.Fatalf("held report objects %v, want one stamped %v", held, newest)
	}
	// A late report is fused and counted, but the held object stays.
	if err := deliver(report("ks/dli", m0, "motor imbalance", 0.5, 0.9, at, vec)); err != nil {
		t.Fatal(err)
	}
	if got := reportObjects(t, model, m0, "ks/dli", "motor imbalance"); len(got) != 1 || got[0]["belief"] != held[0]["belief"] ||
		!got[0]["timestamp"].(time.Time).Equal(newest) {
		t.Fatalf("a late report displaced the held one: %v", got)
	}
	// A tie goes to the later arrival.
	if err := deliver(report("ks/dli", m0, "motor imbalance", 0.5, 0.85, newest, vec)); err != nil {
		t.Fatal(err)
	}
	if got := reportObjects(t, model, m0, "ks/dli", "motor imbalance"); len(got) != 1 || got[0]["belief"] != 0.85 {
		t.Fatalf("a report stamped like the held one did not supersede it: %v", got)
	}
	// A report knowledge fusion refuses leaves no object and displaces nothing.
	if err := hist.Close(); err != nil {
		t.Fatal(err)
	}
	if err := deliver(report("ks/dli", m0, "motor imbalance", 0.5, 0.4, last.Add(time.Hour), vec)); err == nil {
		t.Fatal("a report knowledge fusion could not fuse was acknowledged")
	}
	if got := reportObjects(t, model, m0, "ks/dli", "motor imbalance"); len(got) != 1 || got[0]["belief"] != 0.85 {
		t.Fatalf("a refused report changed the repository: %v", got)
	}
	if got, want := p.ReceivedReports(), sent-1; got != want || countInstances(t, model, ReportClass) != keys {
		t.Fatalf("%d received (want %d), %d report objects (want %d)", got, want, countInstances(t, model, ReportClass), keys)
	}
}

// TestAcceptAllocBudget: a steady-state accept with no journal — the pair's
// conclusion object and the source's report object already there — stays
// under a fixed allocation ceiling, set from the measured count: 2 (the fused
// prognostic vector and its copy), and 4 under -race. The engine keeps each
// report it is handed, so every accept hands it a report of its own, built
// before the count. Rows of boxed property values cost 18; posting them as
// property maps cost 21; copying each row twice and the subscriber list once
// per event cost 112; encoding/json's trips of the prognostic vector through
// the OOSM cost 97; reading the report back out of a relational row the model
// kept, and rewriting the conclusion's subject with every fold, cost 78; a new
// map-backed mass per fold and a sorted key slice per walk cost 54.
func TestAcceptAllocBudget(t *testing.T) {
	const budget = 4
	p := newTestPDME(t)
	defer p.Close()
	at := time.Date(1998, 9, 1, 12, 0, 0, 0, time.UTC)
	vec := proto.PrognosticVector{{Probability: 0.2, HorizonSeconds: 14 * 86400}, {Probability: 0.7, HorizonSeconds: 45 * 86400}}
	reports := make([]*proto.Report, 100+3*501)
	for i := range reports {
		reports[i] = report("ks/dli", "motor/1", "motor imbalance", 0.5, 0.6, at.Add(time.Duration(i+1)*time.Second), vec)
	}
	seq := 0
	accept := func() {
		seq++
		if err := p.DeliverTagged(reports[seq-1], "dc-1", 1, uint64(seq)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		accept()
	}
	// The best of three: under -race sync.Pool drops puts at random, and
	// encoding/json pools its encoders.
	allocs := testing.AllocsPerRun(500, accept)
	for i := 0; i < 2; i++ {
		allocs = min(allocs, testing.AllocsPerRun(500, accept))
	}
	t.Logf("%.0f allocations per accept", allocs)
	if allocs > budget {
		t.Fatalf("a steady-state accept allocates %.0f times, budget %d", allocs, budget)
	}
	if got := countInstances(t, p.Model(), ReportClass); got != 1 {
		t.Fatalf("%d report objects for one key", got)
	}
}

package pdme

import (
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/oosm"
	"repro/internal/proto"
	"repro/internal/relstore"
)

// TestPrognosticsPropertyBytes pins the prognostics property of E10's report
// and conclusion objects byte for byte: what the browser and E10 read is the
// text json.Marshal wrote for the same vectors. A conclusion's vector is
// re-based to the pair's newest report, five minutes after the one that
// carried it: every horizon 300 s nearer.
func TestPrognosticsPropertyBytes(t *testing.T) {
	p := newTestPDME(t)
	defer p.Close()
	machine := "A/C Compressor Motor 1"
	at := time.Date(1998, 9, 1, 8, 0, 0, 0, time.UTC)
	day := 86400.0
	vec := proto.PrognosticVector{{Probability: 0.2, HorizonSeconds: 14 * day}, {Probability: 0.7, HorizonSeconds: 45 * day}}
	const e10 = `[{"probability":0.2,"time":1209600},{"probability":0.7,"time":3888000}]`
	const rebased = `[{"probability":0.2,"time":1209300},{"probability":0.7,"time":3887700}]`
	reports := []*proto.Report{
		report("ks/dli", machine, "motor imbalance", 0.55, 0.8, at, vec),
		report("ks/sbfr", machine, "motor imbalance", 0.5, 0.6, at.Add(5*time.Minute), nil),
		report("ks/wnn", machine, "motor misalignment", 0.4, 0.5, at.Add(10*time.Minute), nil),
		report("ks/fuzzy", machine, "oil whirl", 0.3, 0.4, at.Add(15*time.Minute), vec),
		report("ks/dli", machine, "oil whirl", 0.35, 0.5, at.Add(20*time.Minute), nil),
		report("ks/wnn", machine, "motor rotor bar problem", 0.6, 0.7, at.Add(25*time.Minute), nil),
	}
	for _, r := range reports {
		if err := p.Deliver(r); err != nil {
			t.Fatal(err)
		}
	}
	marshal := func(v proto.PrognosticVector) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	want := map[string]string{
		"report ks/dli motor imbalance":         e10,
		"report ks/sbfr motor imbalance":        "null",
		"report ks/wnn motor misalignment":      "null",
		"report ks/fuzzy oil whirl":             e10,
		"report ks/dli oil whirl":               "null",
		"report ks/wnn motor rotor bar problem": "null",
		"conclusion motor imbalance":            rebased,
		"conclusion motor misalignment":         "null",
		"conclusion oil whirl":                  rebased,
		"conclusion motor rotor bar problem":    "null",
	}
	got := map[string]string{}
	for _, r := range reports {
		props := reportObjects(t, p.Model(), machine, r.KnowledgeSourceID, r.MachineConditionID)
		if len(props) != 1 || props[0]["prognostics"] != marshal(r.Prognostics) {
			t.Errorf("%s on %s: objects %v, want one holding %s", r.KnowledgeSourceID, r.MachineConditionID, props, marshal(r.Prognostics))
			continue
		}
		got["report "+r.KnowledgeSourceID+" "+r.MachineConditionID] = props[0]["prognostics"].(string)
	}
	ids, err := p.Model().Instances(ConclusionClass)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		props, err := p.Model().Get(id)
		if err != nil {
			t.Fatal(err)
		}
		condition := props["condition"].(string)
		if fused := marshal(p.FusedPrognostic(machine, condition)); props["prognostics"] != fused {
			t.Errorf("conclusion on %s holds %v, json.Marshal of the fused vector is %s", condition, props["prognostics"], fused)
		}
		got["conclusion "+condition] = props["prognostics"].(string)
	}
	for key, w := range want {
		if got[key] != w {
			t.Errorf("%s: property %q, want %q", key, got[key], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d objects, want %d: %v", len(got), len(want), got)
	}
}

// TestSecondEngineOverOneModelRefused: the engine's maps are the only index
// of the report and conclusion objects in its model, so a second engine over
// the same model is refused — its class registration fails — and the model
// and the first engine are left as they were: the first engine still fuses
// into the one conclusion object per pair it holds.
func TestSecondEngineOverOneModelRefused(t *testing.T) {
	at := time.Date(1998, 9, 1, 12, 0, 0, 0, time.UTC)
	pairs := [][2]string{{"motor/1", "motor imbalance"}, {"motor/1", "oil whirl"}, {"motor/2", "motor imbalance"}}
	model, err := oosm.NewModel(relstore.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(model, testGroups())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for _, pr := range pairs {
		if err := p.Deliver(report("ks/dli", pr[0], pr[1], 0.5, 0.6, at, nil)); err != nil {
			t.Fatal(err)
		}
	}
	second, err := New(model, testGroups())
	if err == nil {
		second.Close()
		t.Fatal("a second engine over one model was built")
	}
	if !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("second engine refused with %v, want the class registration's refusal", err)
	}
	for _, class := range []string{ReportClass, ConclusionClass} {
		if got := countInstances(t, model, class); got != len(pairs) {
			t.Errorf("the model holds %d %s objects after the refusal, had %d", got, class, len(pairs))
		}
	}
	for _, pr := range pairs {
		if err := p.Deliver(report("ks/sbfr", pr[0], pr[1], 0.5, 0.7, at.Add(time.Minute), nil)); err != nil {
			t.Fatal(err)
		}
	}
	if got := countInstances(t, model, ConclusionClass); got != len(pairs) {
		t.Errorf("%d conclusion objects after more reports on the same pairs, want %d", got, len(pairs))
	}
}

// TestFirstAcceptCostFlatInHeldConclusions: what a new pair's first accept
// allocates does not grow with the conclusions the engine already holds —
// finding that the pair has none is a map lookup, not a walk of the table.
// The median over several first accepts sets aside a map that happens to
// grow during one of them.
func TestFirstAcceptCostFlatInHeldConclusions(t *testing.T) {
	at := time.Date(1998, 9, 1, 12, 0, 0, 0, time.UTC)
	firstAcceptBytes := func(held int) uint64 {
		p := newTestPDME(t)
		defer p.Close()
		for i := 0; i < held; i++ {
			if err := p.Deliver(report("ks/dli", fmt.Sprintf("motor/%d", i), "motor imbalance", 0.5, 0.6, at, nil)); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		samples := make([]uint64, 21)
		for i := range samples {
			r := report("ks/dli", fmt.Sprintf("pump/%d", i), "motor imbalance", 0.5, 0.6, at, nil)
			runtime.ReadMemStats(&before)
			if err := p.Deliver(r); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			samples[i] = after.TotalAlloc - before.TotalAlloc
		}
		slices.Sort(samples)
		return samples[len(samples)/2]
	}
	few, many := firstAcceptBytes(20), firstAcceptBytes(2000)
	t.Logf("a first accept allocates %d B with 20 conclusions held, %d B with 2000", few, many)
	if many > 2*few {
		t.Fatalf("a first accept allocates %d B with 2000 conclusions held, more than twice the %d B with 20", many, few)
	}
}

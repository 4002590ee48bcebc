package pdme

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fusion"
	"repro/internal/oosm"
	"repro/internal/proto"
	"repro/internal/relstore"
)

func testGroups() fusion.Groups {
	return fusion.Groups{
		"electrical": {"motor rotor bar problem", "stator electrical unbalance"},
		"structural": {"motor imbalance", "motor misalignment"},
		"lubricant":  {"oil whirl", "motor bearing outer race defect"},
	}
}

func newTestPDME(t testing.TB) *PDME {
	t.Helper()
	model, err := oosm.NewModel(relstore.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(model, testGroups())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func report(ks, component, condition string, sev, belief float64, at time.Time, vec proto.PrognosticVector) *proto.Report {
	return &proto.Report{
		DCID:               "dc-1",
		KnowledgeSourceID:  ks,
		SensedObjectID:     component,
		MachineConditionID: condition,
		Severity:           sev,
		Belief:             belief,
		Timestamp:          at,
		Prognostics:        vec,
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, testGroups()); err == nil {
		t.Error("nil model")
	}
	model, err := oosm.NewModel(relstore.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(model, fusion.Groups{}); err == nil {
		t.Error("empty groups")
	}
}

func TestDeliverFusesViaOOSMEvents(t *testing.T) {
	p := newTestPDME(t)
	defer p.Close()
	at := time.Date(1998, 9, 1, 12, 0, 0, 0, time.UTC)
	if err := p.Deliver(report("ks/dli", "motor/1", "motor imbalance", 0.5, 0.6, at, nil)); err != nil {
		t.Fatal(err)
	}
	b, err := p.Belief("motor/1", "motor imbalance")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b-0.6) > 1e-9 {
		t.Errorf("belief %g", b)
	}
	// Reinforcing report from another source.
	if err := p.Deliver(report("ks/sbfr", "motor/1", "motor imbalance", 0.5, 0.5, at.Add(time.Minute), nil)); err != nil {
		t.Fatal(err)
	}
	b, _ = p.Belief("motor/1", "motor imbalance")
	if math.Abs(b-0.8) > 1e-9 {
		t.Errorf("fused belief %g, want 0.8", b)
	}
	if p.ReceivedReports() != 2 {
		t.Errorf("received %d", p.ReceivedReports())
	}
	// The report objects live in the OOSM repository.
	ids, err := p.Model().FindByProp(ReportClass, "sensed", "motor/1")
	if err != nil || len(ids) != 2 {
		t.Errorf("OOSM report repository: %v %v", ids, err)
	}
	// One conclusion object, updated in place.
	concl, err := p.Model().Instances(ConclusionClass)
	if err != nil || len(concl) != 1 {
		t.Fatalf("conclusions %v %v", concl, err)
	}
	props, err := p.Model().Get(concl[0])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(props["belief"].(float64)-0.8) > 1e-9 {
		t.Errorf("conclusion belief %v", props["belief"])
	}
	if props["group"] != "structural" {
		t.Errorf("conclusion group %v", props["group"])
	}
	u := props["unknown"].(float64)
	if math.Abs(u-0.2) > 1e-9 {
		t.Errorf("conclusion unknown %g", u)
	}
}

func TestDeliverValidation(t *testing.T) {
	p := newTestPDME(t)
	defer p.Close()
	at := time.Now()
	bad := report("ks", "m", "motor imbalance", 2.0, 0.5, at, nil)
	if err := p.Deliver(bad); err == nil {
		t.Error("invalid report accepted")
	}
	unknownCond := report("ks", "m", "ghost condition", 0.5, 0.5, at, nil)
	if err := p.Deliver(unknownCond); err == nil {
		t.Error("condition outside groups accepted")
	}
}

func TestPrognosticFusionAcrossSources(t *testing.T) {
	p := newTestPDME(t)
	defer p.Close()
	at := time.Now()
	v1 := proto.PrognosticVector{
		{Probability: 0.01, HorizonSeconds: 3 * 30 * 86400},
		{Probability: 0.5, HorizonSeconds: 4 * 30 * 86400},
		{Probability: 0.99, HorizonSeconds: 5 * 30 * 86400},
	}
	v2 := proto.PrognosticVector{{Probability: 0.95, HorizonSeconds: 4.5 * 30 * 86400}}
	if err := p.Deliver(report("ks/dli", "motor/1", "oil whirl", 0.5, 0.7, at, v1)); err != nil {
		t.Fatal(err)
	}
	if err := p.Deliver(report("ks/wnn", "motor/1", "oil whirl", 0.6, 0.7, at, v2)); err != nil {
		t.Fatal(err)
	}
	fused := p.FusedPrognostic("motor/1", "oil whirl")
	if len(fused) == 0 {
		t.Fatal("no fused prognostic")
	}
	at45 := fused.ProbabilityAt(time.Duration(4.5 * 30 * 86400 * float64(time.Second)))
	if math.Abs(at45-0.95) > 1e-9 {
		t.Errorf("fused at 4.5mo = %g, want 0.95 (dominating report)", at45)
	}
}

func TestPrioritizedList(t *testing.T) {
	p := newTestPDME(t)
	defer p.Close()
	at := time.Now()
	day := 86400.0
	urgent := proto.PrognosticVector{{Probability: 0.9, HorizonSeconds: 3 * day}}
	lazy := proto.PrognosticVector{{Probability: 0.5, HorizonSeconds: 180 * day}}
	send := func(component, cond string, belief float64, vec proto.PrognosticVector) {
		t.Helper()
		if err := p.Deliver(report("ks", component, cond, 0.5, belief, at, vec)); err != nil {
			t.Fatal(err)
		}
	}
	send("pump/2", "oil whirl", 0.4, lazy)
	send("motor/1", "motor imbalance", 0.9, urgent)
	send("motor/1", "motor rotor bar problem", 0.9, lazy)

	list := p.PrioritizedList()
	if len(list) != 3 {
		t.Fatalf("list %v", list)
	}
	// Equal beliefs: the urgent prognostic ranks first.
	if list[0].Condition != "motor imbalance" {
		t.Errorf("top item %q", list[0].Condition)
	}
	if list[1].Condition != "motor rotor bar problem" {
		t.Errorf("second item %q", list[1].Condition)
	}
	if list[2].Component != "pump/2" {
		t.Errorf("third item %+v", list[2])
	}
	if !list[0].HasPrognostic || list[0].TimeToHalf > 4*24*time.Hour {
		t.Errorf("urgent item prognostic %v", list[0].TimeToHalf)
	}
}

// TestFigure2Scenario reproduces the Figure 2 display state: "for machine
// A/C Compressor Motor 1, six condition reports from four different
// knowledge sources (expert systems) have been received, some conflicting
// and some reinforcing", with fused predictions rendered below.
func TestFigure2Scenario(t *testing.T) {
	p := newTestPDME(t)
	defer p.Close()
	machine := "A/C Compressor Motor 1"
	at := time.Date(1998, 9, 1, 8, 0, 0, 0, time.UTC)
	day := 86400.0
	vec := proto.PrognosticVector{{Probability: 0.5, HorizonSeconds: 30 * day}}
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
	view, err := p.RenderBrowser(machine)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(view, "6 condition reports from 4 knowledge sources") {
		t.Errorf("header wrong:\n%s", view)
	}
	for _, want := range []string{
		"motor imbalance", "motor misalignment", "oil whirl",
		"motor rotor bar problem", "fused predictions", "unknown possibilities",
	} {
		if !strings.Contains(view, want) {
			t.Errorf("view missing %q:\n%s", want, view)
		}
	}
	// Conflicting in-group reports (imbalance vs misalignment) suppress
	// each other relative to reinforced imbalance.
	bImb, _ := p.Belief(machine, "motor imbalance")
	bMis, _ := p.Belief(machine, "motor misalignment")
	if bImb <= bMis {
		t.Errorf("reinforced imbalance (%g) should outrank single misalignment (%g)", bImb, bMis)
	}
	t.Logf("\n%s", view)
}

func TestConclusionLinksToModelObject(t *testing.T) {
	p := newTestPDME(t)
	defer p.Close()
	// Create the sensed machine in the model first.
	if err := p.Model().RegisterClass(oosm.Class{
		Name:  "motor",
		Props: map[string]oosm.PropType{"name": oosm.PropString},
	}); err != nil {
		t.Fatal(err)
	}
	id, err := p.Model().Create("motor", map[string]any{"name": "M1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Deliver(report("ks", id.String(), "motor imbalance", 0.5, 0.6, time.Now(), nil)); err != nil {
		t.Fatal(err)
	}
	// The conclusion names the machine object as its component.
	if got := conclusionConditions(t, p.Model(), id); !slices.Equal(got, []string{"motor imbalance"}) {
		t.Fatalf("conclusions on %v are for %v, want one for motor imbalance", id, got)
	}
}

func TestServeOverTCP(t *testing.T) {
	p := newTestPDME(t)
	defer p.Close()
	addr, srv, err := p.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := proto.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(report("ks", "motor/1", "motor imbalance", 0.5, 0.7, time.Now(), nil)); err != nil {
		t.Fatal(err)
	}
	b, _ := p.Belief("motor/1", "motor imbalance")
	if math.Abs(b-0.7) > 1e-9 {
		t.Errorf("belief over TCP %g", b)
	}
	// Rejected conditions surface to the TCP client.
	if err := c.Send(report("ks", "motor/1", "ghost", 0.5, 0.7, time.Now(), nil)); err == nil {
		t.Error("ghost condition should be rejected over TCP")
	}
}

func TestConcurrentDelivery(t *testing.T) {
	p := newTestPDME(t)
	defer p.Close()
	var wg sync.WaitGroup
	conds := []string{"motor imbalance", "oil whirl", "motor rotor bar problem"}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine is a knowledge source of its own: eight sources
			// reinforce each condition.
			for i := 0; i < 20; i++ {
				r := report(fmt.Sprintf("ks/%d", g), "m", conds[i%3], 0.5, 0.6, time.Now(), nil)
				if err := p.Deliver(r); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if p.ReceivedReports() != 160 {
		t.Errorf("received %d", p.ReceivedReports())
	}
	for _, c := range conds {
		b, err := p.Belief("m", c)
		if err != nil || b <= 0.99 {
			t.Errorf("%s: belief %g err %v", c, b, err)
		}
	}
}

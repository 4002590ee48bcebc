package vibration

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/chiller"
	"repro/internal/proto"
)

func plantWith(t testing.TB, faults map[chiller.Fault]float64, load float64, seed int64) *chiller.Plant {
	t.Helper()
	cfg := chiller.DefaultConfig()
	cfg.Seed = seed
	p, err := chiller.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for f, s := range faults {
		if err := p.SetFault(f, s); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.SetLoad(load); err != nil {
		t.Fatal(err)
	}
	return p
}

func diagnose(t testing.TB, p *chiller.Plant) []Diagnosis {
	t.Helper()
	e := NewEngine(p.Config(), 0.15)
	ds, err := e.DiagnosePlant(p, 16384)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func hasCondition(ds []Diagnosis, f chiller.Fault) (Diagnosis, bool) {
	for _, d := range ds {
		if d.Condition == f.String() {
			return d, true
		}
	}
	return Diagnosis{}, false
}

func TestHealthyPlantNoCalls(t *testing.T) {
	p := plantWith(t, nil, 0.8, 1)
	ds := diagnose(t, p)
	if len(ds) != 0 {
		t.Fatalf("healthy plant produced calls: %+v", ds)
	}
}

func TestEachVibrationalFaultIsDetected(t *testing.T) {
	for _, f := range chiller.AllFaults() {
		if !f.IsVibrational() {
			continue
		}
		p := plantWith(t, map[chiller.Fault]float64{f: 0.8}, 0.8, 7)
		ds := diagnose(t, p)
		if len(ds) == 0 {
			t.Errorf("%v at severity 0.8 produced no diagnosis", f)
			continue
		}
		// The correct condition must be the top-ranked call.
		if ds[0].Condition != f.String() {
			got, ok := hasCondition(ds, f)
			t.Errorf("%v: top call was %q (correct call present=%v severity=%.2f)",
				f, ds[0].Condition, ok, got.Severity)
		}
	}
}

func TestSeverityTracksInjectedSeverity(t *testing.T) {
	sev := func(inject float64) float64 {
		p := plantWith(t, map[chiller.Fault]float64{chiller.MotorImbalance: inject}, 0.8, 3)
		ds := diagnose(t, p)
		d, ok := hasCondition(ds, chiller.MotorImbalance)
		if !ok {
			return 0
		}
		return d.Severity
	}
	s3, s6, s9 := sev(0.3), sev(0.6), sev(0.9)
	if !(s3 < s6 && s6 < s9) {
		t.Errorf("estimated severity not monotone: %.2f %.2f %.2f", s3, s6, s9)
	}
}

func TestLoosenessLoadSensitization(t *testing.T) {
	// The §6.1 scenario: a healthy compressor entering low-load operation
	// must NOT trigger a bearing looseness call.
	p := plantWith(t, nil, 0.05, 11)
	ds := diagnose(t, p)
	if d, ok := hasCondition(ds, chiller.BearingLooseness); ok {
		t.Fatalf("false positive looseness call at low load (severity %.2f)", d.Severity)
	}
	// A genuinely loose bearing is still called at low load.
	p2 := plantWith(t, map[chiller.Fault]float64{chiller.BearingLooseness: 0.8}, 0.05, 12)
	ds2 := diagnose(t, p2)
	if _, ok := hasCondition(ds2, chiller.BearingLooseness); !ok {
		t.Fatal("real looseness missed at low load")
	}
}

func TestRotorBarNotCalledUnloaded(t *testing.T) {
	// At near-zero load the rotor bar signature is unreliable; the rule
	// abstains rather than guessing.
	p := plantWith(t, map[chiller.Fault]float64{chiller.MotorRotorBar: 0.9}, 0.1, 13)
	ds := diagnose(t, p)
	if _, ok := hasCondition(ds, chiller.MotorRotorBar); ok {
		t.Fatal("rotor bar called at 10% load where the rule should abstain")
	}
	// At full load it is called.
	if err := p.SetLoad(1.0); err != nil {
		t.Fatal(err)
	}
	ds = diagnose(t, p)
	if _, ok := hasCondition(ds, chiller.MotorRotorBar); !ok {
		t.Fatal("rotor bar missed at full load")
	}
}

func TestMultipleConcurrentFaults(t *testing.T) {
	// §5.3: "there can, in fact, be several failures at one time". Two
	// independent faults in different groups must both be called.
	p := plantWith(t, map[chiller.Fault]float64{
		chiller.MotorImbalance: 0.7,
		chiller.GearToothWear:  0.7,
	}, 0.8, 17)
	ds := diagnose(t, p)
	if _, ok := hasCondition(ds, chiller.MotorImbalance); !ok {
		t.Error("imbalance missed in multi-fault scenario")
	}
	if _, ok := hasCondition(ds, chiller.GearToothWear); !ok {
		t.Error("gear wear missed in multi-fault scenario")
	}
}

func TestGradeAssignment(t *testing.T) {
	p := plantWith(t, map[chiller.Fault]float64{chiller.MotorImbalance: 0.95}, 0.8, 19)
	ds := diagnose(t, p)
	d, ok := hasCondition(ds, chiller.MotorImbalance)
	if !ok {
		t.Fatal("no call")
	}
	if d.Grade != proto.GradeSeverity(d.Severity) {
		t.Error("grade inconsistent with severity")
	}
	if d.Grade < proto.SeveritySerious {
		t.Errorf("severity 0.95 injection graded only %v (est %.2f)", d.Grade, d.Severity)
	}
}

func TestWorstCasePrognosticShapes(t *testing.T) {
	for _, g := range []proto.SeverityGrade{
		proto.SeveritySlight, proto.SeverityModerate, proto.SeveritySerious, proto.SeverityExtreme,
	} {
		v := WorstCasePrognostic(g, 0.5)
		if len(v) == 0 {
			t.Errorf("%v: empty prognostic", g)
			continue
		}
		if err := v.Validate(); err != nil {
			t.Errorf("%v: invalid vector: %v", g, err)
		}
	}
	if WorstCasePrognostic(proto.SeverityNone, 0) != nil {
		t.Error("none grade should have no prognostic")
	}
	// More severe grades reach 50% failure probability sooner.
	tExt, _ := WorstCasePrognostic(proto.SeverityExtreme, 1).TimeToProbability(0.5, 400*24*time.Hour)
	tMod, _ := WorstCasePrognostic(proto.SeverityModerate, 1).TimeToProbability(0.5, 400*24*time.Hour)
	if tExt >= tMod {
		t.Errorf("extreme (%v) should fail before moderate (%v)", tExt, tMod)
	}
}

func TestToReport(t *testing.T) {
	d := Diagnosis{
		Condition: chiller.MotorImbalance.String(), Point: chiller.MotorDE,
		Severity: 0.6, Grade: proto.SeveritySerious, Belief: 0.95,
		Explanation: "x", Recommendation: "y",
	}
	r := d.ToReport("dc-1", "ks/dli", "motor/1", time.Date(1998, 9, 1, 0, 0, 0, 0, time.UTC))
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.MachineConditionID != "motor imbalance" || r.Belief != 0.95 || len(r.Prognostics) == 0 {
		t.Errorf("report %+v", r)
	}
}

func TestDiagnoseValidation(t *testing.T) {
	e := NewEngine(chiller.DefaultConfig(), 0.15)
	if _, err := e.Diagnose(nil, nil); err == nil {
		t.Error("nil context should error")
	}
	// Missing points: rules simply skip.
	ds, err := e.Diagnose(map[chiller.MeasurementPoint]*Features{}, &Context{Load: 0.8})
	if err != nil || len(ds) != 0 {
		t.Errorf("empty features: %v %v", ds, err)
	}
	// A rule scoring out of range is rejected.
	badRules := []Rule{{
		Condition: "bogus", Point: chiller.MotorDE, Believability: 1,
		Score: func(*Features, *Context) float64 { return 2 },
	}}
	e2 := &Engine{cfg: chiller.DefaultConfig(), rules: badRules, threshold: 0.1}
	if _, err := e2.Diagnose(map[chiller.MeasurementPoint]*Features{
		chiller.MotorDE: {},
	}, &Context{}); err == nil {
		t.Error("out-of-range score should error")
	}
	if len(e.rules) == 0 {
		t.Error("rulebook empty")
	}
}

func TestExtractValidation(t *testing.T) {
	if _, err := Extract(make([]float64, 100), chiller.DefaultConfig(), chiller.MotorDE); err == nil {
		t.Error("short frame should error")
	}
}

// TestExpertAgreementSample is a small inline version of experiment E5: on a
// labelled corpus the engine's top call agrees with ground truth at a rate
// comparable to the paper's 95% claim.
func TestExpertAgreementSample(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	vibFaults := []chiller.Fault{}
	for _, f := range chiller.AllFaults() {
		if f.IsVibrational() {
			vibFaults = append(vibFaults, f)
		}
	}
	const trials = 80
	agree := 0
	for i := 0; i < trials; i++ {
		f := vibFaults[rng.Intn(len(vibFaults))]
		sev := 0.5 + 0.5*rng.Float64()
		load := 0.5 + 0.5*rng.Float64() // operating band where all rules apply
		p := plantWith(t, map[chiller.Fault]float64{f: sev}, load, int64(1000+i))
		ds := diagnose(t, p)
		if len(ds) > 0 && ds[0].Condition == f.String() {
			agree++
		}
	}
	rate := float64(agree) / trials
	if rate < 0.9 {
		t.Errorf("agreement rate %.2f below 0.9 (paper claims ≥0.95)", rate)
	}
	t.Logf("agreement rate: %.3f (%d/%d)", rate, agree, trials)
}

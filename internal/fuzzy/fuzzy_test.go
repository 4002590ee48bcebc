package fuzzy

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/chiller"
	"repro/internal/proto"
)

func TestMembershipFunctions(t *testing.T) {
	tri := Triangular{A: 0, B: 5, C: 10}
	if tri.Degree(5) != 1 || tri.Degree(0) != 0 || tri.Degree(10) != 0 {
		t.Error("triangular anchors")
	}
	if math.Abs(tri.Degree(2.5)-0.5) > 1e-12 || math.Abs(tri.Degree(7.5)-0.5) > 1e-12 {
		t.Error("triangular slopes")
	}
	trap := Trapezoid{A: 0, B: 2, C: 8, D: 10}
	if trap.Degree(5) != 1 || trap.Degree(2) != 1 || trap.Degree(8) != 1 {
		t.Error("trapezoid plateau")
	}
	if math.Abs(trap.Degree(1)-0.5) > 1e-12 || math.Abs(trap.Degree(9)-0.5) > 1e-12 {
		t.Error("trapezoid slopes")
	}
	sl := ShoulderLeft{B: 3, C: 7}
	if sl.Degree(0) != 1 || sl.Degree(3) != 1 || sl.Degree(7) != 0 || sl.Degree(100) != 0 {
		t.Error("shoulder left")
	}
	sr := ShoulderRight{A: 3, B: 7}
	if sr.Degree(0) != 0 || sr.Degree(7) != 1 || sr.Degree(100) != 1 {
		t.Error("shoulder right")
	}
}

func TestMembershipInRangeProperty(t *testing.T) {
	prop := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		mfs := []MF{
			Triangular{0, 5, 10}, Trapezoid{0, 2, 8, 10},
			ShoulderLeft{3, 7}, ShoulderRight{3, 7},
		}
		for _, m := range mfs {
			d := m.Degree(x)
			if d < 0 || d > 1 || math.IsNaN(d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func simpleSystem(t *testing.T) *System {
	t.Helper()
	in := []Variable{{
		Name: "temp", Min: 0, Max: 100,
		Terms: map[string]MF{
			"cold": ShoulderLeft{B: 20, C: 40},
			"warm": Triangular{A: 30, B: 50, C: 70},
			"hot":  ShoulderRight{A: 60, B: 80},
		},
	}}
	out := []Variable{{
		Name: "fan", Min: 0, Max: 10,
		Terms: map[string]MF{
			"slow": Triangular{A: 0, B: 2, C: 4},
			"med":  Triangular{A: 3, B: 5, C: 7},
			"fast": Triangular{A: 6, B: 8, C: 10},
		},
	}}
	rules := []Rule{
		{If: []Clause{{"temp", "cold"}}, Op: And, Then: Clause{"fan", "slow"}, Weight: 1},
		{If: []Clause{{"temp", "warm"}}, Op: And, Then: Clause{"fan", "med"}, Weight: 1},
		{If: []Clause{{"temp", "hot"}}, Op: And, Then: Clause{"fan", "fast"}, Weight: 1},
	}
	s, err := NewSystem(in, out, rules)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMamdaniInference(t *testing.T) {
	s := simpleSystem(t)
	cold, err := engineInfer(s, map[string]float64{"temp": 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cold["fan"]-2) > 0.3 {
		t.Errorf("cold -> fan %g, want ≈2", cold["fan"])
	}
	hot, _ := engineInfer(s, map[string]float64{"temp": 90})
	if math.Abs(hot["fan"]-8) > 0.3 {
		t.Errorf("hot -> fan %g, want ≈8", hot["fan"])
	}
	warm, _ := engineInfer(s, map[string]float64{"temp": 50})
	if math.Abs(warm["fan"]-5) > 0.3 {
		t.Errorf("warm -> fan %g, want ≈5", warm["fan"])
	}
	// Between terms: interpolated output.
	mid, _ := engineInfer(s, map[string]float64{"temp": 65})
	if !(mid["fan"] > warm["fan"] && mid["fan"] < hot["fan"]) {
		t.Errorf("interpolation: %g not between %g and %g", mid["fan"], warm["fan"], hot["fan"])
	}
	// Clamping far outside the domain.
	frozen, _ := engineInfer(s, map[string]float64{"temp": -500})
	if math.Abs(frozen["fan"]-cold["fan"]) > 1e-9 {
		t.Error("clamping failed")
	}
}

func TestInferenceMonotoneProperty(t *testing.T) {
	// Property: for the fan system, output is monotone non-decreasing in
	// temperature (sampled).
	s := simpleSystem(t)
	prev := -1.0
	for temp := 0.0; temp <= 100; temp += 2.5 {
		out, err := engineInfer(s, map[string]float64{"temp": temp})
		if err != nil {
			t.Fatal(err)
		}
		if out["fan"] < prev-0.15 { // small tolerance for centroid ripple
			t.Fatalf("fan speed decreased at temp %g: %g -> %g", temp, prev, out["fan"])
		}
		prev = out["fan"]
	}
}

func TestSystemValidation(t *testing.T) {
	in := []Variable{{Name: "x", Min: 0, Max: 1, Terms: map[string]MF{"a": Triangular{0, 0.5, 1}}}}
	out := []Variable{{Name: "y", Min: 0, Max: 1, Terms: map[string]MF{"b": Triangular{0, 0.5, 1}}}}
	ok := []Rule{{If: []Clause{{"x", "a"}}, Op: And, Then: Clause{"y", "b"}, Weight: 1}}
	if _, err := NewSystem(in, out, ok); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		in, out []Variable
		rules   []Rule
	}{
		{"no rules", in, out, nil},
		{"unnamed var", []Variable{{Min: 0, Max: 1, Terms: map[string]MF{"a": Triangular{0, 0.5, 1}}}}, out, ok},
		{"empty domain", []Variable{{Name: "x", Min: 1, Max: 1, Terms: map[string]MF{"a": Triangular{0, 0.5, 1}}}}, out, ok},
		{"no terms", []Variable{{Name: "x", Min: 0, Max: 1, Terms: nil}}, out, ok},
		{"dup var", append(in, in[0]), out, ok},
		{"unknown input", in, out, []Rule{{If: []Clause{{"z", "a"}}, Op: And, Then: Clause{"y", "b"}, Weight: 1}}},
		{"unknown input term", in, out, []Rule{{If: []Clause{{"x", "zzz"}}, Op: And, Then: Clause{"y", "b"}, Weight: 1}}},
		{"unknown output", in, out, []Rule{{If: []Clause{{"x", "a"}}, Op: And, Then: Clause{"z", "b"}, Weight: 1}}},
		{"unknown output term", in, out, []Rule{{If: []Clause{{"x", "a"}}, Op: And, Then: Clause{"y", "zzz"}, Weight: 1}}},
		{"no antecedent", in, out, []Rule{{Op: And, Then: Clause{"y", "b"}, Weight: 1}}},
		{"bad weight", in, out, []Rule{{If: []Clause{{"x", "a"}}, Op: And, Then: Clause{"y", "b"}, Weight: 0}}},
	}
	for _, c := range cases {
		if _, err := NewSystem(c.in, c.out, c.rules); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	many := make([]Rule, maxRules+1)
	for i := range many {
		many[i] = ok[0]
	}
	if _, err := NewSystem(in, out, many); err == nil {
		t.Errorf("%d rules: expected error", len(many))
	}
	// Inference input validation.
	s, _ := NewSystem(in, out, ok)
	var res [1]float64
	if err := s.Infer(nil, res[:]); err == nil {
		t.Error("missing input")
	}
	if err := s.Infer([]float64{0.5, 1}, res[:]); err == nil {
		t.Error("unexpected input")
	}
	if err := s.Infer([]float64{0.5}, nil); err == nil {
		t.Error("no room for the output")
	}
}

// TestInferAllocatesNothing: the compiled engine runs the chiller rulebase
// on caller arrays without a heap allocation.
func TestInferAllocatesNothing(t *testing.T) {
	cd, err := NewChillerDiagnostics()
	if err != nil {
		t.Fatal(err)
	}
	in := [...]float64{27, 20, 140, 9, 0.8}
	var out [2]float64
	if n := testing.AllocsPerRun(100, func() {
		if err := cd.sys.Infer(in[:], out[:]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Infer allocates %v times a call, want 0", n)
	}
	if out[0] == 0 && out[1] == 0 {
		t.Fatal("no output fired: the input does not exercise the centroid")
	}
}

func TestOrConnective(t *testing.T) {
	s := orSystem(t)
	// Only one antecedent true: OR still activates.
	res, err := engineInfer(s, map[string]float64{"a": 1, "b": 0})
	if err != nil {
		t.Fatal(err)
	}
	if res["y"] < 0.6 {
		t.Errorf("OR rule did not fire: %g", res["y"])
	}
	// Neither true: output falls back to domain min.
	res, _ = engineInfer(s, map[string]float64{"a": 0, "b": 0})
	if res["y"] != 0 {
		t.Errorf("no activation should give domain min, got %g", res["y"])
	}
}

// --- chiller rulebase tests ---

func processFor(t *testing.T, faults map[chiller.Fault]float64, load float64) chiller.ProcessState {
	t.Helper()
	cfg := chiller.DefaultConfig()
	cfg.Seed = 23
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
	return p.ProcessState()
}

func TestChillerHealthyNoCalls(t *testing.T) {
	cd, err := NewChillerDiagnostics()
	if err != nil {
		t.Fatal(err)
	}
	for _, load := range []float64{0.2, 0.5, 0.8, 1.0} {
		ps := processFor(t, nil, load)
		res, err := cd.Diagnose(ps, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 0 {
			t.Errorf("healthy at load %g produced calls: %+v (state %+v)", load, res, ps)
		}
	}
}

func TestChillerLowChargeDetected(t *testing.T) {
	cd, err := NewChillerDiagnostics()
	if err != nil {
		t.Fatal(err)
	}
	ps := processFor(t, map[chiller.Fault]float64{chiller.RefrigerantLowCharge: 0.9}, 0.8)
	res, err := cd.Diagnose(ps, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res {
		if r.Condition == chiller.RefrigerantLowCharge.String() {
			found = true
			if r.Severity < 0.5 {
				t.Errorf("low charge severity %g too small", r.Severity)
			}
			if r.Grade == proto.SeverityNone {
				t.Error("grade none")
			}
		}
		if r.Condition == chiller.CondenserFouling.String() {
			t.Errorf("false fouling call: %+v", r)
		}
	}
	if !found {
		t.Fatalf("low charge missed: state %+v results %+v", ps, res)
	}
}

func TestChillerFoulingDetected(t *testing.T) {
	cd, err := NewChillerDiagnostics()
	if err != nil {
		t.Fatal(err)
	}
	ps := processFor(t, map[chiller.Fault]float64{chiller.CondenserFouling: 0.9}, 0.7)
	res, err := cd.Diagnose(ps, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res {
		if r.Condition == chiller.CondenserFouling.String() {
			found = true
			if r.Severity < 0.5 {
				t.Errorf("fouling severity %g too small", r.Severity)
			}
		}
	}
	if !found {
		t.Fatalf("fouling missed: state %+v results %+v", ps, res)
	}
}

func TestChillerHeavyLoadNotFouling(t *testing.T) {
	// Heavy load raises head pressure; without approach confirmation the
	// rulebase must not call fouling (load sensitization).
	cd, err := NewChillerDiagnostics()
	if err != nil {
		t.Fatal(err)
	}
	ps := processFor(t, nil, 1.0)
	res, err := cd.Diagnose(ps, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Condition == chiller.CondenserFouling.String() {
			t.Fatalf("heavy-load false fouling call (sev %g, state %+v)", r.Severity, ps)
		}
	}
}

func TestSeverityTracksFaultLevel(t *testing.T) {
	cd, err := NewChillerDiagnostics()
	if err != nil {
		t.Fatal(err)
	}
	sev := func(level float64) float64 {
		ps := processFor(t, map[chiller.Fault]float64{chiller.RefrigerantLowCharge: level}, 0.8)
		res, err := cd.Diagnose(ps, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if r.Condition == chiller.RefrigerantLowCharge.String() {
				return r.Severity
			}
		}
		return 0
	}
	lo, hi := sev(0.5), sev(1.0)
	if hi <= lo {
		t.Errorf("severity not increasing: %.2f -> %.2f", lo, hi)
	}
}

func TestResultToReport(t *testing.T) {
	r := Result{Condition: chiller.CondenserFouling.String(), Severity: 0.6,
		Grade: proto.SeveritySerious, Belief: 0.85}
	rep := r.ToReport("dc-1", "chiller/1", time.Date(1998, 9, 1, 0, 0, 0, 0, time.UTC))
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Prognostics) == 0 {
		t.Error("missing prognostics")
	}
	// All grades produce valid vectors.
	for _, g := range []proto.SeverityGrade{proto.SeveritySlight, proto.SeverityModerate,
		proto.SeveritySerious, proto.SeverityExtreme} {
		if err := processPrognostic(g).Validate(); err != nil {
			t.Errorf("%v: %v", g, err)
		}
	}
	if processPrognostic(proto.SeverityNone) != nil {
		t.Error("none grade prognostic")
	}
}

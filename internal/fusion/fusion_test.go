package fusion

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/proto"
)

func testGroups() Groups {
	return Groups{
		"electrical": {"motor rotor bar problem", "stator electrical unbalance"},
		"structural": {"motor imbalance", "motor misalignment", "bearing housing looseness"},
		"lubricant":  {"oil whirl", "motor bearing outer race defect"},
	}
}

func TestGroupsValidate(t *testing.T) {
	if err := testGroups().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Groups{}).Validate(); err == nil {
		t.Error("empty groups")
	}
	if err := (Groups{"g": nil}).Validate(); err == nil {
		t.Error("empty group")
	}
	if err := (Groups{"a": {"x"}, "b": {"x"}}).Validate(); err == nil {
		t.Error("duplicate condition across groups")
	}
}

func TestAddReportAndBelief(t *testing.T) {
	df, err := NewDiagnosticFuser(testGroups())
	if err != nil {
		t.Fatal(err)
	}
	b, err := df.AddReport("motor/1", "motor imbalance", 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b-0.6) > 1e-9 {
		t.Errorf("first report belief %g", b)
	}
	// Reinforcing report: belief grows (1 - 0.4*0.5 = 0.8).
	b, err = df.AddReport("motor/1", "motor imbalance", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b-0.8) > 1e-9 {
		t.Errorf("reinforced belief %g, want 0.8", b)
	}
	got, err := df.Belief("motor/1", "motor imbalance")
	if err != nil || math.Abs(got-b) > 1e-12 {
		t.Errorf("Belief readback %g err %v", got, err)
	}
	// Unknown mass shrinks from 1 as evidence arrives.
	u, err := df.Unknown("motor/1", "structural")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u-0.2) > 1e-9 {
		t.Errorf("unknown %g, want 0.2", u)
	}
	// Fresh component: vacuous.
	u, _ = df.Unknown("pump/9", "structural")
	if u != 1 {
		t.Errorf("fresh unknown %g", u)
	}
	b, err = df.Belief("pump/9", "oil whirl")
	if err != nil || b != 0 {
		t.Errorf("fresh belief %g %v", b, err)
	}
	cs, err := df.ConditionState("pump/9", "oil whirl")
	if err != nil || cs.Plausibility != 1 {
		t.Errorf("fresh plausibility %g %v", cs.Plausibility, err)
	}
}

func TestValidationErrors(t *testing.T) {
	df, err := NewDiagnosticFuser(testGroups())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := df.AddReport("", "motor imbalance", 0.5); err == nil {
		t.Error("empty component")
	}
	if _, err := df.AddReport("m", "ghost condition", 0.5); err == nil {
		t.Error("unknown condition")
	}
	if _, err := df.AddReport("m", "motor imbalance", -0.1); err == nil {
		t.Error("negative belief")
	}
	if _, err := df.AddReport("m", "motor imbalance", 1.5); err == nil {
		t.Error("belief > 1")
	}
	if _, err := df.Belief("m", "ghost"); err == nil {
		t.Error("belief of unknown condition")
	}
	if _, err := df.Unknown("m", "ghost group"); err == nil {
		t.Error("unknown group")
	}
	if _, err := df.GroupOf("ghost"); err == nil {
		t.Error("group of unknown condition")
	}
	if _, err := NewDiagnosticFuser(Groups{"a": {"x"}, "b": {"x"}}); err == nil {
		t.Error("bad groups accepted")
	}
}

func TestCertainReportsDoNotTotalConflict(t *testing.T) {
	// Two sources certain of different conditions in the same group: the
	// 0.999 clamp must keep combination possible.
	df, err := NewDiagnosticFuser(testGroups())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := df.AddReport("m", "motor imbalance", 1.0); err != nil {
		t.Fatal(err)
	}
	if _, err := df.AddReport("m", "motor misalignment", 1.0); err != nil {
		t.Fatalf("conflicting certain reports must not fail: %v", err)
	}
}

// TestOneSourceContradictingItselfNeverErrors: one source alternating over a
// four-member group — a suite that keeps changing its mind — is never refused,
// however long it goes on: dempster's TestLongChainStaysAMassFunction, seen
// from the engine. A source's mass that drifted off 1 would in the end have
// every further report refused as total conflict.
func TestOneSourceContradictingItselfNeverErrors(t *testing.T) {
	members := []string{"c0", "c1", "c2", "c3"}
	df, err := NewDiagnosticFuser(Groups{"g": members})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	at := time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 20000; i++ {
		cs, err := df.AddReportFrom("chiller/1", members[i%4], "dc-1", at.Add(time.Duration(i)*time.Second), 0.3+0.6*rng.Float64())
		if err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
		if cs.Belief < 0 || cs.Belief > 1 || cs.Plausibility > 1+1e-9 || cs.Belief > cs.Plausibility+1e-9 {
			t.Fatalf("report %d: belief %g, plausibility %g", i, cs.Belief, cs.Plausibility)
		}
	}
}

func TestConflictingReportsWithinGroupShareProbability(t *testing.T) {
	// §5.3: failures within a group "might be mistaken for one another, so
	// they are logically related and should share probabilities". Two
	// conflicting reports in one group suppress each other's belief.
	df, err := NewDiagnosticFuser(testGroups())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := df.AddReport("m", "motor imbalance", 0.8); err != nil {
		t.Fatal(err)
	}
	if _, err := df.AddReport("m", "motor misalignment", 0.8); err != nil {
		t.Fatal(err)
	}
	bi, _ := df.Belief("m", "motor imbalance")
	bm, _ := df.Belief("m", "motor misalignment")
	if bi > 0.5 || bm > 0.5 {
		t.Errorf("conflicting in-group beliefs not suppressed: %g, %g", bi, bm)
	}
	// Symmetric evidence: symmetric beliefs.
	if math.Abs(bi-bm) > 1e-9 {
		t.Errorf("asymmetric: %g vs %g", bi, bm)
	}
}

// TestIndependentGroupsStayConcurrent reproduces the design point of §5.3:
// failures in DIFFERENT groups are independent and can both be fully
// believed — the naive single-frame treatment forces them to compete.
func TestIndependentGroupsStayConcurrent(t *testing.T) {
	df, err := NewDiagnosticFuser(testGroups())
	if err != nil {
		t.Fatal(err)
	}
	allConds := []string{}
	for _, cs := range testGroups() {
		allConds = append(allConds, cs...)
	}
	nf, err := NewNaiveFuser(allConds)
	if err != nil {
		t.Fatal(err)
	}
	// Three strong independent reports: an electrical fault, a structural
	// fault, and a lubricant fault, all on the same machine.
	evidence := []struct {
		cond   string
		belief float64
	}{
		{"motor rotor bar problem", 0.9},
		{"motor imbalance", 0.9},
		{"oil whirl", 0.9},
	}
	for _, e := range evidence {
		for i := 0; i < 3; i++ { // three reinforcing reports each
			if _, err := df.AddReport("m", e.cond, e.belief); err != nil {
				t.Fatal(err)
			}
			if _, err := nf.AddReport("m", e.cond, e.belief); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, e := range evidence {
		grouped, _ := df.Belief("m", e.cond)
		naive, _ := nf.Belief("m", e.cond)
		if grouped < 0.99 {
			t.Errorf("%s: grouped belief %g should stay near 1 (independent faults)", e.cond, grouped)
		}
		if naive > 0.7 {
			t.Errorf("%s: naive belief %g should be suppressed by forced exclusivity", e.cond, naive)
		}
		if grouped <= naive {
			t.Errorf("%s: grouped %g should exceed naive %g", e.cond, grouped, naive)
		}
	}
}

func TestRankedList(t *testing.T) {
	df, err := NewDiagnosticFuser(testGroups())
	if err != nil {
		t.Fatal(err)
	}
	reports := []struct {
		cond   string
		belief float64
		n      int
	}{
		{"motor imbalance", 0.7, 2},
		{"oil whirl", 0.4, 1},
		{"motor rotor bar problem", 0.9, 3},
	}
	for _, r := range reports {
		for i := 0; i < r.n; i++ {
			if _, err := df.AddReport("m", r.cond, r.belief); err != nil {
				t.Fatal(err)
			}
		}
	}
	all := df.RankedAll()
	ranked := all["m"]
	if len(ranked) != 3 {
		t.Fatalf("ranked %d entries", len(ranked))
	}
	if ranked[0].Condition != "motor rotor bar problem" {
		t.Errorf("top %q", ranked[0].Condition)
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Belief > ranked[i-1].Belief {
			t.Error("not sorted by belief")
		}
	}
	for _, cb := range ranked {
		if cb.Plausibility < cb.Belief {
			t.Errorf("%s: Pl %g < Bel %g", cb.Condition, cb.Plausibility, cb.Belief)
		}
		if cb.Group == "" || cb.Reports == 0 {
			t.Errorf("incomplete entry %+v", cb)
		}
	}
	if len(all) != 1 {
		t.Errorf("ranked components %v", all)
	}
	if df.ReportCount() != 6 {
		t.Errorf("report count %d", df.ReportCount())
	}
}

func TestConcurrentFusion(t *testing.T) {
	df, err := NewDiagnosticFuser(testGroups())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conds := []string{"motor imbalance", "oil whirl", "motor rotor bar problem"}
			for i := 0; i < 50; i++ {
				if _, err := df.AddReport("m", conds[i%3], 0.3); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if df.ReportCount() != 400 {
		t.Errorf("count %d", df.ReportCount())
	}
}

// --- prognostic fusion (§5.4) ---

const month = 30 * 86400.0 // seconds

// TestPaperPrognosticExample1 reproduces the first §5.4 worked example:
// a component good for 3 months then degrading (((3mo,.01)(4mo,.5)
// (5mo,.99))) combined with a weaker report ((4.5mo,.12)) — "we will ignore
// the second report, and stick with the first which is more conservative."
func TestPaperPrognosticExample1(t *testing.T) {
	v1 := proto.PrognosticVector{
		{Probability: 0.01, HorizonSeconds: 3 * month},
		{Probability: 0.5, HorizonSeconds: 4 * month},
		{Probability: 0.99, HorizonSeconds: 5 * month},
	}
	v2 := proto.PrognosticVector{{Probability: 0.12, HorizonSeconds: 4.5 * month}}
	fused, err := FuseConservative(v1, v2)
	if err != nil {
		t.Fatal(err)
	}
	// The fused CURVE is exactly the first vector's curve: the weak report
	// leaves no trace. (The paper's example vector happens to be collinear —
	// 0.49/month throughout — so the point list may be simplified, but the
	// interpolated curve must match everywhere.)
	if err := fused.Validate(); err != nil {
		t.Fatal(err)
	}
	for h := 3 * month; h <= 5*month; h += month / 16 {
		d := time.Duration(h * float64(time.Second))
		if math.Abs(fused.ProbabilityAt(d)-v1.ProbabilityAt(d)) > 1e-9 {
			t.Fatalf("fused at %.2f months = %g, original %g",
				h/month, fused.ProbabilityAt(d), v1.ProbabilityAt(d))
		}
	}
	// In particular, at the weak report's own horizon the original curve
	// value (0.745) stands, not the report's 0.12.
	at45 := fused.ProbabilityAt(time.Duration(4.5 * month * float64(time.Second)))
	if math.Abs(at45-0.745) > 1e-9 {
		t.Errorf("fused at 4.5mo = %g, want 0.745", at45)
	}
}

// TestPaperPrognosticExample2 reproduces the second example: "If, however,
// the second report indicates a much higher likelihood of failure ((4.5
// months, .95)) then this report would dominate, and the extrapolation of
// the curve beyond this point would indicate an even earlier demise."
func TestPaperPrognosticExample2(t *testing.T) {
	v1 := proto.PrognosticVector{
		{Probability: 0.01, HorizonSeconds: 3 * month},
		{Probability: 0.5, HorizonSeconds: 4 * month},
		{Probability: 0.99, HorizonSeconds: 5 * month},
	}
	v2 := proto.PrognosticVector{{Probability: 0.95, HorizonSeconds: 4.5 * month}}
	fused, err := FuseConservative(v1, v2)
	if err != nil {
		t.Fatal(err)
	}
	// The 4.5-month point must now carry the dominating 0.95.
	at45 := fused.ProbabilityAt(time.Duration(4.5 * month * float64(time.Second)))
	if math.Abs(at45-0.95) > 1e-9 {
		t.Errorf("fused at 4.5mo = %g, want 0.95", at45)
	}
	// Earlier demise: the fused curve reaches 99% before the original's
	// 5 months.
	maxH := time.Duration(8 * month * float64(time.Second))
	tFused, ok := fused.TimeToProbability(0.99, maxH)
	if !ok {
		t.Fatal("fused never reaches 0.99")
	}
	tOrig, ok := v1.TimeToProbability(0.99, maxH)
	if !ok {
		t.Fatal("original never reaches 0.99")
	}
	if tFused >= tOrig {
		t.Errorf("fused demise %v not earlier than original %v", tFused, tOrig)
	}
	// The early part of the curve is untouched.
	at3 := fused.ProbabilityAt(time.Duration(3 * month * float64(time.Second)))
	if math.Abs(at3-0.01) > 1e-9 {
		t.Errorf("fused at 3mo = %g, want 0.01", at3)
	}
}

func TestFuseConservativeEdgeCases(t *testing.T) {
	// Empty input.
	fused, err := FuseConservative()
	if err != nil || fused != nil {
		t.Errorf("empty: %v %v", fused, err)
	}
	// All-empty vectors.
	fused, err = FuseConservative(proto.PrognosticVector{}, nil)
	if err != nil || fused != nil {
		t.Errorf("all empty: %v %v", fused, err)
	}
	// Single vector: returned as-is.
	v := proto.PrognosticVector{{Probability: 0.5, HorizonSeconds: 100}}
	fused, err = FuseConservative(v, nil)
	if err != nil || len(fused) != 1 || fused[0] != v[0] {
		t.Errorf("single: %v %v", fused, err)
	}
	// Invalid vector rejected.
	if _, err := FuseConservative(proto.PrognosticVector{{Probability: 2, HorizonSeconds: 1}}); err == nil {
		t.Error("invalid vector accepted")
	}
	// Output is always a valid vector.
	a := proto.PrognosticVector{{Probability: 0.2, HorizonSeconds: 100}, {Probability: 0.6, HorizonSeconds: 300}}
	b := proto.PrognosticVector{{Probability: 0.4, HorizonSeconds: 200}, {Probability: 0.5, HorizonSeconds: 250}}
	fused, err = FuseConservative(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := fused.Validate(); err != nil {
		t.Errorf("fused invalid: %v (%+v)", err, fused)
	}
}

func TestFusedDominatesInputsProperty(t *testing.T) {
	// Property: the fused curve is >= every input curve at every sampled
	// horizon at or after that input's first point, and valid.
	prop := func(seed int64) bool {
		rng := newRand(seed)
		var vectors []proto.PrognosticVector
		for i := 0; i < 1+rng.intn(4); i++ {
			vectors = append(vectors, randomVector(rng))
		}
		fused, err := FuseConservative(vectors...)
		if err != nil {
			return false
		}
		if fused.Validate() != nil {
			return false
		}
		// The guarantee holds over the fused vector's own domain (beyond the
		// last fused point, extrapolations of individual reports and the
		// fused vector can diverge — §5.4 only defines the curve over the
		// reported horizons).
		var maxH float64
		for _, v := range vectors {
			if len(v) > 0 && v[len(v)-1].HorizonSeconds > maxH {
				maxH = v[len(v)-1].HorizonSeconds
			}
		}
		for _, v := range vectors {
			if len(v) == 0 {
				continue
			}
			for h := v[0].HorizonSeconds; h <= maxH; h += 13 {
				// Round up: plain truncation can land the first sample a
				// nanosecond BELOW v's first point, outside the domain where
				// domination is guaranteed (the fused curve may still be
				// climbing from another input's earlier, lower point there).
				d := time.Duration(math.Ceil(h * float64(time.Second)))
				if fused.ProbabilityAt(d) < v.ProbabilityAt(d)-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPrognosticFuser(t *testing.T) {
	pf := NewPrognosticFuser()
	v1 := proto.PrognosticVector{{Probability: 0.3, HorizonSeconds: 100}}
	fused, err := pf.AddReport("m", "motor imbalance", v1)
	if err != nil || len(fused) != 1 {
		t.Fatalf("first add: %v %v", fused, err)
	}
	v2 := proto.PrognosticVector{{Probability: 0.8, HorizonSeconds: 100}}
	fused, err = pf.AddReport("m", "motor imbalance", v2)
	if err != nil {
		t.Fatal(err)
	}
	if got := fused.ProbabilityAt(100 * time.Second); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("fused at 100s = %g", got)
	}
	// Readback.
	cur := pf.Fused("m", "motor imbalance")
	if len(cur) == 0 {
		t.Fatal("empty fused readback")
	}
	// Unmentioned pair.
	if v := pf.Fused("m", "ghost"); v != nil && len(v) != 0 {
		t.Error("ghost pair has vector")
	}
	// Time to failure.
	if _, ok := pf.Fused("m", "motor imbalance").TimeToProbability(0.5, 1000*time.Second); !ok {
		t.Error("time to failure not found")
	}
	// Validation.
	if _, err := pf.AddReport("", "c", v1); err == nil {
		t.Error("empty component")
	}
	if _, err := pf.AddReport("m", "", v1); err == nil {
		t.Error("empty condition")
	}
	if _, err := pf.AddReport("m", "c", proto.PrognosticVector{{Probability: 2, HorizonSeconds: 1}}); err == nil {
		t.Error("invalid vector")
	}
	// Empty vector add is a no-op returning current state.
	got, err := pf.AddReport("m", "motor imbalance", nil)
	if err != nil || len(got) == 0 {
		t.Errorf("empty add: %v %v", got, err)
	}
}

// TestFusedVectorsAreNeverRewritten: AddReport and Fused hand out the vector
// the fuser holds, so the fuser must replace a pair's vector, never write
// into it, and must not alias the reporter's vector either. Every vector
// handed out keeps its values while later reports fold in.
func TestFusedVectorsAreNeverRewritten(t *testing.T) {
	pf := NewPrognosticFuser()
	var handed, want []proto.PrognosticVector
	keep := func(v proto.PrognosticVector) {
		handed = append(handed, v)
		want = append(want, append(proto.PrognosticVector(nil), v...))
	}
	report := proto.PrognosticVector{{Probability: 0.2, HorizonSeconds: 1000}, {Probability: 0.5, HorizonSeconds: 4000}}
	for i, v := range []proto.PrognosticVector{
		report,
		{{Probability: 0.4, HorizonSeconds: 2000}},
		{{Probability: 0.1, HorizonSeconds: 500}, {Probability: 0.9, HorizonSeconds: 3000}},
		{{Probability: 0.95, HorizonSeconds: 100}},
	} {
		fused, err := pf.AddReport("m", "oil whirl", v)
		if err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
		keep(fused)
		keep(pf.Fused("m", "oil whirl"))
	}
	report[0].Probability = 0.99 // the reporter reuses its buffer
	for i := range handed {
		if !slices.Equal(handed[i], want[i]) {
			t.Errorf("vector %d handed out as %v now reads %v", i, want[i], handed[i])
		}
	}
}

// --- tiny deterministic generator (mirrors proto's test helper) ---

type testRand struct{ state uint64 }

func newRand(seed int64) *testRand {
	return &testRand{state: uint64(seed)*2862933555777941757 + 3037000493}
}

func (r *testRand) next() uint64 {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return r.state
}

func (r *testRand) float() float64 { return float64(r.next()>>11) / float64(1<<53) }
func (r *testRand) intn(n int) int { return int(r.next() % uint64(n)) }

func randomVector(rng *testRand) proto.PrognosticVector {
	n := rng.intn(4)
	v := make(proto.PrognosticVector, 0, n)
	horizon, prob := 0.0, 0.0
	for i := 0; i < n; i++ {
		horizon += 10 + rng.float()*100
		prob += rng.float() * (1 - prob) * 0.8
		v = append(v, proto.PrognosticPoint{Probability: prob, HorizonSeconds: horizon})
	}
	return v
}

func BenchmarkPrognosticFusion(b *testing.B) {
	pf := NewPrognosticFuser()
	vs := []proto.PrognosticVector{
		{{Probability: 0.1, HorizonSeconds: 100}, {Probability: 0.5, HorizonSeconds: 200}, {Probability: 0.9, HorizonSeconds: 400}},
		{{Probability: 0.3, HorizonSeconds: 150}, {Probability: 0.7, HorizonSeconds: 300}},
		{{Probability: 0.2, HorizonSeconds: 120}},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pf.AddReport("m", "c", vs[i%3]); err != nil {
			b.Fatal(err)
		}
	}
}

package fusion

import (
	"fmt"
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
	// The same source's next report replaces its first: belief is what the
	// source currently says.
	b, err = df.AddReport("motor/1", "motor imbalance", 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b-0.7) > 1e-9 {
		t.Errorf("restated belief %g, want 0.7", b)
	}
	// A reinforcing report from a second source: belief grows (1 - 0.3*0.5 = 0.85).
	cs, err := df.AddReportFrom("motor/1", "motor imbalance", "dc-2", time.Time{}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if b = cs.Belief; math.Abs(b-0.85) > 1e-9 || cs.Reports != 3 {
		t.Errorf("reinforced belief %g after %d reports, want 0.85 after 3", b, cs.Reports)
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
	if math.Abs(u-0.15) > 1e-9 {
		t.Errorf("unknown %g, want 0.15", u)
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
	cs, err = df.ConditionState("pump/9", "oil whirl")
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
		for _, dc := range []string{"dc-1", "dc-2", "dc-3"} { // three reinforcing sources each
			if _, err := df.AddReportFrom("m", e.cond, dc, time.Time{}, e.belief); err != nil {
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
			if _, err := df.AddReportFrom("m", r.cond, fmt.Sprintf("dc-%d", i), time.Time{}, r.belief); err != nil {
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

// progReport is a report carrying only a prognostic vector, from knowledge
// source ks of dc-1, sensed at.
func progReport(component, condition, ks string, at time.Time, v proto.PrognosticVector) *proto.Report {
	return &proto.Report{DCID: "dc-1", KnowledgeSourceID: ks, SensedObjectID: component, MachineConditionID: condition,
		Belief: 0.5, Timestamp: at, Prognostics: v}
}

// TestPrognosticFuser: a pair's fused vector is FuseConservative over what
// each source currently says; a source's next vector replaces its last, and
// invalid vectors are refused before anything changes.
func TestPrognosticFuser(t *testing.T) {
	df, err := NewDiagnosticFuser(testGroups())
	if err != nil {
		t.Fatal(err)
	}
	v1 := proto.PrognosticVector{{Probability: 0.3, HorizonSeconds: 100}}
	cs, _, err := df.Fold(progReport("m", "motor imbalance", "ks/a", dt, v1), 0, nil)
	if err != nil || !slices.Equal(cs.Prognostics, v1) {
		t.Fatalf("first fold: %v %v", cs.Prognostics, err)
	}
	v2 := proto.PrognosticVector{{Probability: 0.8, HorizonSeconds: 100}}
	if cs, _, err = df.Fold(progReport("m", "motor imbalance", "ks/b", dt, v2), 0, nil); err != nil {
		t.Fatal(err)
	}
	if got := cs.Prognostics.ProbabilityAt(100 * time.Second); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("fused at 100s = %g", got)
	}
	// Readback.
	if cur, err := df.ConditionState("m", "motor imbalance"); err != nil || !slices.Equal(cur.Prognostics, cs.Prognostics) {
		t.Fatalf("readback %v, fold returned %v (%v)", cur.Prognostics, cs.Prognostics, err)
	}
	// ks/b restates a weaker vector: it replaces ks/b's, and ks/a's is the envelope.
	if cs, _, err = df.Fold(progReport("m", "motor imbalance", "ks/b", dt, proto.PrognosticVector{{Probability: 0.1, HorizonSeconds: 100}}), 0, nil); err != nil {
		t.Fatal(err)
	}
	if got := cs.Prognostics.ProbabilityAt(100 * time.Second); math.Abs(got-0.3) > 1e-9 {
		t.Errorf("after ks/b's weaker restatement fused at 100s = %g, want 0.3", got)
	}
	// Unmentioned pair.
	if cs, err := df.ConditionState("m", "oil whirl"); err != nil || cs.Prognostics != nil {
		t.Error("unreported pair has a vector")
	}
	// Time to failure.
	if _, ok := cs.Prognostics.TimeToProbability(0.3, 1000*time.Second); !ok {
		t.Error("time to failure not found")
	}
	// Validation: refused, and the pair's vector is as it was.
	if _, _, err := df.Fold(progReport("m", "motor imbalance", "ks/a", dt, proto.PrognosticVector{{Probability: 2, HorizonSeconds: 1}}), 0, nil); err == nil {
		t.Error("invalid vector")
	}
	if cur, _ := df.ConditionState("m", "motor imbalance"); !slices.Equal(cur.Prognostics, cs.Prognostics) || cur.Reports != 3 {
		t.Errorf("a refused vector changed the pair: %v after %d reports", cur.Prognostics, cur.Reports)
	}
	// A report with no vector clears its source's: ks/b's is what is left.
	if cs, _, err = df.Fold(progReport("m", "motor imbalance", "ks/a", dt, nil), 0, nil); err != nil ||
		!slices.Equal(cs.Prognostics, proto.PrognosticVector{{Probability: 0.1, HorizonSeconds: 100}}) {
		t.Errorf("ks/a withdrew its vector, and the pair reads %v (%v), want ks/b's", cs.Prognostics, err)
	}
}

// TestFusedVectorsAreNeverRewritten: folds and reads hand out the vector the
// fuser holds, so the fuser must replace a pair's vector, never write into
// it. Every vector handed out keeps its values while later reports fold in.
func TestFusedVectorsAreNeverRewritten(t *testing.T) {
	df, err := NewDiagnosticFuser(testGroups())
	if err != nil {
		t.Fatal(err)
	}
	var handed, want []proto.PrognosticVector
	keep := func(v proto.PrognosticVector) {
		handed = append(handed, v)
		want = append(want, append(proto.PrognosticVector(nil), v...))
	}
	for i, v := range []proto.PrognosticVector{
		{{Probability: 0.2, HorizonSeconds: 1000}, {Probability: 0.5, HorizonSeconds: 4000}},
		{{Probability: 0.4, HorizonSeconds: 2000}},
		{{Probability: 0.1, HorizonSeconds: 500}, {Probability: 0.9, HorizonSeconds: 3000}},
		{{Probability: 0.95, HorizonSeconds: 100}},
	} {
		cs, _, err := df.Fold(progReport("m", "oil whirl", fmt.Sprintf("ks/%d", i%3), dt.Add(time.Duration(i)*time.Second), v), 0, nil)
		if err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
		keep(cs.Prognostics)
		cur, err := df.ConditionState("m", "oil whirl")
		if err != nil {
			t.Fatal(err)
		}
		keep(cur.Prognostics)
	}
	for i := range handed {
		if !slices.Equal(handed[i], want[i]) {
			t.Errorf("vector %d handed out as %v now reads %v", i, want[i], handed[i])
		}
	}
}

// TestOptimisticVectorReplacesPessimistic: a source's pessimistic vector
// (0.9 within a day) followed by a thousand optimistic ones (0.01 within a
// year), an hour apart, ends with the optimistic vector: a prognosis is an
// estimate the source revises, not a running envelope.
func TestOptimisticVectorReplacesPessimistic(t *testing.T) {
	df, err := NewDiagnosticFuser(testGroups())
	if err != nil {
		t.Fatal(err)
	}
	const day = 86400.0
	optimistic := proto.PrognosticVector{{Probability: 0.01, HorizonSeconds: 365 * day}}
	cs, _, err := df.Fold(progReport("m", "oil whirl", "ks/dli", dt, proto.PrognosticVector{{Probability: 0.9, HorizonSeconds: day}}), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 1000; i++ {
		if cs, _, err = df.Fold(progReport("m", "oil whirl", "ks/dli", dt.Add(time.Duration(i)*time.Hour), optimistic), 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(cs.Prognostics, optimistic) {
		t.Fatalf("fused %v, want the optimistic %v", cs.Prognostics, optimistic)
	}
}

// TestWeakerLaterVectorRebased: one source says 0.5 within 10 days; five
// days later another source says something weaker. Both are read from the
// newer report's time, so the pair fuses to 0.5 within 5 days.
func TestWeakerLaterVectorRebased(t *testing.T) {
	df, err := NewDiagnosticFuser(testGroups())
	if err != nil {
		t.Fatal(err)
	}
	const day = 86400.0
	if _, _, err := df.Fold(progReport("m", "oil whirl", "ks/a", dt, proto.PrognosticVector{{Probability: 0.5, HorizonSeconds: 10 * day}}), 0, nil); err != nil {
		t.Fatal(err)
	}
	cs, _, err := df.Fold(progReport("m", "oil whirl", "ks/b", dt.Add(5*24*time.Hour), proto.PrognosticVector{{Probability: 0.1, HorizonSeconds: 20 * day}}), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Prognostics) == 0 || cs.Prognostics[0] != (proto.PrognosticPoint{Probability: 0.5, HorizonSeconds: 5 * day}) {
		t.Fatalf("fused %v, want it to start at 0.5 within 5 days", cs.Prognostics)
	}
	if h, ok := cs.Prognostics.TimeToProbability(0.5, 10*24*time.Hour); !ok || h != 5*24*time.Hour {
		t.Errorf("time to 0.5: %v (%v), want 5 days", h, ok)
	}
}

// TestRebase: a horizon shifts by the vector's age; one already passed is
// due, its probability holding from now on.
func TestRebase(t *testing.T) {
	v := proto.PrognosticVector{{Probability: 0.2, HorizonSeconds: 100}, {Probability: 0.6, HorizonSeconds: 200}}
	for _, tc := range []struct {
		shift time.Duration
		want  proto.PrognosticVector
	}{
		{0, v},
		{50 * time.Second, proto.PrognosticVector{{Probability: 0.2, HorizonSeconds: 50}, {Probability: 0.6, HorizonSeconds: 150}}},
		{150 * time.Second, proto.PrognosticVector{{Probability: 0.2, HorizonSeconds: dueHorizon}, {Probability: 0.6, HorizonSeconds: 50}}},
		{300 * time.Second, proto.PrognosticVector{{Probability: 0.6, HorizonSeconds: dueHorizon}, {Probability: 0.6, HorizonSeconds: 2 * dueHorizon}}},
	} {
		_, got := rebase(nil, v, tc.shift)
		if !slices.Equal(got, tc.want) || got.Validate() != nil {
			t.Errorf("rebase by %v: %v, want %v", tc.shift, got, tc.want)
		}
		if p := got.ProbabilityAt(1000 * time.Hour); tc.shift == 300*time.Second && p != 0.6 {
			t.Errorf("a vector wholly due reads %g far out, want its 0.6 held", p)
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
	df, err := NewDiagnosticFuser(testGroups())
	if err != nil {
		b.Fatal(err)
	}
	vs := []proto.PrognosticVector{
		{{Probability: 0.1, HorizonSeconds: 100}, {Probability: 0.5, HorizonSeconds: 200}, {Probability: 0.9, HorizonSeconds: 400}},
		{{Probability: 0.3, HorizonSeconds: 150}, {Probability: 0.7, HorizonSeconds: 300}},
		{{Probability: 0.2, HorizonSeconds: 120}},
	}
	reports := make([]*proto.Report, 3)
	for i := range reports {
		reports[i] = progReport("m", "oil whirl", fmt.Sprintf("ks/%d", i), dt, vs[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := df.Fold(reports[i%3], 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFoldLetsGoOneNumber: a block's entry is its key's current report, a
// later sensed-at time winning and a tie going to the later fold. Fold
// answers the number of the report the rule let go — the displaced entry's,
// the folded report's own when it is older than the entry, 0 when the key
// held nothing or the fold was refused — and Held lists the reports the
// entries hold, none for evidence AddReportFrom folded.
func TestFoldLetsGoOneNumber(t *testing.T) {
	df, err := NewDiagnosticFuser(testGroups())
	if err != nil {
		t.Fatal(err)
	}
	first := progReport("m", "oil whirl", "ks/a", dt, nil)
	later := progReport("m", "oil whirl", "ks/a", dt.Add(time.Hour), nil)
	other := progReport("m", "oil whirl", "ks/a", dt, nil)
	other.DCID = "dc-2"
	steps := []struct {
		r        *proto.Report
		num      int64
		refuse   bool
		drop     int64
		reports  []*proto.Report
		describe string
	}{
		{first, 1, false, 0, []*proto.Report{first}, "the key's first report"},
		{later, 2, false, 1, []*proto.Report{later}, "a later report"},
		{progReport("m", "oil whirl", "ks/a", dt.Add(time.Minute), nil), 3, false, 3, []*proto.Report{later}, "a late report"},
		{progReport("m", "oil whirl", "ks/a", dt.Add(time.Hour), nil), 4, true, 0, []*proto.Report{later}, "a refused report"},
		{other, 5, false, 0, []*proto.Report{later, other}, "another DC's report"},
	}
	for _, s := range steps {
		var keep func() error
		if s.refuse {
			keep = func() error { return fmt.Errorf("refused") }
		}
		_, drop, err := df.Fold(s.r, s.num, keep)
		if (err != nil) != s.refuse || drop != s.drop {
			t.Fatalf("%s: Fold let go %d (%v), want %d", s.describe, drop, err, s.drop)
		}
		if got, _, _ := df.Held(nil); !slices.Equal(got, s.reports) {
			t.Fatalf("%s: entries hold %v, want %v", s.describe, got, s.reports)
		}
	}
	tie := progReport("m", "oil whirl", "ks/a", dt.Add(time.Hour), nil)
	if _, drop, err := df.Fold(tie, 6, nil); err != nil || drop != 2 {
		t.Fatalf("a tied report let go %d (%v), want the held report's 2", drop, err)
	}
	if _, err := df.AddReportFrom("m", "motor imbalance", "dc-3", dt, 0.5); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := df.Held(nil); !slices.Equal(got, []*proto.Report{tie, other}) {
		t.Fatalf("entries hold %v, want the tied report and the other DC's only", got)
	}
}

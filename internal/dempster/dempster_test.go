package dempster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewFrameValidation(t *testing.T) {
	if _, err := NewFrame(); err == nil {
		t.Error("empty frame should error")
	}
	if _, err := NewFrame("a", "a"); err == nil {
		t.Error("duplicate names should error")
	}
	if _, err := NewFrame("a", ""); err == nil {
		t.Error("empty name should error")
	}
	big := make([]string, 65)
	for i := range big {
		big[i] = string(rune('a')) + string(rune('0'+i/10)) + string(rune('0'+i%10))
	}
	if _, err := NewFrame(big...); err == nil {
		t.Error("65 hypotheses should error")
	}
	f, err := NewFrame("x", "y", "z")
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 3 || f.Theta() != 0b111 {
		t.Errorf("size %d theta %b", f.Size(), f.Theta())
	}
}

func TestFrame64Hypotheses(t *testing.T) {
	names := make([]string, 64)
	for i := range names {
		names[i] = string(rune('A'+i/26)) + string(rune('a'+i%26))
	}
	f := MustFrame(names...)
	if f.Theta() != Set(^uint64(0)) {
		t.Errorf("64-wide theta wrong: %x", f.Theta())
	}
}

func TestSetOperations(t *testing.T) {
	f := MustFrame("a", "b", "c", "d")
	ab, err := f.SetOf("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	bc, _ := f.SetOf("b", "c")
	if ab.Intersect(bc) != Singleton(1) {
		t.Error("intersect")
	}
	if !ab.Contains(Singleton(0)) || ab.Contains(Singleton(2)) {
		t.Error("contains")
	}
	if _, err := f.SetOf("a", "nope"); err == nil {
		t.Error("unknown name should error")
	}
	if got := f.Format(ab); got != "a∨b" {
		t.Errorf("format %q", got)
	}
	if f.Format(Empty) != "∅" || f.Format(f.Theta()) != "Θ" {
		t.Error("special formats")
	}
	if ns := f.Names(bc); len(ns) != 2 || ns[0] != "b" || ns[1] != "c" {
		t.Errorf("names %v", ns)
	}
}

// TestPaperWorkedExample reproduces the §5.3 numbers exactly: belief 40% in
// A combined with belief 75% in B∨C yields A 14%, B∨C 64%, unknown 22%.
func TestPaperWorkedExample(t *testing.T) {
	f := MustFrame("A", "B", "C")
	a, _ := f.Hypothesis("A")
	bc, _ := f.SetOf("B", "C")
	m1, m2, comb := NewMass(f), NewMass(f), NewMass(f)
	if err := m1.SetSimpleSupport(f, a, 0.40); err != nil {
		t.Fatal(err)
	}
	if err := m2.SetSimpleSupport(f, bc, 0.75); err != nil {
		t.Fatal(err)
	}
	conflict, err := CombineInto(comb, m1, m2)
	if err != nil {
		t.Fatal(err)
	}
	// Conflict K = 0.40 × 0.75 = 0.30.
	if math.Abs(conflict-0.30) > 1e-12 {
		t.Errorf("conflict %g, want 0.30", conflict)
	}
	// Exact values: 0.1/0.7, 0.45/0.7, 0.15/0.7.
	if got := comb.Get(a); math.Abs(got-0.1/0.7) > 1e-12 {
		t.Errorf("m(A) = %g, want %g", got, 0.1/0.7)
	}
	if got := comb.Get(bc); math.Abs(got-0.45/0.7) > 1e-12 {
		t.Errorf("m(B∨C) = %g, want %g", got, 0.45/0.7)
	}
	if got := comb.Unknown(); math.Abs(got-0.15/0.7) > 1e-12 {
		t.Errorf("m(Θ) = %g, want %g", got, 0.15/0.7)
	}
	// Paper's rounded presentation: 14%, 64%, 22%.
	if pct := math.Round(comb.Get(a) * 100); pct != 14 {
		t.Errorf("A%% = %g, want 14", pct)
	}
	if pct := math.Round(comb.Get(bc) * 100); pct != 64 {
		t.Errorf("B∨C%% = %g, want 64", pct)
	}
	if pct := math.Round(comb.Unknown() * 100); pct != 21 && pct != 22 {
		// 0.15/0.7 = 21.43% — the paper rounds its three numbers to sum to
		// 100 (14+64+22); the exact mass rounds to 21.
		t.Errorf("unknown%% = %g, want ≈22", pct)
	}
	if err := comb.Validate(1e-9); err != nil {
		t.Errorf("combined mass invalid: %v", err)
	}
}

func TestSimpleSupportValidation(t *testing.T) {
	f := MustFrame("A", "B")
	a, _ := f.Hypothesis("A")
	m := VacuousMass(f)
	if err := m.SetSimpleSupport(f, a, -0.1); err == nil {
		t.Error("negative belief")
	}
	if err := m.SetSimpleSupport(f, a, 1.1); err == nil {
		t.Error("belief > 1")
	}
	if err := m.SetSimpleSupport(f, Empty, 0.5); err == nil {
		t.Error("empty focal set")
	}
	if err := m.SetSimpleSupport(f, Set(0b100), 0.5); err == nil {
		t.Error("focal set outside frame")
	}
	if m.Unknown() != 1 || len(m.FocalSets()) != 1 {
		t.Errorf("a refused SetSimpleSupport changed the mass: %v", m)
	}
	// belief 1 leaves no mass on theta; belief 0 is vacuous.
	if err := m.SetSimpleSupport(f, a, 1); err != nil {
		t.Fatal(err)
	}
	if m.Unknown() != 0 || m.Get(a) != 1 {
		t.Error("belief 1 support wrong")
	}
	if err := m.SetSimpleSupport(f, a, 0); err != nil {
		t.Fatal(err)
	}
	if m.Unknown() != 1 {
		t.Error("belief 0 should be vacuous")
	}
}

func TestMassSetValidation(t *testing.T) {
	f := MustFrame("A", "B")
	m := NewMass(f)
	if err := m.Set(Singleton(0), -1); err == nil {
		t.Error("negative mass")
	}
	if err := m.Set(Empty, 0.5); err == nil {
		t.Error("mass on empty set")
	}
	if err := m.Set(Set(0b1000), 0.5); err == nil {
		t.Error("mass outside frame")
	}
	if err := m.Set(Singleton(0), 0.5); err != nil {
		t.Fatal(err)
	}
	if err := m.Set(Singleton(0), 0); err != nil {
		t.Fatal(err)
	}
	if len(m.FocalSets()) != 0 {
		t.Error("zero mass should delete focal set")
	}
}

func TestVacuousIsIdentity(t *testing.T) {
	f := MustFrame("A", "B", "C")
	a, _ := f.Hypothesis("A")
	m, comb := NewMass(f), NewMass(f)
	if err := m.SetSimpleSupport(f, a, 0.6); err != nil {
		t.Fatal(err)
	}
	conflict, err := CombineInto(comb, m, VacuousMass(f))
	if err != nil {
		t.Fatal(err)
	}
	if conflict != 0 {
		t.Errorf("conflict with vacuous: %g", conflict)
	}
	if math.Abs(comb.Get(a)-0.6) > 1e-12 || math.Abs(comb.Unknown()-0.4) > 1e-12 {
		t.Errorf("vacuous not identity: %v", comb)
	}
}

func TestTotalConflict(t *testing.T) {
	f := MustFrame("A", "B")
	a, _ := f.Hypothesis("A")
	b, _ := f.Hypothesis("B")
	var m1, m2, out Mass
	if err := m1.SetSimpleSupport(f, a, 1); err != nil {
		t.Fatal(err)
	}
	if err := m2.SetSimpleSupport(f, b, 1); err != nil {
		t.Fatal(err)
	}
	if k, err := CombineInto(&out, &m1, &m2); err == nil {
		t.Errorf("total conflict should error (K=%g)", k)
	}
}

func TestCombineDifferentFramesFails(t *testing.T) {
	f1 := MustFrame("A", "B")
	f2 := MustFrame("A", "B")
	m1 := VacuousMass(f1)
	m2 := VacuousMass(f2)
	if _, err := CombineInto(NewMass(f1), m1, m2); err == nil {
		t.Error("different frame instances should not combine")
	}
}

func TestBeliefPlausibility(t *testing.T) {
	f := MustFrame("A", "B", "C")
	a, _ := f.Hypothesis("A")
	ab, _ := f.SetOf("A", "B")
	m := NewMass(f)
	if err := m.Set(a, 0.3); err != nil {
		t.Fatal(err)
	}
	if err := m.Set(ab, 0.4); err != nil {
		t.Fatal(err)
	}
	if err := m.Set(f.Theta(), 0.3); err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(1e-12); err != nil {
		t.Fatal(err)
	}
	if got := m.Belief(a); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("Bel(A) = %g", got)
	}
	if got := m.Belief(ab); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("Bel(A∨B) = %g", got)
	}
	if got := m.Plausibility(a); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("Pl(A) = %g", got)
	}
	c, _ := f.Hypothesis("C")
	if got := m.Plausibility(c); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("Pl(C) = %g", got)
	}
}

func randomMass(rng *rand.Rand, f *Frame) *Mass {
	m := NewMass(f)
	n := rng.Intn(4) + 1
	total := 0.0
	weights := make([]float64, n+1)
	for i := range weights {
		weights[i] = rng.Float64() + 0.01
		total += weights[i]
	}
	for i := 0; i < n; i++ {
		s := Set(rng.Int63n(int64(f.Theta())) + 1)
		m.add(s, weights[i]/total)
	}
	m.add(f.Theta(), weights[n]/total)
	return m
}

func TestCombineProperties(t *testing.T) {
	// Properties of Dempster combination on random masses:
	// 1. result is a valid mass function;
	// 2. commutativity: a⊕b == b⊕a;
	// 3. unknown mass never increases: m(Θ) of a⊕b <= min of inputs' m(Θ)
	//    (more evidence can only reduce ignorance).
	f := MustFrame("A", "B", "C", "D")
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomMass(rng, f)
		b := randomMass(rng, f)
		ab, ba := NewMass(f), NewMass(f)
		k1, err1 := CombineInto(ab, a, b)
		k2, err2 := CombineInto(ba, b, a)
		if err1 != nil || err2 != nil {
			// Total conflict is possible but must be symmetric.
			return (err1 != nil) == (err2 != nil)
		}
		if math.Abs(k1-k2) > 1e-12 {
			return false
		}
		if ab.Validate(1e-9) != nil {
			return false
		}
		for _, s := range ab.FocalSets() {
			if math.Abs(ab.Get(s)-ba.Get(s)) > 1e-9 {
				return false
			}
		}
		minUnknown := math.Min(a.Unknown(), b.Unknown())
		return ab.Unknown() <= minUnknown+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestBeliefPlausibilityInvariantProperty(t *testing.T) {
	// Property: Bel(s) <= Pl(s) for any subset, and Bel(s) + Bel(¬s) <= 1.
	f := MustFrame("A", "B", "C", "D", "E")
	prop := func(seed int64, raw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomMass(rng, f)
		s := Set(raw) & f.Theta()
		if s.IsEmpty() {
			s = Singleton(0)
		}
		bel := m.Belief(s)
		pl := m.Plausibility(s)
		if bel > pl+1e-9 {
			return false
		}
		not := f.Theta() &^ s
		return bel+m.Belief(not) <= 1+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestMassString(t *testing.T) {
	f := MustFrame("A", "B")
	a, _ := f.Hypothesis("A")
	m := NewMass(f)
	if err := m.SetSimpleSupport(f, a, 0.4); err != nil {
		t.Fatal(err)
	}
	s := m.String()
	if s == "" {
		t.Error("empty string rendering")
	}
}

func BenchmarkCombineTwoSources(b *testing.B) {
	f := MustFrame("A", "B", "C", "D", "E", "F")
	rng := rand.New(rand.NewSource(9))
	m1 := randomMass(rng, f)
	m2 := randomMass(rng, f)
	var out Mass
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CombineInto(&out, m1, m2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCombineTenSources(b *testing.B) {
	f := MustFrame("A", "B", "C", "D", "E", "F", "G", "H")
	rng := rand.New(rand.NewSource(10))
	masses := make([]*Mass, 10)
	for i := range masses {
		masses[i] = randomMass(rng, f)
	}
	var acc, next Mass
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.CopyFrom(masses[0])
		for _, m := range masses[1:] {
			if _, err := CombineInto(&next, &acc, m); err != nil {
				b.Fatal(err)
			}
			acc, next = next, acc
		}
	}
}

func TestDiscount(t *testing.T) {
	f := MustFrame("A", "B", "C")
	a, _ := f.Hypothesis("A")
	m, d := NewMass(f), NewMass(f)
	if err := m.SetSimpleSupport(f, a, 0.8); err != nil {
		t.Fatal(err)
	}
	// alpha=1 is the identity.
	if err := DiscountInto(d, m, 1); err != nil {
		t.Fatal(err)
	}
	if got := d.Belief(a); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("DiscountInto(m,1) belief %g, want 0.8", got)
	}
	// alpha=0 is total ignorance.
	if err := DiscountInto(d, m, 0); err != nil {
		t.Fatal(err)
	}
	if got := d.Unknown(); math.Abs(got-1) > 1e-12 {
		t.Errorf("DiscountInto(m,0) unknown %g, want 1", got)
	}
	// Intermediate alpha scales belief and shifts the rest to Θ.
	if err := DiscountInto(d, m, 0.5); err != nil {
		t.Fatal(err)
	}
	if got := d.Belief(a); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("DiscountInto(m,0.5) belief %g, want 0.4", got)
	}
	if got := d.Unknown(); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("DiscountInto(m,0.5) unknown %g, want 0.6", got)
	}
	if err := d.Validate(1e-12); err != nil {
		t.Errorf("discounted mass invalid: %v", err)
	}
	for _, bad := range []float64{-0.1, 1.1, math.NaN()} {
		if err := DiscountInto(d, m, bad); err == nil {
			t.Errorf("DiscountInto with alpha %g should error", bad)
		}
	}
}

// TestDiscountMonotone: as alpha falls, belief never rises and unknown never
// falls — the graceful-degradation invariant staleness discounting rests on.
func TestDiscountMonotone(t *testing.T) {
	f := MustFrame("A", "B", "C")
	a, _ := f.Hypothesis("A")
	rng := rand.New(rand.NewSource(42))
	m := randomMass(rng, f)
	prevBel, prevUnk := m.Belief(a), m.Unknown()
	d := NewMass(f)
	for alpha := 0.95; alpha >= -0.001; alpha -= 0.05 {
		if err := DiscountInto(d, m, math.Max(alpha, 0)); err != nil {
			t.Fatal(err)
		}
		if b := d.Belief(a); b > prevBel+1e-12 {
			t.Fatalf("belief rose from %g to %g at alpha %g", prevBel, b, alpha)
		} else {
			prevBel = b
		}
		if u := d.Unknown(); u < prevUnk-1e-12 {
			t.Fatalf("unknown fell from %g to %g at alpha %g", prevUnk, u, alpha)
		} else {
			prevUnk = u
		}
	}
}

// TestLongChainStaysAMassFunction: a long evidence chain — simple-support
// reports alternating over a group's members, the way one DC's suite keeps
// re-asserting and contradicting itself, with Shafer discounts interleaved —
// leaves a mass function after every step: every mass in [0,1], the sum 1 to
// within 1e-9. CombineInto normalizes by the mass that survived, so what one step
// is off by is not multiplied into the next.
func TestLongChainStaysAMassFunction(t *testing.T) {
	f := MustFrame("a", "b", "c", "d", "other")
	rng := rand.New(rand.NewSource(22))
	acc, next, ev := VacuousMass(f), NewMass(f), NewMass(f)
	check := func(step int, what string) {
		t.Helper()
		var sum float64
		for _, s := range acc.FocalSets() {
			v := acc.Get(s)
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("step %d (%s): mass %g on %s outside [0,1]", step, what, v, f.Format(s))
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("step %d (%s): masses sum to 1%+.3g", step, what, sum-1)
		}
	}
	for step := 0; step < 20000; step++ {
		if err := ev.SetSimpleSupport(f, Singleton(step%4), 0.3+0.6*rng.Float64()); err != nil {
			t.Fatal(err)
		}
		if _, err := CombineInto(next, acc, ev); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		acc, next = next, acc
		check(step, "combine")
		if step%5 == 4 {
			if err := DiscountInto(next, acc, 0.5+0.5*rng.Float64()); err != nil {
				t.Fatal(err)
			}
			acc, next = next, acc
			check(step, "discount")
		}
	}
}

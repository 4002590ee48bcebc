package hazard

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// weibullSample draws n lifetimes from a Weibull(k, λ).
func weibullSample(rng *rand.Rand, k, lambda float64, n int) []Observation {
	out := make([]Observation, n)
	for i := range out {
		u := rng.Float64()
		out[i] = Observation{Time: lambda * math.Pow(-math.Log(1-u), 1/k)}
	}
	return out
}

func TestWeibullDistribution(t *testing.T) {
	w := Weibull{Shape: 2, Scale: 100}
	if w.CDF(0) != 0 || w.CDF(-5) != 0 {
		t.Error("CDF at origin")
	}
	// CDF(λ) = 1 - 1/e.
	if math.Abs(w.CDF(100)-(1-1/math.E)) > 1e-12 {
		t.Errorf("CDF(scale) = %g", w.CDF(100))
	}
	// Quantile inverts CDF.
	for _, p := range []float64{0.1, 0.5, 0.9} {
		q := w.Quantile(p)
		if math.Abs(w.CDF(q)-p) > 1e-9 {
			t.Errorf("CDF(Quantile(%g)) = %g", p, w.CDF(q))
		}
	}
	if w.Quantile(0) != 0 || !math.IsInf(w.Quantile(1), 1) {
		t.Error("quantile extremes")
	}
}

func TestFitWeibullRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, tc := range []struct{ k, lambda float64 }{
		{1.5, 500}, {3, 1000}, {0.8, 200},
	} {
		obs := weibullSample(rng, tc.k, tc.lambda, 2000)
		w, err := FitWeibull(obs)
		if err != nil {
			t.Fatalf("k=%g: %v", tc.k, err)
		}
		if math.Abs(w.Shape-tc.k)/tc.k > 0.15 {
			t.Errorf("k=%g: fitted shape %g", tc.k, w.Shape)
		}
		if math.Abs(w.Scale-tc.lambda)/tc.lambda > 0.15 {
			t.Errorf("λ=%g: fitted scale %g", tc.lambda, w.Scale)
		}
	}
}

func TestFitWeibullWithCensoring(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	obs := weibullSample(rng, 2, 1000, 400)
	// Right-censor at 1200: units alive at study end.
	for i := range obs {
		if obs[i].Time > 1200 {
			obs[i] = Observation{Time: 1200, Censored: true}
		}
	}
	w, err := FitWeibull(obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w.Shape-2)/2 > 0.2 {
		t.Errorf("censored fit shape %g, want ≈2", w.Shape)
	}
	if math.Abs(w.Scale-1000)/1000 > 0.2 {
		t.Errorf("censored fit scale %g, want ≈1000", w.Scale)
	}
}

func TestFitWeibullValidation(t *testing.T) {
	if _, err := FitWeibull(nil); err == nil {
		t.Error("empty sample")
	}
	if _, err := FitWeibull([]Observation{{Time: 1}, {Time: 2}}); err == nil {
		t.Error("too few failures")
	}
	if _, err := FitWeibull([]Observation{{Time: -1}, {Time: 2}, {Time: 3}}); err == nil {
		t.Error("negative time")
	}
	if _, err := FitWeibull([]Observation{
		{Time: 1, Censored: true}, {Time: 2, Censored: true},
		{Time: 3, Censored: true}, {Time: 4},
	}); err == nil {
		t.Error("fewer than 3 failures")
	}
	// Degenerate: all identical times still fits (k large) or errors
	// cleanly — must not panic or return NaN.
	w, err := FitWeibull([]Observation{{Time: 5}, {Time: 5}, {Time: 5}})
	if err == nil {
		if math.IsNaN(w.Shape) || math.IsNaN(w.Scale) {
			t.Error("NaN fit")
		}
	}
}

func TestKaplanMeier(t *testing.T) {
	// Classic hand-worked example: failures at 1,2,4; censored at 3.
	obs := []Observation{
		{Time: 1}, {Time: 2}, {Time: 3, Censored: true}, {Time: 4}, {Time: 5, Censored: true},
	}
	km, err := KaplanMeier(obs)
	if err != nil {
		t.Fatal(err)
	}
	if len(km) != 3 {
		t.Fatalf("%d points", len(km))
	}
	// S(1) = 4/5; S(2) = 4/5 * 3/4 = 3/5; S(4) = 3/5 * 1/2 = 3/10.
	want := []float64{0.8, 0.6, 0.3}
	for i, p := range km {
		if math.Abs(p.Survival-want[i]) > 1e-12 {
			t.Errorf("point %d survival %g, want %g", i, p.Survival, want[i])
		}
	}
	if km[0].AtRisk != 5 || km[1].AtRisk != 4 || km[2].AtRisk != 2 {
		t.Errorf("at-risk counts wrong: %+v", km)
	}
	// Step evaluation.
	if SurvivalAt(km, 0.5) != 1 {
		t.Error("S before first failure")
	}
	if math.Abs(SurvivalAt(km, 2.5)-0.6) > 1e-12 {
		t.Error("S mid")
	}
	if math.Abs(SurvivalAt(km, 100)-0.3) > 1e-12 {
		t.Error("S after last")
	}
	// Validation.
	if _, err := KaplanMeier(nil); err == nil {
		t.Error("empty")
	}
	if _, err := KaplanMeier([]Observation{{Time: -1}}); err == nil {
		t.Error("bad time")
	}
	if _, err := KaplanMeier([]Observation{{Time: 1, Censored: true}}); err == nil {
		t.Error("no failures")
	}
}

func TestKaplanMeierMatchesWeibull(t *testing.T) {
	// On a large uncensored Weibull sample, KM should track the true
	// survival function.
	rng := rand.New(rand.NewSource(8))
	w := Weibull{Shape: 2, Scale: 100}
	obs := weibullSample(rng, w.Shape, w.Scale, 2000)
	km, err := KaplanMeier(obs)
	if err != nil {
		t.Fatal(err)
	}
	for _, tq := range []float64{50, 100, 150} {
		got := SurvivalAt(km, tq)
		want := 1 - w.CDF(tq)
		if math.Abs(got-want) > 0.03 {
			t.Errorf("S(%g) = %g, true %g", tq, got, want)
		}
	}
}

func TestKaplanMeierMonotoneProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(100)
		obs := make([]Observation, n)
		hasFailure := false
		for i := range obs {
			obs[i] = Observation{Time: rng.Float64()*100 + 0.1, Censored: rng.Intn(3) == 0}
			if !obs[i].Censored {
				hasFailure = true
			}
		}
		km, err := KaplanMeier(obs)
		if err != nil {
			return !hasFailure
		}
		prev := 1.0
		for _, p := range km {
			if p.Survival > prev+1e-12 || p.Survival < 0 {
				return false
			}
			prev = p.Survival
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRefinePrognostic(t *testing.T) {
	w := Weibull{Shape: 3, Scale: 1000}
	horizons := []float64{100, 300, 600, 1000}
	v, err := RefinePrognostic(w, 500, horizons)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(v) != 4 {
		t.Fatalf("%d points", len(v))
	}
	// Conditioning raises failure probability versus a new unit: an aged
	// wear-out unit fails sooner.
	fresh, err := RefinePrognostic(w, 0, horizons)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if v[i].Probability <= fresh[i].Probability {
			t.Errorf("horizon %g: aged %g should exceed fresh %g",
				horizons[i], v[i].Probability, fresh[i].Probability)
		}
	}
	// Validation.
	if _, err := RefinePrognostic(w, -1, horizons); err == nil {
		t.Error("negative age")
	}
	if _, err := RefinePrognostic(w, 0, nil); err == nil {
		t.Error("no horizons")
	}
	if _, err := RefinePrognostic(w, 0, []float64{100, 50}); err == nil {
		t.Error("non-increasing horizons")
	}
	if _, err := RefinePrognostic(w, 0, []float64{-5}); err == nil {
		t.Error("negative horizon")
	}
	if _, err := RefinePrognostic(w, 1e9, horizons); err == nil {
		t.Error("age past all support")
	}
}

func BenchmarkFitWeibull500(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	obs := weibullSample(rng, 2, 1000, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitWeibull(obs); err != nil {
			b.Fatal(err)
		}
	}
}

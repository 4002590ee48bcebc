package pdme

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/hazard"
	"repro/internal/historian"
	"repro/internal/oosm"
	"repro/internal/relstore"
	"repro/internal/trend"
)

// TestSeverityHistorySurvivesRestart: with a disk-backed historian, a
// PDME restart (new model, new engine, same store directory) retains the
// severity history and the trend projection it feeds — the §4.6/§10.1
// durability the in-memory tracker could not provide.
func TestSeverityHistorySurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	start := time.Date(1998, 9, 1, 0, 0, 0, 0, time.UTC)

	newEngine := func() (*PDME, *historian.Store) {
		store, err := historian.Open(historian.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		model, err := oosm.NewModel(relstore.NewMemory())
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewWithHistorian(model, testGroups(), store)
		if err != nil {
			t.Fatal(err)
		}
		return p, store
	}

	p1, store1 := newEngine()
	for i := 0; i < 6; i++ {
		r := report("ks/dli", "motor/1", "motor imbalance", 0.2+0.05*float64(i), 0.8,
			start.Add(time.Duration(i)*4*time.Hour), nil)
		if err := p1.Deliver(r); err != nil {
			t.Fatal(err)
		}
	}
	p1.Close()
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	p2, store2 := newEngine()
	defer func() {
		p2.Close()
		store2.Close()
	}()
	h := p2.SeverityHistory("motor/1", "motor imbalance")
	if len(h) != 6 {
		t.Fatalf("restarted PDME sees %d observations, want 6", len(h))
	}
	// Two more reports continue the same series across the restart.
	for i := 6; i < 8; i++ {
		r := report("ks/dli", "motor/1", "motor imbalance", 0.2+0.05*float64(i), 0.8,
			start.Add(time.Duration(i)*4*time.Hour), nil)
		if err := p2.Deliver(r); err != nil {
			t.Fatal(err)
		}
	}
	proj, err := trend.ProjectPoints(p2.SeverityHistory("motor/1", "motor imbalance"), 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if !proj.Reaches {
		t.Fatal("rising severity should project a crossing")
	}
	want := start.Add(44 * time.Hour) // 0.75 = 0.20 + 0.05·k → k=11 tests
	if d := proj.Crossing.Sub(want); math.Abs(d.Hours()) > 1 {
		t.Errorf("crossing %v, want %v (Δ %v)", proj.Crossing, want, d)
	}
	if rolls := p2.SeverityRollups("motor/1", "motor imbalance"); len(rolls) == 0 {
		t.Error("no severity rollups after restart")
	}
}

// TestLifetimeArchiveBacksHazardFit: lifetimes recorded through the PDME
// accumulate in the historian and fit back to the generating Weibull —
// hazard refinement driven by stored history, not hand-built lists.
func TestLifetimeArchiveBacksHazardFit(t *testing.T) {
	p := newTestPDME(t)
	defer p.Close()
	truth := hazard.Weibull{Shape: 2.5, Scale: 4000}
	rng := rand.New(rand.NewSource(5))
	at := time.Date(1997, 1, 1, 0, 0, 0, 0, time.UTC)
	const cond = "motor bearing outer race defect"
	failures, censored := 0, 0
	for i := 0; i < 400; i++ {
		life := truth.Quantile(rng.Float64())
		at = at.Add(13 * time.Hour)
		if life > 6000 { // observation window truncation
			if err := p.RecordLifetime(cond, at, 6000, true); err != nil {
				t.Fatal(err)
			}
			censored++
		} else {
			if err := p.RecordLifetime(cond, at, life, false); err != nil {
				t.Fatal(err)
			}
			failures++
		}
	}
	obs, err := p.LifetimeObservations(cond)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 400 {
		t.Fatalf("archive holds %d observations, want 400", len(obs))
	}
	gotFail := 0
	for _, o := range obs {
		if !o.Censored {
			gotFail++
		}
	}
	if gotFail != failures {
		t.Fatalf("archive holds %d failures, recorded %d", gotFail, failures)
	}
	fit, err := p.FitLifeDistribution(cond)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Shape-truth.Shape) > 0.5 || math.Abs(fit.Scale-truth.Scale)/truth.Scale > 0.1 {
		t.Fatalf("fit Weibull(k=%.2f, λ=%.0f), truth Weibull(k=%.1f, λ=%.0f)",
			fit.Shape, fit.Scale, truth.Shape, truth.Scale)
	}
	vec, err := p.RefinePrognosticFromHistory(cond, 3000, []float64{500, 1000, 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(vec) != 3 {
		t.Fatalf("vector %v", vec)
	}
	for i := 1; i < len(vec); i++ {
		if vec[i].Probability < vec[i-1].Probability {
			t.Fatalf("non-monotone refined vector %v", vec)
		}
	}
	// An aged unit must be likelier to fail soon than a young one.
	young, err := p.RefinePrognosticFromHistory(cond, 100, []float64{1000})
	if err != nil {
		t.Fatal(err)
	}
	old, err := p.RefinePrognosticFromHistory(cond, 4000, []float64{1000})
	if err != nil {
		t.Fatal(err)
	}
	if old[0].Probability <= young[0].Probability {
		t.Fatalf("age conditioning inverted: young %.3f, old %.3f",
			young[0].Probability, old[0].Probability)
	}
}

func TestRecordLifetimeValidation(t *testing.T) {
	p := newTestPDME(t)
	defer p.Close()
	at := time.Date(1998, 1, 1, 0, 0, 0, 0, time.UTC)
	if err := p.RecordLifetime("", at, 100, false); err == nil {
		t.Error("empty condition accepted")
	}
	if err := p.RecordLifetime("oil whirl", at, 0, false); err == nil {
		t.Error("zero lifetime accepted")
	}
	if _, err := p.LifetimeObservations("oil whirl"); err == nil {
		t.Error("empty archive should error")
	}
	if _, err := p.FitLifeDistribution("oil whirl"); err == nil {
		t.Error("fit over empty archive should error")
	}
}

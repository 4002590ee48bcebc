package pdme

import (
	"math"
	"testing"
	"time"

	"repro/internal/trend"
)

// TestTrendProjectionOnDevelopingFault exercises the §10.1 temporal
// reasoning: a fault whose reported severity rises steadily is projected to
// reach the Extreme grade at the right time.
func TestTrendProjectionOnDevelopingFault(t *testing.T) {
	p := newTestPDME(t)
	defer p.Close()
	start := time.Date(1998, 9, 1, 0, 0, 0, 0, time.UTC)
	// Severity grows 0.05 per 4-hour test: 0.20, 0.25, ... 0.55 over 8
	// reports.
	for i := 0; i < 8; i++ {
		sev := 0.20 + 0.05*float64(i)
		r := report("ks/dli", "motor/1", "motor imbalance", sev, 0.8,
			start.Add(time.Duration(i)*4*time.Hour), nil)
		if err := p.Deliver(r); err != nil {
			t.Fatal(err)
		}
	}
	proj, err := trend.ProjectPoints(p.SeverityHistory("motor/1", "motor imbalance"), 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if !proj.Reaches {
		t.Fatal("rising severity should project a crossing")
	}
	// 0.75 = 0.20 + 0.05·k → k = 11 tests → 44 hours after start.
	want := start.Add(44 * time.Hour)
	if d := proj.Crossing.Sub(want); math.Abs(d.Hours()) > 1 {
		t.Errorf("crossing %v, want %v (Δ %v)", proj.Crossing, want, d)
	}
	// History is retrievable.
	if h := p.SeverityHistory("motor/1", "motor imbalance"); len(h) != 8 {
		t.Errorf("history %d", len(h))
	}
	// Too few observations for another pair.
	if err := p.Deliver(report("ks", "motor/1", "oil whirl", 0.3, 0.5, start, nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := trend.ProjectPoints(p.SeverityHistory("motor/1", "oil whirl"), 0.75); err == nil {
		t.Error("one observation should not fit")
	}
}

func TestTrendProjectionStableFaultDoesNotCross(t *testing.T) {
	p := newTestPDME(t)
	defer p.Close()
	start := time.Date(1998, 9, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 6; i++ {
		r := report("ks/dli", "motor/1", "motor imbalance", 0.35, 0.8,
			start.Add(time.Duration(i)*4*time.Hour), nil)
		if err := p.Deliver(r); err != nil {
			t.Fatal(err)
		}
	}
	proj, err := trend.ProjectPoints(p.SeverityHistory("motor/1", "motor imbalance"), 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if proj.Reaches {
		t.Errorf("stable severity projected a crossing at %v", proj.Crossing)
	}
}

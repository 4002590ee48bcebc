package pdme

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/historian"
	"repro/internal/oosm"
	"repro/internal/relstore"
	"repro/internal/trend"
)

// TestSeverityHistorySurvivesRestart: with a disk-backed historian, a
// PDME restart (new model, new engine, same store directory) retains the
// severity history, the daily rollups folded from it and the trend
// projection it feeds — the §4.6/§10.1 durability the in-memory tracker
// could not provide.
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
	// Out of order within one day: the day's severity sum in arrival order
	// differs in its last bit from the sum in time order.
	for _, i := range []int{5, 2, 0, 4, 1, 3} {
		r := report("ks/dli", "motor/1", "motor imbalance", 0.2+0.05*float64(i), 0.8,
			start.Add(time.Duration(i)*4*time.Hour), nil)
		if err := p1.Deliver(r); err != nil {
			t.Fatal(err)
		}
	}
	before := p1.SeverityRollups("motor/1", "motor imbalance")
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
	if after := p2.SeverityRollups("motor/1", "motor imbalance"); len(before) != 1 || !reflect.DeepEqual(after, before) {
		t.Fatalf("severity rollups %+v before the restart, %+v after; want one day, the same", before, after)
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

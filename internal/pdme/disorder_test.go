package pdme

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/trend"
)

// §5.1: "The knowledge fusion components must be able to accommodate inputs
// which are incomplete, time-disordered, fragmentary, and which have gaps,
// inconsistencies, and contradictions."

// TestTimeDisorderedReports delivers the same report set in timestamp order
// and in shuffled order: fused beliefs are identical (Dempster combination
// is commutative) and the trend projection still fits correctly (the
// fitter orders by timestamp, not arrival).
func TestTimeDisorderedReports(t *testing.T) {
	start := time.Date(1998, 9, 1, 0, 0, 0, 0, time.UTC)
	build := func() []*proto.Report {
		var reports []*proto.Report
		for i := 0; i < 10; i++ {
			reports = append(reports, report("ks", "motor/1", "motor imbalance",
				0.2+0.05*float64(i), 0.4, start.Add(time.Duration(i)*4*time.Hour), nil))
		}
		return reports
	}
	run := func(shuffleSeed int64) (float64, time.Time) {
		p := newTestPDME(t)
		defer p.Close()
		reports := build()
		if shuffleSeed != 0 {
			rng := rand.New(rand.NewSource(shuffleSeed))
			rng.Shuffle(len(reports), func(i, j int) {
				reports[i], reports[j] = reports[j], reports[i]
			})
		}
		for _, r := range reports {
			if err := p.Deliver(r); err != nil {
				t.Fatal(err)
			}
		}
		b, err := p.Belief("motor/1", "motor imbalance")
		if err != nil {
			t.Fatal(err)
		}
		proj, err := trend.ProjectPoints(p.SeverityHistory("motor/1", "motor imbalance"), 0.9)
		if err != nil {
			t.Fatal(err)
		}
		if !proj.Reaches {
			t.Fatal("rising trend should project")
		}
		return b, proj.Crossing
	}
	bOrdered, crossOrdered := run(0)
	for _, seed := range []int64{1, 2, 3} {
		bShuffled, crossShuffled := run(seed)
		if math.Abs(bOrdered-bShuffled) > 1e-12 {
			t.Errorf("seed %d: fused belief differs: %g vs %g", seed, bOrdered, bShuffled)
		}
		if d := crossOrdered.Sub(crossShuffled); math.Abs(d.Seconds()) > 1 {
			t.Errorf("seed %d: trend crossing differs by %v", seed, d)
		}
	}
}

// TestFragmentaryReports delivers reports with every optional field absent:
// no prognostics, no explanation, no recommendations, no DC id. Fusion must
// accept them.
func TestFragmentaryReports(t *testing.T) {
	p := newTestPDME(t)
	defer p.Close()
	r := &proto.Report{
		KnowledgeSourceID:  "ks",
		SensedObjectID:     "motor/1",
		MachineConditionID: "motor imbalance",
		Severity:           0.5,
		Belief:             0.5,
		Timestamp:          time.Now(),
	}
	if err := p.Deliver(r); err != nil {
		t.Fatal(err)
	}
	b, err := p.Belief("motor/1", "motor imbalance")
	if err != nil || math.Abs(b-0.5) > 1e-12 {
		t.Errorf("fragmentary report fused wrong: %g %v", b, err)
	}
	if v := p.FusedPrognostic("motor/1", "motor imbalance"); len(v) != 0 {
		t.Errorf("no prognostic was sent, got %v", v)
	}
}

// TestContradictoryReports: two sources flatly contradict each other within
// a group; fusion keeps both suppressed and the unknown mass reflects the
// contradiction instead of picking a winner arbitrarily.
func TestContradictoryReports(t *testing.T) {
	p := newTestPDME(t)
	defer p.Close()
	at := time.Now()
	if err := p.Deliver(report("ks/a", "m", "motor imbalance", 0.5, 0.9, at, nil)); err != nil {
		t.Fatal(err)
	}
	if err := p.Deliver(report("ks/b", "m", "motor misalignment", 0.5, 0.9, at, nil)); err != nil {
		t.Fatal(err)
	}
	bi, _ := p.Belief("m", "motor imbalance")
	bm, _ := p.Belief("m", "motor misalignment")
	if math.Abs(bi-bm) > 1e-9 {
		t.Errorf("symmetric contradiction resolved asymmetrically: %g vs %g", bi, bm)
	}
	if bi > 0.6 {
		t.Errorf("contradicted belief too confident: %g", bi)
	}
}

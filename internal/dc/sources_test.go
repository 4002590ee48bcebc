package dc

import (
	"testing"
	"time"

	"repro/internal/chiller"
	"repro/internal/wnn"
)

func newSBFRDC(t testing.TB, faults map[chiller.Fault]float64) (*DC, *collector) {
	t.Helper()
	cfg := chiller.DefaultConfig()
	cfg.Seed = 77
	plant, err := chiller.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for f, s := range faults {
		if err := plant.SetFault(f, s); err != nil {
			t.Fatal(err)
		}
	}
	sink := &collector{}
	dcCfg := DefaultConfig("dc-sbfr", "chiller/1")
	dcCfg.EnableSBFR = true
	d, err := New(dcCfg, plant, nil, sink)
	if err != nil {
		t.Fatal(err)
	}
	return d, sink
}

// sbfrScanRun is how long the SBFR tests run: 61 scans at
// DefaultSBFRInterval.
const sbfrScanRun = 60 * DefaultSBFRInterval

func TestSBFRScanFlagsOilPressureDrop(t *testing.T) {
	d, sink := newSBFRDC(t, map[chiller.Fault]float64{chiller.OilWhirl: 0.9})
	if err := d.RunFor(sbfrScanRun); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range sink.byCondition(chiller.OilWhirl.String()) {
		if r.KnowledgeSourceID == "ks/sbfr" {
			found = true
			if err := r.Validate(); err != nil {
				t.Error(err)
			}
		}
	}
	if !found {
		t.Fatal("SBFR monitor did not report persistent oil pressure drop")
	}
}

func TestSBFRScanFlagsSuctionDrop(t *testing.T) {
	d, sink := newSBFRDC(t, map[chiller.Fault]float64{chiller.RefrigerantLowCharge: 0.9})
	if err := d.RunFor(sbfrScanRun); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range sink.byCondition(chiller.RefrigerantLowCharge.String()) {
		if r.KnowledgeSourceID == "ks/sbfr" {
			found = true
		}
	}
	if !found {
		t.Fatal("SBFR monitor did not report persistent suction drop")
	}
	// The fuzzy source reports the same condition from the same telemetry —
	// the overlapping-expertise situation KF exists for (§1.1).
	fuzzySaw := false
	for _, r := range sink.byCondition(chiller.RefrigerantLowCharge.String()) {
		if r.KnowledgeSourceID == "ks/fuzzy" {
			fuzzySaw = true
		}
	}
	if !fuzzySaw {
		t.Error("fuzzy source should also report low charge (overlapping sources)")
	}
}

func TestSBFRScanQuietWhenHealthy(t *testing.T) {
	d, sink := newSBFRDC(t, nil)
	if err := d.RunFor(2 * sbfrScanRun); err != nil {
		t.Fatal(err)
	}
	for _, r := range sink.reports {
		if r.KnowledgeSourceID == "ks/sbfr" {
			t.Fatalf("healthy plant produced SBFR report: %+v", r)
		}
	}
}

func TestSBFRScanWithoutEnableErrors(t *testing.T) {
	d, _, _ := newTestDC(t, nil)
	if err := d.RunSBFRScan(time.Now()); err == nil {
		t.Fatal("RunSBFRScan without EnableSBFR should error")
	}
}

func TestWNNSourceReports(t *testing.T) {
	if testing.Short() {
		t.Skip("WNN training is slow")
	}
	cfg := chiller.DefaultConfig()
	cfg.Seed = 88
	plant, err := chiller.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := plant.SetFault(chiller.MotorBearingOuter, 0.8); err != nil {
		t.Fatal(err)
	}
	sink := &collector{}
	dcCfg := DefaultConfig("dc-wnn", "chiller/1")
	dcCfg.FrameLen = 4096 // classifier training cost scales with frames
	d, err := New(dcCfg, plant, nil, sink)
	if err != nil {
		t.Fatal(err)
	}
	clf, err := wnn.NewChillerClassifier(cfg, 4096, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AttachWNN(clf); err != nil {
		t.Fatal(err)
	}
	// Frame-length mismatch is rejected.
	clfBig, err := wnn.NewChillerClassifier(cfg, 2048, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AttachWNN(clfBig); err == nil {
		t.Error("mismatched frame length accepted")
	}
	if err := d.AttachWNN(nil); err == nil {
		t.Error("nil classifier accepted")
	}

	if err := d.RunFor(12 * time.Hour); err != nil {
		t.Fatal(err)
	}
	wnnReports := 0
	for _, r := range sink.byCondition(chiller.MotorBearingOuter.String()) {
		if r.KnowledgeSourceID == "ks/wnn" {
			wnnReports++
			if err := r.Validate(); err != nil {
				t.Error(err)
			}
		}
	}
	if wnnReports == 0 {
		t.Fatal("WNN source produced no reports for a strong bearing fault")
	}
	// The DLI source reports the same condition: reinforcing sources.
	dliReports := 0
	for _, r := range sink.byCondition(chiller.MotorBearingOuter.String()) {
		if r.KnowledgeSourceID == "ks/dli" {
			dliReports++
		}
	}
	if dliReports == 0 {
		t.Error("DLI source missing — reinforcement scenario incomplete")
	}
}

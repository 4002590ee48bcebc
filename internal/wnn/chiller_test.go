package wnn

import (
	"slices"
	"testing"

	"repro/internal/chiller"
)

func TestChillerClassifierValidation(t *testing.T) {
	cfg := chiller.DefaultConfig()
	if _, err := NewChillerClassifier(cfg, 100, 12, 1); err == nil {
		t.Error("short frames accepted")
	}
	if _, err := NewChillerClassifier(cfg, 4096, 2, 1); err == nil {
		t.Error("tiny corpus accepted")
	}
	bad := cfg
	bad.SampleRate = 0
	if _, err := NewChillerClassifier(bad, 4096, 12, 1); err == nil {
		t.Error("invalid plant config accepted")
	}
}

func TestChillerClassifierEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("training is slow")
	}
	cfg := chiller.DefaultConfig()
	clf, err := NewChillerClassifier(cfg, 4096, 12, 9)
	if err != nil {
		t.Fatal(err)
	}
	if clf.FrameLen() != 4096 {
		t.Error("frame length")
	}
	if len(clf.nets) != 4 {
		t.Errorf("%d points instrumented, want 4", len(clf.nets))
	}
	// Frame-length mismatch.
	if _, err := clf.Classify(make([]float64, 128), chiller.MotorDE); err == nil {
		t.Error("short frame accepted")
	}

	score := func(fault chiller.Fault, pt chiller.MeasurementPoint, sev float64) (correct, total int) {
		for k := 0; k < 8; k++ {
			pc := cfg
			pc.Seed = int64(40000 + k)
			plant, err := chiller.New(pc)
			if err != nil {
				t.Fatal(err)
			}
			if sev > 0 {
				if err := plant.SetFault(fault, sev); err != nil {
					t.Fatal(err)
				}
			}
			frame, err := plant.AcquireVibration(pt, 4096)
			if err != nil {
				t.Fatal(err)
			}
			cls, err := clf.Classify(frame, pt)
			if err != nil {
				t.Fatal(err)
			}
			// The pooled workspace has seen other points' and faults'
			// frames; its features must still equal a fresh one-shot's.
			got, err := clf.features(frame)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Extract(frame, DefaultFeatureConfig())
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%v at %v: pooled features %v != one-shot %v", fault, pt, got, want)
			}
			total++
			if sev == 0 && cls.Healthy {
				correct++
			}
			if sev > 0 && !cls.Healthy && cls.Fault == fault {
				correct++
			}
		}
		return correct, total
	}
	type tc struct {
		fault chiller.Fault
		pt    chiller.MeasurementPoint
		sev   float64
	}
	cases := []tc{
		{chiller.MotorImbalance, chiller.MotorDE, 0.8},
		{chiller.MotorBearingOuter, chiller.MotorDE, 0.8},
		{chiller.GearToothWear, chiller.GearBox, 0.8},
		{chiller.OilWhirl, chiller.Compressor, 0.8},
		{chiller.MotorImbalance, chiller.MotorDE, 0}, // healthy at MotorDE
	}
	for _, c := range cases {
		correct, total := score(c.fault, c.pt, c.sev)
		if float64(correct)/float64(total) < 0.75 {
			t.Errorf("%v sev=%.1f at %v: %d/%d correct", c.fault, c.sev, c.pt, correct, total)
		}
	}
}

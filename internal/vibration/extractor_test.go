package vibration

import (
	"testing"

	"repro/internal/chiller"
	"repro/internal/dsp"
)

func acquireFrame(t testing.TB, n int) ([]float64, chiller.Config) {
	t.Helper()
	cfg := chiller.DefaultConfig()
	cfg.Seed = 11
	p, err := chiller.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetFault(chiller.MotorImbalance, 0.7); err != nil {
		t.Fatal(err)
	}
	frame, err := p.AcquireVibration(chiller.MotorDE, n)
	if err != nil {
		t.Fatal(err)
	}
	return frame, cfg
}

// TestExtractIntoMatchesExtract guards extractor reuse, directly and through
// the shared pool: frames from different points, faults and plants fed in
// interleaved order must each yield bit for bit what a fresh one-shot
// Extract yields — no spectrum or plant configuration of the previous
// borrower survives.
func TestExtractIntoMatchesExtract(t *testing.T) {
	type sample struct {
		frame []float64
		cfg   chiller.Config
		pt    chiller.MeasurementPoint
	}
	acquire := func(seed int64, rpm float64, fault chiller.Fault, pt chiller.MeasurementPoint, n int) sample {
		cfg := chiller.DefaultConfig()
		cfg.Seed, cfg.MotorRPM = seed, rpm
		p, err := chiller.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.SetFault(fault, 0.7); err != nil {
			t.Fatal(err)
		}
		frame, err := p.AcquireVibration(pt, n)
		if err != nil {
			t.Fatal(err)
		}
		return sample{frame: frame, cfg: cfg, pt: pt}
	}
	samples := []sample{
		acquire(11, 1780, chiller.MotorImbalance, chiller.MotorDE, 4096),
		acquire(11, 1780, chiller.OilWhirl, chiller.Compressor, 4096),
		acquire(13, 1750, chiller.GearToothWear, chiller.GearBox, 4096),
		acquire(14, 1780, chiller.MotorBearingOuter, chiller.MotorDE, 2048),
	}
	order := []int{0, 1, 2, 0, 3, 1, 3, 2}

	e, err := NewExtractor(samples[0].cfg, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if e.FrameLen() != 4096 {
		t.Fatalf("FrameLen = %d, want 4096", e.FrameLen())
	}
	var got Features
	for step, si := range order {
		s := samples[si]
		want, err := Extract(s.frame, s.cfg, s.pt)
		if err != nil {
			t.Fatal(err)
		}
		// One plant's extractor, reused across its points (samples 0, 1).
		if s.cfg == samples[0].cfg {
			if err := e.ExtractInto(&got, s.frame, dsp.Waveform(s.frame), s.pt); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if got != *want {
				t.Fatalf("step %d: reused ExtractInto differs from Extract:\ngot  %+v\nwant %+v", step, got, *want)
			}
		}
		// The pool, across plants and frame lengths.
		pe, err := AcquireExtractor(s.cfg, len(s.frame))
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := pe.ExtractInto(&got, s.frame, dsp.Waveform(s.frame), s.pt); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		pe.Release()
		if got != *want {
			t.Fatalf("step %d: pooled ExtractInto differs from Extract:\ngot  %+v\nwant %+v", step, got, *want)
		}
	}
}

func TestExtractorRejects(t *testing.T) {
	cfg := chiller.DefaultConfig()
	if _, err := NewExtractor(cfg, 512); err == nil {
		t.Error("too-short frame length accepted")
	}
	e, err := NewExtractor(cfg, 2048)
	if err != nil {
		t.Fatal(err)
	}
	var f Features
	if err := e.ExtractInto(&f, make([]float64, 1024), dsp.WaveformStats{}, chiller.MotorDE); err == nil {
		t.Error("wrong-length frame accepted")
	}
}

// TestExtractIntoZeroAlloc is the hot-path budget for the per-point feature
// extraction on the scheduled vibration test: zero heap allocations.
func TestExtractIntoZeroAlloc(t *testing.T) {
	frame, cfg := acquireFrame(t, 4096)
	e, err := NewExtractor(cfg, len(frame))
	if err != nil {
		t.Fatal(err)
	}
	var f Features
	st := dsp.Waveform(frame)
	allocs := testing.AllocsPerRun(20, func() {
		if err := e.ExtractInto(&f, frame, st, chiller.MotorDE); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ExtractInto allocates %.1f times per point, want 0", allocs)
	}
}

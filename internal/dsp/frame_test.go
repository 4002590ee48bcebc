package dsp

import (
	"math"
	"testing"
)

func frameTestSignal(n int, rate float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		t := float64(i) / rate
		x[i] = 1.5*math.Sin(2*math.Pi*60*t) + 0.4*math.Sin(2*math.Pi*247.5*t+0.3) + 0.05*math.Cos(2*math.Pi*1833*t)
	}
	return x
}

// TestFrameAnalyzerMatchesAnalyzeFrame guards analyzer reuse: one analyzer
// fed different frames in interleaved order must return, for each, bit for
// bit what a fresh one-shot AnalyzeFrame returns — nothing of the previous
// frame survives in the bin buffer, the zero padding, or the spectrum.
func TestFrameAnalyzerMatchesAnalyzeFrame(t *testing.T) {
	const rate = 8192.0
	for _, n := range []int{1024, 3000, 4096} {
		impulse := make([]float64, n)
		impulse[n/3] = 7
		frames := [][]float64{
			frameTestSignal(n, rate),
			make([]float64, n), // silence right after a loud frame
			impulse,
			sine(n, rate, 1000.5, 0.2),
		}
		fa, err := NewFrameAnalyzer(n, rate, Hann)
		if err != nil {
			t.Fatalf("n=%d: NewFrameAnalyzer: %v", n, err)
		}
		for step, fi := range []int{0, 1, 2, 0, 3, 3, 1, 0} {
			x := frames[fi]
			want, err := AnalyzeFrame(x, rate, Hann)
			if err != nil {
				t.Fatalf("n=%d: AnalyzeFrame: %v", n, err)
			}
			got, err := fa.Analyze(x)
			if err != nil {
				t.Fatalf("n=%d step %d: Analyze: %v", n, step, err)
			}
			if got.SampleRate != want.SampleRate || got.Resolution != want.Resolution {
				t.Fatalf("n=%d: header mismatch: got (%g, %g), want (%g, %g)",
					n, got.SampleRate, got.Resolution, want.SampleRate, want.Resolution)
			}
			if len(got.Amp) != len(want.Amp) {
				t.Fatalf("n=%d: %d bins, want %d", n, len(got.Amp), len(want.Amp))
			}
			for i := range want.Amp {
				if got.Amp[i] != want.Amp[i] {
					t.Fatalf("n=%d step %d (frame %d) bin %d: %v != %v",
						n, step, fi, i, got.Amp[i], want.Amp[i])
				}
			}
		}
	}
}

func TestFrameAnalyzerRejects(t *testing.T) {
	if _, err := NewFrameAnalyzer(0, 8192, Hann); err == nil {
		t.Error("zero frame length accepted")
	}
	if _, err := NewFrameAnalyzer(1024, 0, Hann); err == nil {
		t.Error("zero sample rate accepted")
	}
	fa, err := NewFrameAnalyzer(1024, 8192, Hann)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fa.Analyze(make([]float64, 512)); err == nil {
		t.Error("wrong-length frame accepted")
	}
}

// TestFrameAnalyzerZeroAlloc is the hot-path budget for the per-frame
// spectral analysis: zero heap allocations per Analyze call.
func TestFrameAnalyzerZeroAlloc(t *testing.T) {
	const rate = 8192.0
	x := frameTestSignal(4096, rate)
	fa, err := NewFrameAnalyzer(len(x), rate, Hann)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := fa.Analyze(x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Analyze allocates %.1f times per frame, want 0", allocs)
	}
}

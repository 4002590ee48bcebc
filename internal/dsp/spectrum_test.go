package dsp

import (
	"math"
	"testing"
)

// sine builds n samples of amplitude*sin(2π f t) at rate fs.
func sine(n int, fs, f, amplitude float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = amplitude * math.Sin(2*math.Pi*f*float64(i)/fs)
	}
	return out
}

func TestAnalyzeFrameToneAmplitude(t *testing.T) {
	// A 100 Hz tone of amplitude 2.0 must be recovered within a few percent
	// across windows when the tone is bin-centred.
	const fs = 1024.0
	const n = 1024
	x := sine(n, fs, 100, 2.0)
	for _, w := range []WindowKind{Rectangular, Hann, Hamming, Blackman} {
		s, err := AnalyzeFrame(x, fs, w)
		if err != nil {
			t.Fatal(err)
		}
		got := s.AmpAt(100, 2)
		if math.Abs(got-2.0) > 0.05 {
			t.Errorf("window %v: amplitude %g, want ≈2.0", w, got)
		}
	}
}

func TestAnalyzeFrameResolution(t *testing.T) {
	const fs = 2048.0
	x := sine(4096, fs, 250, 1)
	s, err := AnalyzeFrame(x, fs, Hann)
	if err != nil {
		t.Fatal(err)
	}
	if s.Resolution != fs/4096 {
		t.Fatalf("resolution %g, want %g", s.Resolution, fs/4096)
	}
	if len(s.Amp) != 4096/2+1 {
		t.Fatalf("bins %d, want %d", len(s.Amp), 4096/2+1)
	}
}

func TestAnalyzeFrameRejectsBadInput(t *testing.T) {
	if _, err := AnalyzeFrame(nil, 1000, Hann); err == nil {
		t.Error("want error for empty frame")
	}
	if _, err := AnalyzeFrame([]float64{1, 2}, 0, Hann); err == nil {
		t.Error("want error for zero sample rate")
	}
	if _, err := AnalyzeFrame([]float64{1, 2}, -5, Hann); err == nil {
		t.Error("want error for negative sample rate")
	}
}

func TestSpectrumBinClamping(t *testing.T) {
	s := &Spectrum{SampleRate: 1000, Resolution: 1, Amp: make([]float64, 501)}
	if s.Bin(-10) != 0 {
		t.Error("negative frequency should clamp to 0")
	}
	if s.Bin(1e9) != 500 {
		t.Error("huge frequency should clamp to last bin")
	}
	if s.Bin(250.4) != 250 {
		t.Error("rounding down failed")
	}
	if s.Bin(250.6) != 251 {
		t.Error("rounding up failed")
	}
}

func TestTwoTonesSeparated(t *testing.T) {
	const fs = 8192.0
	x := make([]float64, 8192)
	for i := range x {
		ti := float64(i) / fs
		x[i] = 1.0*math.Sin(2*math.Pi*60*ti) + 0.5*math.Sin(2*math.Pi*120*ti)
	}
	s, err := AnalyzeFrame(x, fs, Hann)
	if err != nil {
		t.Fatal(err)
	}
	if a := s.AmpAt(60, 2); math.Abs(a-1.0) > 0.05 {
		t.Errorf("60 Hz amp %g, want 1.0", a)
	}
	if a := s.AmpAt(120, 2); math.Abs(a-0.5) > 0.05 {
		t.Errorf("120 Hz amp %g, want 0.5", a)
	}
	if a := s.AmpAt(90, 2); a > 0.05 {
		t.Errorf("90 Hz amp %g, want ≈0", a)
	}
}

func TestWindowProperties(t *testing.T) {
	for _, kind := range []WindowKind{Rectangular, Hann, Hamming, Blackman, FlatTop} {
		w := Window(kind, 128)
		if len(w) != 128 {
			t.Fatalf("%v: wrong length", kind)
		}
		// Symmetry.
		for i := range w {
			j := len(w) - 1 - i
			if math.Abs(w[i]-w[j]) > 1e-9 {
				t.Fatalf("%v: asymmetric at %d (%g vs %g)", kind, i, w[i], w[j])
			}
		}
	}
	// Hann endpoints are 0, midpoint is 1.
	h := Window(Hann, 129)
	if math.Abs(h[0]) > 1e-12 || math.Abs(h[128]) > 1e-12 {
		t.Error("hann endpoints should be 0")
	}
	if math.Abs(h[64]-1) > 1e-12 {
		t.Error("hann midpoint should be 1")
	}
	if Window(Hann, 1)[0] != 1 {
		t.Error("length-1 window should be 1")
	}
}

func TestWindowString(t *testing.T) {
	names := map[WindowKind]string{
		Rectangular: "rectangular", Hann: "hann", Hamming: "hamming",
		Blackman: "blackman", FlatTop: "flattop", WindowKind(99): "unknown",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

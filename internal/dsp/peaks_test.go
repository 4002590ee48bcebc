package dsp

import (
	"math"
	"testing"
)

func multiTone(n int, fs float64, freqs, amps []float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		ti := float64(i) / fs
		for j, f := range freqs {
			out[i] += amps[j] * math.Sin(2*math.Pi*f*ti)
		}
	}
	return out
}

func TestSidebandEnergy(t *testing.T) {
	const fs = 16384.0
	// Carrier at 1000 Hz with ±25 Hz sideband pairs (two orders).
	x := multiTone(16384, fs,
		[]float64{1000, 975, 1025, 950, 1050},
		[]float64{1.0, 0.3, 0.3, 0.15, 0.15})
	s, err := AnalyzeFrame(x, fs, Hann)
	if err != nil {
		t.Fatal(err)
	}
	e := SidebandEnergy(s, 1000, 25, 2, 2)
	want := 0.3 + 0.3 + 0.15 + 0.15
	if math.Abs(e-want) > 0.08 {
		t.Errorf("sideband energy %g, want ≈%g", e, want)
	}
	// A clean carrier has near-zero sideband energy.
	clean := multiTone(16384, fs, []float64{1000}, []float64{1.0})
	s2, err := AnalyzeFrame(clean, fs, Hann)
	if err != nil {
		t.Fatal(err)
	}
	if e := SidebandEnergy(s2, 1000, 25, 2, 2); e > 0.05 {
		t.Errorf("clean carrier sideband energy %g, want ≈0", e)
	}
}

func TestCepstrumDetectsHarmonicFamily(t *testing.T) {
	const fs = 8192.0
	// Harmonic family at multiples of 64 Hz produces a cepstral peak at
	// quefrency 1/64 s = fs/64 samples = 128 samples.
	freqs := make([]float64, 10)
	amps := make([]float64, 10)
	for i := range freqs {
		freqs[i] = 64 * float64(i+1)
		amps[i] = 1
	}
	x := multiTone(8192, fs, freqs, amps)
	ceps, err := Cepstrum(x)
	if err != nil {
		t.Fatal(err)
	}
	q := int(fs / 64) // 128 samples
	// The rahmonic at q should dominate its neighbourhood.
	peak := ceps[q]
	for off := 20; off <= 60; off += 10 {
		if ceps[q+off] >= peak || ceps[q-off] >= peak {
			t.Fatalf("cepstral peak at %d (%g) not dominant vs offset %d", q, peak, off)
		}
	}
}

func TestCepstralCoefficients(t *testing.T) {
	x := sine(512, 1024, 100, 1)
	c, err := CepstralCoefficients(x, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(c) != 20 {
		t.Fatalf("got %d coefficients", len(c))
	}
	if _, err := Cepstrum(nil); err == nil {
		t.Error("want error on empty frame")
	}
	// k larger than frame clamps.
	c2, err := CepstralCoefficients(x, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(c2) != 511 {
		t.Fatalf("clamped length %d", len(c2))
	}
}

func TestDCT2(t *testing.T) {
	// DCT of a constant signal concentrates in coefficient 0.
	x := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	d := DCT2(x)
	if math.Abs(d[0]-8) > 1e-9 {
		t.Errorf("DC coefficient %g, want 8", d[0])
	}
	for i := 1; i < len(d); i++ {
		if math.Abs(d[i]) > 1e-9 {
			t.Errorf("coefficient %d = %g, want 0", i, d[i])
		}
	}
	c := DCT2Coefficients(x, 4)
	if len(c) != 4 || math.Abs(c[0]-1) > 1e-9 {
		t.Errorf("normalized coefficients %v", c)
	}
	if got := DCT2Coefficients(x, 100); len(got) != 8 {
		t.Errorf("clamp to frame length failed: %d", len(got))
	}
	if got := DCT2Coefficients(nil, 3); len(got) != 0 {
		t.Errorf("empty input: %v", got)
	}
}

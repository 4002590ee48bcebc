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
	q := int(fs / 64) // 128 samples
	// Coefficients q−60 … q+60, so ceps[60] is the rahmonic at q.
	ceps := cepstralOf(t, x, q-60, 121)
	// The rahmonic at q should dominate its neighbourhood.
	peak := ceps[60]
	for off := 20; off <= 60; off += 10 {
		if ceps[60+off] >= peak || ceps[60-off] >= peak {
			t.Fatalf("cepstral peak at %d (%g) not dominant vs offset %d", q, peak, off)
		}
	}
}

func TestCepstralCoefficients(t *testing.T) {
	x := sine(512, 1024, 100, 1)
	p, err := NewPlan(NextPow2(len(x)))
	if err != nil {
		t.Fatal(err)
	}
	bins := make([]complex128, p.Len()/2+1)
	if err := p.Cepstral(make([]float64, 20), bins, x, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Cepstral(make([]float64, 20), bins, nil, 1); err == nil {
		t.Error("want error on empty frame")
	}
	if err := p.Cepstral(nil, bins, x, 1); err != nil {
		t.Errorf("zero coefficients: %v", err)
	}
	// Coefficients 1…511 are all the padded length holds; one more is refused.
	if err := p.Cepstral(make([]float64, 511), bins, x, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Cepstral(make([]float64, 512), bins, x, 1); err == nil {
		t.Error("coefficients past the padded length accepted")
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
	c := make([]float64, 4)
	DCT2Into(c, x)
	if math.Abs(c[0]-1) > 1e-9 {
		t.Errorf("normalized coefficients %v", c)
	}
	// More coefficients than samples: each is still its cosine sum.
	long := make([]float64, 100)
	DCT2Into(long, x)
	for k, v := range long {
		if want := dct2Term(x, k) / 8; math.Abs(v-want) > 1e-9 {
			t.Errorf("coefficient %d of 8 samples = %g, want %g", k, v, want)
		}
	}
	empty := []float64{9, 9, 9}
	DCT2Into(empty, nil)
	if empty[0] != 0 || empty[1] != 0 || empty[2] != 0 {
		t.Errorf("empty input: %v", empty)
	}
}

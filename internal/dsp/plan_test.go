package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"
)

// The definitions the planned kernels are checked against live here, not in
// product code: the cepstrum as IFFT(log|FFT|), the DCT-II as its direct
// cosine sum.

// cepstrumByDefinition is IFFT(log|FFT(frame)|) on the zero-padded frame.
func cepstrumByDefinition(t *testing.T, frame []float64) []float64 {
	t.Helper()
	buf := ToComplex(ZeroPad(frame, NextPow2(len(frame))))
	if err := FFT(buf); err != nil {
		t.Fatal(err)
	}
	for i, c := range buf {
		buf[i] = complex(math.Log(math.Max(cmplx.Abs(c), cepstrumFloor)), 0)
	}
	if err := IFFT(buf); err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(buf))
	for i, c := range buf {
		out[i] = real(c)
	}
	return out
}

// cepstralOf is Plan.Cepstral on a fresh plan and bin buffer sized for
// frame: count coefficients starting at first.
func cepstralOf(t *testing.T, frame []float64, first, count int) []float64 {
	t.Helper()
	p, err := NewPlan(NextPow2(len(frame)))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, count)
	if err := p.Cepstral(out, make([]complex128, p.Len()/2+1), frame, first); err != nil {
		t.Fatal(err)
	}
	return out
}

// DCT2 computes the (unnormalized) type-II discrete cosine transform of x by
// its definition, O(n²).
func DCT2(x []float64) []float64 {
	n := len(x)
	out := make([]float64, n)
	for k := 0; k < n; k++ {
		out[k] = dct2Term(x, k)
	}
	return out
}

// dct2Term is Σ x[i]·cos(π/n·(i+½)·c), one math.Cos per sample.
func dct2Term(x []float64, c int) float64 {
	var sum float64
	w := math.Pi / float64(len(x)) * float64(c)
	for i, v := range x {
		sum += v * math.Cos(w*(float64(i)+0.5))
	}
	return sum
}

func noise(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func sumAbs(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += math.Abs(v)
	}
	return s
}

// TestRealTransformMatchesComplexTransform pins the real-input entry to the
// complex transform of the same (windowed, zero-padded) frame on bins
// 0…n/2, within 1e-12·Σ|x|, at every power of two up to the DC's frame and
// at frame lengths that need padding.
func TestRealTransformMatchesComplexTransform(t *testing.T) {
	lengths := []int{1, 3, 5, 6, 7, 100, 1000, 3000, 10000}
	for n := 2; n <= 16384; n <<= 1 {
		lengths = append(lengths, n)
	}
	for _, frameLen := range lengths {
		x := noise(frameLen, int64(frameLen))
		for _, window := range [][]float64{nil, Window(Hann, frameLen)} {
			n := NextPow2(frameLen)
			p, err := NewPlan(n)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]complex128, n/2+1)
			if err := p.RealTransform(got, x, window); err != nil {
				t.Fatalf("len %d: %v", frameLen, err)
			}
			tapered := slices.Clone(x)
			for i := range window {
				tapered[i] *= window[i]
			}
			want := ToComplex(ZeroPad(tapered, n))
			if err := FFT(want); err != nil {
				t.Fatal(err)
			}
			tol := 1e-12 * sumAbs(x)
			for b := range got {
				if d := cmplx.Abs(got[b] - want[b]); d > tol {
					t.Fatalf("len %d (window %v) bin %d: real-input %v, complex %v, off by %g > %g",
						frameLen, window != nil, b, got[b], want[b], d, tol)
				}
			}
		}
	}
}

// TestPlanTwiddlesMatchDirectEvaluation checks the table, of which only the
// first octant is evaluated and the rest reflected, against e^(−j2πk/n)
// evaluated entry by entry. The bound is the direct evaluation's own error:
// its angle 2πk/n carries half an ulp of a number near π.
func TestPlanTwiddlesMatchDirectEvaluation(t *testing.T) {
	for n := 1; n <= 4096; n <<= 1 {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.tw) != n/2 {
			t.Fatalf("n=%d: table of %d entries, want %d", n, len(p.tw), n/2)
		}
		for k, w := range p.tw {
			want := cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(n)))
			if cmplx.Abs(w-want) > 5e-16 {
				t.Errorf("n=%d: twiddle %d = %v, want %v", n, k, w, want)
			}
		}
	}
}

func TestPlanRejects(t *testing.T) {
	for _, n := range []int{0, -4, 3, 100} {
		if _, err := NewPlan(n); err == nil {
			t.Errorf("NewPlan(%d) accepted", n)
		}
	}
	p, err := NewPlan(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Transform(make([]complex128, 4)); err == nil {
		t.Error("short complex buffer accepted")
	}
	bins := make([]complex128, 5)
	if err := p.RealTransform(bins[:4], make([]float64, 8), nil); err == nil {
		t.Error("short bin buffer accepted")
	}
	if err := p.RealTransform(bins, make([]float64, 9), nil); err == nil {
		t.Error("frame longer than the plan accepted")
	}
	if err := p.RealTransform(bins, make([]float64, 8), make([]float64, 7)); err == nil {
		t.Error("window of the wrong length accepted")
	}
	if err := p.Cepstral(make([]float64, 4), bins, nil, 1); err == nil {
		t.Error("empty frame accepted")
	}
	if err := p.Cepstral(make([]float64, 8), bins, make([]float64, 8), 1); err == nil {
		t.Error("coefficients past the cepstrum's end accepted")
	}
	if err := p.Cepstral(make([]float64, 2), bins, make([]float64, 8), -1); err == nil {
		t.Error("negative first coefficient accepted")
	}
}

// TestFrameAnalyzerTinyFrames covers the lengths at which the half-length
// transform degenerates: 1 (no transform at all), 2 (half length 1) and 3
// (padded to 4).
func TestFrameAnalyzerTinyFrames(t *testing.T) {
	for _, x := range [][]float64{{3}, {3, -1}, {3, -1, 0.5}} {
		s, err := AnalyzeFrame(x, 100, Rectangular)
		if err != nil {
			t.Fatalf("len %d: %v", len(x), err)
		}
		n := NextPow2(len(x))
		want := naiveDFT(ToComplex(ZeroPad(x, n)))
		if len(s.Amp) != n/2+1 {
			t.Fatalf("len %d: %d bins, want %d", len(x), len(s.Amp), n/2+1)
		}
		for b, a := range s.Amp {
			w := cmplx.Abs(want[b]) / float64(len(x))
			if b != 0 && b != n/2 {
				w *= 2
			}
			if math.Abs(a-w) > 1e-12 {
				t.Errorf("len %d bin %d: amplitude %g, want %g", len(x), b, a, w)
			}
		}
	}
}

// TestCepstralMatchesDefinition checks the first-k cosine-sum coefficients
// against IFFT(log|FFT|) within 1e-10, and the bounds at both ends of k.
func TestCepstralMatchesDefinition(t *testing.T) {
	for _, frameLen := range []int{1, 2, 3, 64, 1000, 4096, 16384} {
		x := noise(frameLen, 7+int64(frameLen))
		want := cepstrumByDefinition(t, x)
		got := cepstralOf(t, x, 1, min(8, len(want)-1))
		for i, c := range got {
			if math.Abs(c-want[1+i]) > 1e-10 {
				t.Errorf("len %d: c[%d] = %.15g, definition %.15g", frameLen, 1+i, c, want[1+i])
			}
		}
	}
	x := noise(200, 3)
	want := cepstrumByDefinition(t, x)
	full := cepstralOf(t, x, 0, len(want))
	for q := range full {
		if math.Abs(full[q]-want[q]) > 1e-10 {
			t.Errorf("c[%d] = %.15g, definition %.15g", q, full[q], want[q])
		}
	}
	p, err := NewPlan(len(want))
	if err != nil {
		t.Fatal(err)
	}
	bins := make([]complex128, p.Len()/2+1)
	if err := p.Cepstral(nil, bins, x, 1); err != nil {
		t.Errorf("k = 0: %v", err)
	}
	if err := p.Cepstral(make([]float64, 256), bins, x, 1); err == nil {
		t.Error("k past the end accepted")
	}
	if err := p.Cepstral(make([]float64, 8), bins, nil, 1); err == nil {
		t.Error("empty frame accepted")
	}
	// A silent frame sits on the magnitude floor in every bin: a flat
	// log-spectrum, so every coefficient past the zeroth vanishes.
	for i, c := range cepstralOf(t, make([]float64, 512), 1, 8) {
		if math.Abs(c) > 1e-12 {
			t.Errorf("silent frame c[%d] = %g", 1+i, c)
		}
	}
}

// TestDCT2IntoMatchesDirectSum checks the phasor-stepped coefficients
// against the per-sample cosine sum within 1e-12 at the DC's frame length
// and at a frame six times longer: the re-seed keeps the error flat in n.
// Frames shorter than out get every coefficient out holds.
func TestDCT2IntoMatchesDirectSum(t *testing.T) {
	for _, n := range []int{1, 2, 255, 256, 257, 16384, 100000} {
		x := noise(n, int64(n))
		got := make([]float64, 8)
		DCT2Into(got, x)
		for c, v := range got {
			want := dct2Term(x, c) / float64(n)
			if math.Abs(v-want) > 1e-12 {
				t.Errorf("n=%d: coefficient %d = %.17g, direct sum %.17g (off by %g)", n, c, v, want, v-want)
			}
		}
	}
	out := []float64{9, 9}
	DCT2Into(out, nil)
	if out[0] != 0 || out[1] != 0 {
		t.Errorf("empty frame left %v in out", out)
	}
}

// TestPlanReuseMatchesOneShot guards scratch reuse: one plan and one bin
// buffer fed different frames in interleaved order return, for each, bit for
// bit what a fresh plan and bin buffer return.
func TestPlanReuseMatchesOneShot(t *testing.T) {
	const n = 3000
	impulse := make([]float64, n)
	impulse[n/3] = 7
	frames := [][]float64{noise(n, 1), make([]float64, n), impulse, frameTestSignal(n, 8192)}
	p, err := NewPlan(NextPow2(n))
	if err != nil {
		t.Fatal(err)
	}
	bins := make([]complex128, p.Len()/2+1)
	got := make([]float64, 8)
	for step, fi := range []int{0, 1, 2, 0, 3, 3, 1, 0} {
		want := cepstralOf(t, frames[fi], 1, len(got))
		if err := p.Cepstral(got, bins, frames[fi], 1); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("step %d (frame %d): reused plan %v != fresh plan %v", step, fi, got, want)
		}
	}
}

// TestSpectralKernelsZeroAlloc is the hot-path budget for the planned
// kernels: none of them allocates.
func TestSpectralKernelsZeroAlloc(t *testing.T) {
	x := noise(4096, 5)
	p, err := NewPlan(len(x))
	if err != nil {
		t.Fatal(err)
	}
	bins := make([]complex128, len(x)/2+1)
	window := Window(Hann, len(x))
	out := make([]float64, 8)
	for name, f := range map[string]func(){
		"RealTransform": func() {
			if err := p.RealTransform(bins, x, window); err != nil {
				t.Fatal(err)
			}
		},
		"Cepstral": func() {
			if err := p.Cepstral(out, bins, x, 1); err != nil {
				t.Fatal(err)
			}
		},
		"DCT2Into": func() { DCT2Into(out, x) },
	} {
		if allocs := testing.AllocsPerRun(20, f); allocs != 0 {
			t.Errorf("%s allocates %.1f times per frame, want 0", name, allocs)
		}
	}
}

// TestWaveformMatchesScalarFunctions requires the two-pass sweep to return,
// bit for bit, what each scalar statistic returns on its own.
func TestWaveformMatchesScalarFunctions(t *testing.T) {
	frames := [][]float64{
		nil,
		{-2.5},
		{4, 4, 4, 4},
		make([]float64, 9),
		noise(257, 11),
		noise(4096, 12),
		frameTestSignal(3000, 8192),
	}
	for i, x := range frames {
		got := Waveform(x)
		want := WaveformStats{
			Peak:     PeakAbs(x),
			Mean:     Mean(x),
			RMS:      RMS(x),
			StdDev:   StdDev(x),
			Crest:    CrestFactor(x),
			Kurtosis: Kurtosis(x),
		}
		if got != want {
			t.Errorf("frame %d (len %d): sweep %+v, scalar functions %+v", i, len(x), got, want)
		}
	}
}

func BenchmarkRealTransform16384(b *testing.B) {
	x := noise(16384, 7)
	p, err := NewPlan(len(x))
	if err != nil {
		b.Fatal(err)
	}
	bins := make([]complex128, len(x)/2+1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.RealTransform(bins, x, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCepstral16384x8(b *testing.B) {
	x := noise(16384, 7)
	p, err := NewPlan(len(x))
	if err != nil {
		b.Fatal(err)
	}
	bins := make([]complex128, len(x)/2+1)
	out := make([]float64, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Cepstral(out, bins, x, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDCT2Into16384x8(b *testing.B) {
	x := noise(16384, 7)
	out := make([]float64, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DCT2Into(out, x)
	}
}

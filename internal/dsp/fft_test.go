package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	if err := FFT(make([]complex128, 3)); err == nil {
		t.Fatal("expected error for length 3")
	}
	if err := FFT(make([]complex128, 100)); err == nil {
		t.Fatal("expected error for length 100")
	}
}

func TestFFTEmptyAndSingle(t *testing.T) {
	if err := FFT(nil); err != nil {
		t.Fatalf("empty FFT: %v", err)
	}
	x := []complex128{complex(3.5, -1)}
	if err := FFT(x); err != nil {
		t.Fatalf("single FFT: %v", err)
	}
	if x[0] != complex(3.5, -1) {
		t.Fatalf("length-1 FFT must be identity, got %v", x[0])
	}
}

func TestFFTImpulse(t *testing.T) {
	// FFT of a unit impulse is all ones.
	x := make([]complex128, 8)
	x[0] = 1
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if !almostEqual(real(v), 1, 1e-12) || !almostEqual(imag(v), 0, 1e-12) {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	// A cosine at bin k puts N/2 into bins k and N-k.
	const n = 64
	const k = 5
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Cos(2*math.Pi*float64(k)*float64(i)/n), 0)
	}
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		want := 0.0
		if i == k || i == n-k {
			want = n / 2
		}
		if !almostEqual(cmplx.Abs(x[i]), want, 1e-9) {
			t.Fatalf("bin %d magnitude %g, want %g", i, cmplx.Abs(x[i]), want)
		}
	}
}

// TestFFTMatchesNaiveDFT bounds the transform's error against the DFT sum at
// a small length and at 4096 points: every bin within 1e-15·Σ|x| (measured
// 2e-16 at 4096). The w *= wn twiddle recurrence this replaced sat at 1.9e-15
// there, past the bound.
func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{32, 4096} {
		x := make([]complex128, n)
		var sum float64
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			sum += cmplx.Abs(x[i])
		}
		want := naiveDFT(x)
		got := append([]complex128(nil), x...)
		if err := FFT(got); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if d := cmplx.Abs(got[i] - want[i]); d > 1e-15*sum {
				t.Fatalf("n=%d bin %d: fft %v, dft %v, off by %g > %g", n, i, got[i], want[i], d, 1e-15*sum)
			}
		}
	}
}

// naiveDFT is the O(n²) definition. The n roots of unity are each evaluated
// directly and indexed by k·i mod n, so the oracle's own angle error does not
// grow with k·i.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	roots := make([]complex128, n)
	for j := range roots {
		roots[j] = cmplx.Exp(complex(0, -2*math.Pi*float64(j)/float64(n)))
	}
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for i := 0; i < n; i++ {
			sum += x[i] * roots[k*i%n]
		}
		out[k] = sum
	}
	return out
}

func TestIFFTRoundTripProperty(t *testing.T) {
	// Property: IFFT(FFT(x)) == x for random frames (power-of-two lengths).
	f := func(seed int64, sizeSel uint8) bool {
		n := 1 << (uint(sizeSel)%8 + 1) // 2..256
		rng := rand.New(rand.NewSource(seed))
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		y := append([]complex128(nil), x...)
		if err := FFT(y); err != nil {
			return false
		}
		if err := IFFT(y); err != nil {
			return false
		}
		for i := range x {
			if cmplx.Abs(x[i]-y[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestParsevalProperty(t *testing.T) {
	// Property: sum |x|^2 == (1/N) sum |X|^2.
	f := func(seed int64) bool {
		const n = 128
		rng := rand.New(rand.NewSource(seed))
		x := make([]complex128, n)
		var tdEnergy float64
		for i := range x {
			x[i] = complex(rng.NormFloat64(), 0)
			tdEnergy += real(x[i]) * real(x[i])
		}
		if err := FFT(x); err != nil {
			return false
		}
		var fdEnergy float64
		for _, v := range x {
			fdEnergy += real(v)*real(v) + imag(v)*imag(v)
		}
		fdEnergy /= n
		return math.Abs(tdEnergy-fdEnergy) < 1e-6*math.Max(1, tdEnergy)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	// Property: FFT(a*x + b*y) == a*FFT(x) + b*FFT(y).
	f := func(seed int64, ar, br float64) bool {
		if math.IsNaN(ar) || math.IsInf(ar, 0) || math.IsNaN(br) || math.IsInf(br, 0) {
			return true
		}
		// Keep coefficients bounded to avoid float blow-up obscuring the check.
		a := complex(math.Mod(ar, 10), 0)
		b := complex(math.Mod(br, 10), 0)
		const n = 64
		rng := rand.New(rand.NewSource(seed))
		x := make([]complex128, n)
		y := make([]complex128, n)
		mix := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			y[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			mix[i] = a*x[i] + b*y[i]
		}
		if err := FFT(x); err != nil {
			return false
		}
		if err := FFT(y); err != nil {
			return false
		}
		if err := FFT(mix); err != nil {
			return false
		}
		for i := range mix {
			if cmplx.Abs(mix[i]-(a*x[i]+b*y[i])) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{-5: 1, 0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestZeroPad(t *testing.T) {
	x := []float64{1, 2, 3}
	y := ZeroPad(x, 5)
	if len(y) != 5 || y[0] != 1 || y[2] != 3 || y[3] != 0 || y[4] != 0 {
		t.Fatalf("bad pad: %v", y)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when target shorter than input")
		}
	}()
	ZeroPad(x, 2)
}

// The complex transform and its helpers are the references the real-input
// kernels are checked against; no product code takes a complex transform.

// Transform computes the discrete Fourier transform of x in place. x must be
// exactly Len complex values.
func (p *Plan) Transform(x []complex128) error {
	if len(x) != p.n {
		return fmt.Errorf("dsp: transform of %d values on a plan for %d", len(x), p.n)
	}
	bitReverse(x)
	p.butterflies(x)
	return nil
}

// FFT computes the discrete Fourier transform of x in place using an
// iterative radix-2 Cooley-Tukey algorithm. The length of x must be a power
// of two; use NextPow2 and ZeroPad to prepare arbitrary-length frames. It is
// the one-shot form of Plan.Transform.
func FFT(x []complex128) error {
	if len(x) == 0 {
		return nil
	}
	p, err := NewPlan(len(x))
	if err != nil {
		return err
	}
	return p.Transform(x)
}

// IFFT computes the inverse discrete Fourier transform of x in place,
// including the 1/N normalization. The length of x must be a power of two.
func IFFT(x []complex128) error {
	n := len(x)
	if n == 0 {
		return nil
	}
	for i := range x {
		x[i] = cmplx.Conj(x[i])
	}
	if err := FFT(x); err != nil {
		return err
	}
	inv := 1 / float64(n)
	for i := range x {
		x[i] = cmplx.Conj(x[i]) * complex(inv, 0)
	}
	return nil
}

// bitReverse permutes x, whose length is a power of two, into bit-reversed
// index order.
func bitReverse(x []complex128) {
	shift := 64 - bits.TrailingZeros(uint(len(x)))
	for i := 1; i < len(x)-1; i++ {
		if j := reversed(i, shift); i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
}

// ZeroPad returns x copied into a new slice of length n (n >= len(x)),
// padded with zeros. It panics if n < len(x).
func ZeroPad(x []float64, n int) []float64 {
	if n < len(x) {
		panic("dsp: ZeroPad target shorter than input")
	}
	out := make([]float64, n)
	copy(out, x)
	return out
}

// ToComplex converts a real-valued frame to a complex slice suitable for FFT.
func ToComplex(x []float64) []complex128 {
	out := make([]complex128, len(x))
	for i, v := range x {
		out[i] = complex(v, 0)
	}
	return out
}

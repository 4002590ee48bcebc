package wavelet

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	if Haar.String() != "haar" || Daubechies4.String() != "daubechies4" || Kind(9).String() != "unknown" {
		t.Error("bad names")
	}
}

func TestHaarTransformKnownValues(t *testing.T) {
	// Haar of [1 1 2 2]: approx = [sqrt2, 2*sqrt2], detail = [0, 0].
	a, d, err := Transform(Haar, []float64{1, 1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a[0]-math.Sqrt2) > 1e-12 || math.Abs(a[1]-2*math.Sqrt2) > 1e-12 {
		t.Errorf("approx %v", a)
	}
	if math.Abs(d[0]) > 1e-12 || math.Abs(d[1]) > 1e-12 {
		t.Errorf("detail %v", d)
	}
}

func TestTransformErrors(t *testing.T) {
	if _, _, err := Transform(Haar, []float64{1, 2, 3}); err == nil {
		t.Error("odd length should error")
	}
	if _, _, err := Transform(Daubechies4, []float64{1, 2}); err == nil {
		t.Error("too-short frame should error")
	}
	if _, _, err := Transform(Kind(42), make([]float64, 8)); err == nil {
		t.Error("unknown kind should error")
	}
	if _, err := Inverse(Haar, []float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := Decompose(Kind(42), make([]float64, 8), 2); err == nil {
		t.Error("unknown kind in Decompose should error")
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Property: Inverse(Transform(x)) == x for both wavelet families.
	f := func(seed int64, useDb4 bool, sizeSel uint8) bool {
		n := 8 << (uint(sizeSel) % 6) // 8..256
		k := Haar
		if useDb4 {
			k = Daubechies4
		}
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 10
		}
		a, d, err := Transform(k, x)
		if err != nil {
			return false
		}
		y, err := Inverse(k, a, d)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(x[i]-y[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEnergyPreservationProperty(t *testing.T) {
	// Property: orthonormal DWT preserves energy: |x|^2 == |a|^2 + |d|^2.
	f := func(seed int64, useDb4 bool) bool {
		k := Haar
		if useDb4 {
			k = Daubechies4
		}
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, 128)
		var ex float64
		for i := range x {
			x[i] = rng.NormFloat64()
			ex += x[i] * x[i]
		}
		a, d, err := Transform(k, x)
		if err != nil {
			return false
		}
		var et float64
		for _, v := range a {
			et += v * v
		}
		for _, v := range d {
			et += v * v
		}
		return math.Abs(ex-et) < 1e-9*math.Max(1, ex)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposeReconstructMultiLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, 256)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for _, k := range []Kind{Haar, Daubechies4} {
		for _, levels := range []int{1, 3, 5} {
			d, err := Decompose(k, x, levels)
			if err != nil {
				t.Fatalf("%v/%d: %v", k, levels, err)
			}
			if d.Levels() != levels {
				t.Fatalf("%v: got %d levels, want %d", k, d.Levels(), levels)
			}
			y, err := d.Reconstruct()
			if err != nil {
				t.Fatal(err)
			}
			for i := range x {
				if math.Abs(x[i]-y[i]) > 1e-8 {
					t.Fatalf("%v/%d: reconstruct mismatch at %d: %g vs %g", k, levels, i, x[i], y[i])
				}
			}
		}
	}
}

func TestDecomposeAutoDepth(t *testing.T) {
	x := make([]float64, 64)
	for i := range x {
		x[i] = float64(i)
	}
	d, err := Decompose(Haar, x, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Levels() < 5 {
		t.Errorf("auto depth only %d levels for 64 samples", d.Levels())
	}
	if _, err := Decompose(Haar, []float64{1}, 0); err == nil {
		t.Error("length-1 frame should error")
	}
}

func TestEnergyMapLocalization(t *testing.T) {
	// A high-frequency alternating signal concentrates in the finest detail
	// band; a slow ramp concentrates in the approximation band.
	n := 128
	alt := make([]float64, n)
	ramp := make([]float64, n)
	for i := range alt {
		if i%2 == 0 {
			alt[i] = 1
		} else {
			alt[i] = -1
		}
		ramp[i] = float64(i)
	}
	dAlt, err := Decompose(Haar, alt, 4)
	if err != nil {
		t.Fatal(err)
	}
	mAlt := dAlt.EnergyMap()
	if mAlt[0] < 0.95 {
		t.Errorf("alternating signal finest-band energy %g, want >0.95 (map %v)", mAlt[0], mAlt)
	}
	dRamp, err := Decompose(Haar, ramp, 4)
	if err != nil {
		t.Fatal(err)
	}
	mRamp := dRamp.EnergyMap()
	if mRamp[len(mRamp)-1] < 0.9 {
		t.Errorf("ramp approx-band energy %g, want >0.9 (map %v)", mRamp[len(mRamp)-1], mRamp)
	}
	// Map sums to 1.
	var sum float64
	for _, v := range mRamp {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("energy map sums to %g", sum)
	}
	// Zero signal: all-zero map, no NaNs.
	dz, err := Decompose(Haar, make([]float64, 32), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range dz.EnergyMap() {
		if v != 0 {
			t.Errorf("zero-signal map entry %g", v)
		}
	}
}

// One DWT level, its inverse and the multi-level inverse are the references
// the round trips check Decompose and the workspace against; no product code
// takes a single level or reconstructs a frame.

// Transform performs one level of the DWT on x (length must be even and
// >= filter length), returning approximation and detail coefficients, each
// of length len(x)/2. Circular (periodic) boundary handling is used so the
// transform is exactly invertible.
func Transform(k Kind, x []float64) (approx, detail []float64, err error) {
	low, err := k.filters()
	if err != nil {
		return nil, nil, err
	}
	n := len(x)
	if n < len(low) {
		return nil, nil, fmt.Errorf("wavelet: frame length %d shorter than filter %d", n, len(low))
	}
	if n%2 != 0 {
		return nil, nil, fmt.Errorf("wavelet: frame length %d is odd", n)
	}
	approx = make([]float64, n/2)
	detail = make([]float64, n/2)
	transformInto(low, highPass(low), x, approx, detail)
	return approx, detail, nil
}

// Inverse reconstructs the signal from one level of approximation and detail
// coefficients produced by Transform with the same kind.
func Inverse(k Kind, approx, detail []float64) ([]float64, error) {
	if len(approx) != len(detail) {
		return nil, fmt.Errorf("wavelet: approx length %d != detail length %d", len(approx), len(detail))
	}
	low, err := k.filters()
	if err != nil {
		return nil, err
	}
	high := highPass(low)
	half := len(approx)
	n := half * 2
	out := make([]float64, n)
	for i := 0; i < half; i++ {
		for j := 0; j < len(low); j++ {
			idx := (2*i + j) % n
			out[idx] += low[j]*approx[i] + high[j]*detail[i]
		}
	}
	return out, nil
}

// Reconstruct inverts a multi-level decomposition back to the original frame.
func (d *Decomposition) Reconstruct() ([]float64, error) {
	cur := append([]float64(nil), d.Approx...)
	for l := len(d.Details) - 1; l >= 0; l-- {
		next, err := Inverse(d.Kind, cur, d.Details[l])
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

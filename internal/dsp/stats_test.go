package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRMS(t *testing.T) {
	if RMS(nil) != 0 {
		t.Error("RMS(nil) != 0")
	}
	if got := RMS([]float64{3, 4, 3, 4}); math.Abs(got-math.Sqrt(12.5)) > 1e-12 {
		t.Errorf("RMS = %g", got)
	}
	// Sine of amplitude A has RMS A/sqrt(2).
	x := sine(10000, 10000, 50, 2)
	if got := RMS(x); math.Abs(got-2/math.Sqrt2) > 0.01 {
		t.Errorf("sine RMS = %g, want %g", got, 2/math.Sqrt2)
	}
}

func TestMeanMedianStd(t *testing.T) {
	x := []float64{1, 2, 3, 4, 100}
	if Mean(x) != 22 {
		t.Errorf("mean = %g", Mean(x))
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Error("empty-slice stats should be 0")
	}
	if StdDev([]float64{5, 5, 5, 5}) != 0 {
		t.Error("constant stddev should be 0")
	}
}

func TestCrestFactorAndKurtosis(t *testing.T) {
	// A pure sine has crest factor sqrt(2) and kurtosis 1.5.
	x := sine(8192, 8192, 100, 1)
	if cf := CrestFactor(x); math.Abs(cf-math.Sqrt2) > 0.01 {
		t.Errorf("sine crest factor %g, want %g", cf, math.Sqrt2)
	}
	if k := Kurtosis(x); math.Abs(k-1.5) > 0.02 {
		t.Errorf("sine kurtosis %g, want 1.5", k)
	}
	// Gaussian noise has kurtosis ≈ 3.
	rng := rand.New(rand.NewSource(11))
	g := make([]float64, 100000)
	for i := range g {
		g[i] = rng.NormFloat64()
	}
	if k := Kurtosis(g); math.Abs(k-3) > 0.1 {
		t.Errorf("gaussian kurtosis %g, want ≈3", k)
	}
	// An impulsive signal has much higher crest factor and kurtosis.
	imp := make([]float64, 1024)
	imp[100] = 10
	imp[500] = -10
	if CrestFactor(imp) < 10 {
		t.Error("impulsive crest factor should be large")
	}
	if CrestFactor(make([]float64, 4)) != 0 {
		t.Error("zero signal crest factor should be 0")
	}
}

func TestStatsInvariantsProperty(t *testing.T) {
	// Properties on random data: RMS >= |mean|; peak >= RMS; shift invariance
	// of stddev; scale covariance of RMS.
	f := func(seed int64, shift float64) bool {
		if math.IsNaN(shift) || math.IsInf(shift, 0) {
			return true
		}
		shift = math.Mod(shift, 1e3)
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, 257)
		for i := range x {
			x[i] = rng.NormFloat64() * 5
		}
		if RMS(x) < math.Abs(Mean(x))-1e-9 {
			return false
		}
		if PeakAbs(x) < RMS(x)-1e-9 {
			return false
		}
		shifted := make([]float64, len(x))
		scaled := make([]float64, len(x))
		for i, v := range x {
			shifted[i] = v + shift
			scaled[i] = v * 3
		}
		if math.Abs(StdDev(shifted)-StdDev(x)) > 1e-6 {
			return false
		}
		if math.Abs(RMS(scaled)-3*RMS(x)) > 1e-6 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// The one-statistic references Waveform is held to, bit for bit.

// RMS returns the root-mean-square value of x; 0 for an empty slice.
func RMS(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var sum float64
	for _, v := range x {
		sum += v * v
	}
	return math.Sqrt(sum / float64(len(x)))
}

// Mean returns the arithmetic mean of x; 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var sum float64
	for _, v := range x {
		sum += v
	}
	return sum / float64(len(x))
}

// StdDev returns the population standard deviation of x.
func StdDev(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	var sum float64
	for _, v := range x {
		d := v - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(x)))
}

// PeakAbs returns the maximum absolute value in x.
func PeakAbs(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// CrestFactor returns peak/RMS, a standard early-warning indicator for
// impulsive bearing faults. Returns 0 when the RMS is 0.
func CrestFactor(x []float64) float64 {
	r := RMS(x)
	if r == 0 {
		return 0
	}
	return PeakAbs(x) / r
}

// Kurtosis returns the excess-free kurtosis (normal process ≈ 3) of x,
// another impulsiveness indicator used in bearing diagnostics.
func Kurtosis(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	var m2, m4 float64
	for _, v := range x {
		d := v - m
		d2 := d * d
		m2 += d2
		m4 += d2 * d2
	}
	n := float64(len(x))
	m2 /= n
	m4 /= n
	if m2 == 0 {
		return 0
	}
	return m4 / (m2 * m2)
}

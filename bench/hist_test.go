package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestBucketRoundTrip(t *testing.T) {
	for _, ns := range []uint64{0, 1, 127, 128, 129, 255, 256, 1000, 4095, 4096, 1e6, 1e9, 1 << 40, 1 << 62} {
		idx, lo, hi := bucketOf(ns)
		if float64(ns) < lo || float64(ns) >= hi {
			t.Errorf("bucketOf(%d) = [%g, %g): value outside its bucket", ns, lo, hi)
		}
		blo, bhi := bucketBounds(idx)
		if blo != lo || bhi != hi {
			t.Errorf("bucketBounds(%d) = [%g, %g), bucketOf(%d) said [%g, %g)", idx, blo, bhi, ns, lo, hi)
		}
		if ns >= histSub && (hi-lo)/lo > 1.0/histSub {
			t.Errorf("bucket of %d is %.3g %% wide", ns, 100*(hi-lo)/lo)
		}
	}
}

func TestQuantileAgainstSortedSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h histogram
	samples := make([]float64, 20000)
	for i := range samples {
		// Log-normal around 50 µs with a long tail, like a latency.
		ns := math.Exp(rng.NormFloat64()*0.8) * 50e3
		samples[i] = ns
		h.record(time.Duration(ns))
	}
	sort.Float64s(samples)
	for _, q := range []float64{0.05, 0.5, 0.95, 0.99, 0.999} {
		want := samples[int(q*float64(len(samples)-1))]
		got := h.quantile(q)
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("q%.3f = %.0f ns, sorted samples say %.0f ns", q, got, want)
		}
	}
	if got, want := h.mean(), mean(samples); math.Abs(got-want)/want > 1e-3 {
		t.Errorf("mean = %.1f, want %.1f", got, want)
	}
}

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += math.Floor(x) // record truncates to whole nanoseconds
	}
	return s / float64(len(v))
}

func TestQuantileEdges(t *testing.T) {
	var h histogram
	if h.quantile(0.5) != 0 {
		t.Error("empty histogram: quantile should be 0")
	}
	h.record(-time.Second) // clock steps are clamped, not a panic
	h.record(700 * time.Nanosecond)
	for i := 0; i < 100; i++ {
		h.record(time.Millisecond)
	}
	if got := h.quantile(0.5); got < 0.99e6 || got > 1.01e6 {
		t.Errorf("median = %g ns, want about 1e6", got)
	}
	if got := h.quantile(1); got < 0.99e6 || got > 1.01e6 {
		t.Errorf("max = %g ns, want about 1e6", got)
	}
	if got := h.quantile(0); got != 0.5 {
		t.Errorf("min = %g ns, want 0.5 (inside the [0,1) bucket)", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %g", got)
	}
}

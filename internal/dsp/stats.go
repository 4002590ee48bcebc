package dsp

import "math"

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

// WaveformStats holds the time-domain statistics the feature extractors take
// from one frame.
type WaveformStats struct {
	Peak, Mean, RMS, StdDev, Crest, Kurtosis float64
}

// Waveform computes PeakAbs, Mean, RMS, StdDev, CrestFactor and Kurtosis of
// x in two passes over the frame instead of one or two passes each. Every
// sum runs in the scalar function's order, so each field is bit-identical
// to that function's result.
func Waveform(x []float64) WaveformStats {
	if len(x) == 0 {
		return WaveformStats{}
	}
	n := float64(len(x))
	var s WaveformStats
	var sum, sumSq float64
	for _, v := range x {
		sum += v
		sumSq += v * v
		if a := math.Abs(v); a > s.Peak {
			s.Peak = a
		}
	}
	s.Mean = sum / n
	s.RMS = math.Sqrt(sumSq / n)
	if s.RMS != 0 {
		s.Crest = s.Peak / s.RMS
	}
	if len(x) < 2 {
		return s
	}
	var m2, m4 float64
	for _, v := range x {
		d := v - s.Mean
		d2 := d * d
		m2 += d2
		m4 += d2 * d2
	}
	m2 /= n
	m4 /= n
	s.StdDev = math.Sqrt(m2)
	if m2 != 0 {
		s.Kurtosis = m4 / (m2 * m2)
	}
	return s
}

package dsp

import "math"

// WaveformStats holds the time-domain statistics the feature extractors take
// from one frame.
type WaveformStats struct {
	Peak, Mean, RMS, StdDev, Crest, Kurtosis float64
}

// Waveform computes the peak, mean, RMS, standard deviation, crest factor
// and kurtosis of x in two passes over the frame. Every sum runs in the
// order of the one-statistic reference the tests hold it to, so each field
// is bit-identical to that reference's result.
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

package dsp

import "math"

// Spectrum holds a one-sided amplitude spectrum of a real-valued frame.
// Amplitudes are corrected for window coherent gain so that a pure sine of
// amplitude A shows a bin amplitude close to A.
type Spectrum struct {
	// SampleRate is the acquisition rate in Hz of the source frame.
	SampleRate float64
	// Resolution is the bin width in Hz.
	Resolution float64
	// Amp[i] is the amplitude of the tone at frequency i*Resolution.
	Amp []float64
}

// Bin returns the bin index nearest to frequency f, clamped to range.
func (s *Spectrum) Bin(f float64) int {
	if s.Resolution == 0 || len(s.Amp) == 0 {
		return 0
	}
	i := int(math.Round(f / s.Resolution))
	if i < 0 {
		i = 0
	}
	if i >= len(s.Amp) {
		i = len(s.Amp) - 1
	}
	return i
}

// AmpAt returns the peak amplitude within ±tol Hz of frequency f. Vibration
// rules use a tolerance of one or two bins to absorb slight speed drift.
func (s *Spectrum) AmpAt(f, tol float64) float64 {
	lo := s.Bin(f - tol)
	hi := s.Bin(f + tol)
	var m float64
	for i := lo; i <= hi; i++ {
		if s.Amp[i] > m {
			m = s.Amp[i]
		}
	}
	return m
}

// AnalyzeFrame computes a one-sided amplitude spectrum of frame sampled at
// sampleRate Hz, applying the given window. Frames whose length is not a
// power of two are zero-padded. It is the one-shot form of FrameAnalyzer: a
// fresh analyzer sized for this frame runs once and hands back its spectrum,
// which nothing else aliases.
func AnalyzeFrame(frame []float64, sampleRate float64, window WindowKind) (*Spectrum, error) {
	fa, err := NewFrameAnalyzer(len(frame), sampleRate, window)
	if err != nil {
		return nil, err
	}
	return fa.Analyze(frame)
}

package dsp

import (
	"fmt"
	"math/cmplx"
)

// FrameAnalyzer computes one-sided amplitude spectra of fixed-length frames
// with zero steady-state heap allocation. All scratch — window coefficients,
// the complex FFT buffer, and the output spectrum's bins — is sized at
// construction; the per-frame Analyze call only overwrites it, so a data
// concentrator sweeping its measurement points never provokes the collector
// mid-acquisition. It holds no cross-frame state: any analyzer of the right
// shape gives the same answer for a frame. AnalyzeFrame is its one-shot form.
//
// The returned *Spectrum aliases the analyzer's internal buffers and is
// valid until the next Analyze call; callers that need to keep a spectrum
// must copy it.
type FrameAnalyzer struct {
	frameLen   int
	fftLen     int
	sampleRate float64
	window     []float64
	gain       float64
	buf        []complex128
	spec       Spectrum
}

// NewFrameAnalyzer sizes an analyzer for frames of exactly frameLen samples
// at sampleRate Hz under the given window. Frames shorter than the next
// power of two are zero-padded internally.
func NewFrameAnalyzer(frameLen int, sampleRate float64, window WindowKind) (*FrameAnalyzer, error) {
	if frameLen <= 0 {
		return nil, fmt.Errorf("dsp: non-positive frame length %d", frameLen)
	}
	if sampleRate <= 0 {
		return nil, fmt.Errorf("dsp: non-positive sample rate %g", sampleRate)
	}
	fftLen := NextPow2(frameLen)
	w := Window(window, frameLen)
	var sum float64
	for _, c := range w {
		sum += c
	}
	bins := fftLen/2 + 1
	return &FrameAnalyzer{
		frameLen:   frameLen,
		fftLen:     fftLen,
		sampleRate: sampleRate,
		window:     w,
		gain:       sum / float64(frameLen),
		buf:        make([]complex128, fftLen),
		spec: Spectrum{
			SampleRate: sampleRate,
			Resolution: sampleRate / float64(fftLen),
			Amp:        make([]float64, bins),
			Phase:      make([]float64, bins),
		},
	}, nil
}

// FrameLen returns the frame length the analyzer was sized for.
func (fa *FrameAnalyzer) FrameLen() int { return fa.frameLen }

// Analyze windows frame, transforms it, and fills the internal spectrum.
// frame must be exactly FrameLen samples. The result aliases internal state
// and is overwritten by the next call.
func (fa *FrameAnalyzer) Analyze(frame []float64) (*Spectrum, error) {
	if len(frame) != fa.frameLen {
		return nil, fmt.Errorf("dsp: frame length %d, analyzer sized for %d", len(frame), fa.frameLen)
	}
	for i, v := range frame {
		fa.buf[i] = complex(v*fa.window[i], 0)
	}
	for i := fa.frameLen; i < fa.fftLen; i++ {
		fa.buf[i] = 0
	}
	if err := FFT(fa.buf); err != nil {
		return nil, err
	}
	// Scale by frame length (not padded length) and window gain; double
	// interior bins to fold negative frequencies into the one-sided view.
	scale := 1 / (float64(fa.frameLen) * fa.gain)
	bins := len(fa.spec.Amp)
	for i := 0; i < bins; i++ {
		c := fa.buf[i]
		a := cmplx.Abs(c) * scale
		if i != 0 && i != bins-1 {
			a *= 2
		}
		fa.spec.Amp[i] = a
		fa.spec.Phase[i] = cmplx.Phase(c)
	}
	return &fa.spec, nil
}

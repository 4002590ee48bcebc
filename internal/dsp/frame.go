package dsp

import (
	"fmt"
	"math/cmplx"
)

// FrameAnalyzer computes one-sided amplitude spectra of fixed-length frames
// with zero steady-state heap allocation. All scratch — window coefficients,
// the transform plan, the one-sided bin buffer, and the output spectrum's
// amplitudes — is sized at construction; the per-frame Analyze call only
// overwrites it, so a data concentrator sweeping its measurement points never
// provokes the collector mid-acquisition. It holds no cross-frame state: any
// analyzer of the right shape gives the same answer for a frame.
// AnalyzeFrame is its one-shot form.
//
// The returned *Spectrum aliases the analyzer's internal buffers and is
// valid until the next Analyze call; callers that need to keep a spectrum
// must copy it.
type FrameAnalyzer struct {
	frameLen int
	window   []float64
	gain     float64
	plan     *Plan
	bins     []complex128
	spec     Spectrum
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
	plan, err := NewPlan(NextPow2(frameLen))
	if err != nil {
		return nil, err
	}
	w := Window(window, frameLen)
	var sum float64
	for _, c := range w {
		sum += c
	}
	bins := plan.Len()/2 + 1
	return &FrameAnalyzer{
		frameLen: frameLen,
		window:   w,
		gain:     sum / float64(frameLen),
		plan:     plan,
		bins:     make([]complex128, bins),
		spec: Spectrum{
			SampleRate: sampleRate,
			Resolution: sampleRate / float64(plan.Len()),
			Amp:        make([]float64, bins),
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
	if err := fa.plan.RealTransform(fa.bins, frame, fa.window); err != nil {
		return nil, err
	}
	// Scale by frame length (not padded length) and window gain; double
	// interior bins to fold negative frequencies into the one-sided view.
	scale := 1 / (float64(fa.frameLen) * fa.gain)
	last := len(fa.bins) - 1
	for i, c := range fa.bins {
		a := cmplx.Abs(c) * scale
		if i != 0 && i != last {
			a *= 2
		}
		fa.spec.Amp[i] = a
	}
	return &fa.spec, nil
}

// Package wnn implements the Wavelet Neural Network diagnostics of §6.2:
// "The Wavelet Neural Network (WNN) belongs to a new class of neural
// networks with such unique capabilities as multi-resolution and
// localization in addressing classification problems. For fault diagnosis,
// the WNN serves as a classifier so as to classify the occurring faults."
//
// Feature extraction follows the paper's list: "the peak of the signal
// amplitude, standard deviation, cepstrum, DCT coefficients, wavelet maps,
// temperature, humidity, speed, and mass" — the waveform-derived features
// are implemented here (with hooks for appending process scalars), feeding
// a network of wavelon units (Mexican-hat activations, the localized
// multi-resolution basis that distinguishes a WNN from a sigmoid MLP)
// trained by stochastic gradient descent. Unlike the steady-state DLI
// rulebook, the wavelet map features respond to transitory phenomena, which
// is the niche the paper assigns this algorithm.
package wnn

import (
	"fmt"

	"repro/internal/dsp"
	"repro/internal/wavelet"
)

// FeatureConfig controls waveform feature extraction.
type FeatureConfig struct {
	// NumCepstral is how many cepstral coefficients to include.
	NumCepstral int
	// NumDCT is how many DCT-II coefficients to include.
	NumDCT int
	// WaveletLevels is the DWT decomposition depth for the energy map.
	WaveletLevels int
	// Kind selects the wavelet family.
	Kind wavelet.Kind
}

// DefaultFeatureConfig returns the extraction used by the Georgia Tech
// reconstruction: 8 cepstral + 8 DCT coefficients and a 6-level db4 map.
func DefaultFeatureConfig() FeatureConfig {
	return FeatureConfig{NumCepstral: 8, NumDCT: 8, WaveletLevels: 6, Kind: wavelet.Daubechies4}
}

// Dim returns the dimensionality of the feature vector this configuration
// produces (before any appended process scalars).
func (fc FeatureConfig) Dim() int {
	// peak, std, crest, kurtosis + cepstral + dct + (levels+1) wavelet map.
	return 4 + fc.NumCepstral + fc.NumDCT + fc.WaveletLevels + 1
}

// Extract computes the feature vector for one waveform frame. It is the
// one-shot form of the classifier's feature path: a fresh wavelet workspace
// sized for this frame runs once.
func Extract(frame []float64, fc FeatureConfig) ([]float64, error) {
	ws, err := newMapWorkspace(len(frame), fc)
	if err != nil {
		return nil, err
	}
	return extractWith(ws, frame, fc)
}

// newMapWorkspace sizes the wavelet-map engine for frames of frameLen
// samples. The DWT runs on the largest power-of-two prefix so it can reach
// full depth.
func newMapWorkspace(frameLen int, fc FeatureConfig) (*wavelet.Workspace, error) {
	if frameLen < 1<<uint(fc.WaveletLevels) {
		return nil, fmt.Errorf("wnn: frame of %d samples too short for %d wavelet levels",
			frameLen, fc.WaveletLevels)
	}
	return wavelet.NewWorkspace(fc.Kind, pow2Floor(frameLen), fc.WaveletLevels)
}

// extractWith computes the feature vector of frame, running the wavelet map
// on ws, which must come from newMapWorkspace for this frame length. The
// result does not alias ws.
func extractWith(ws *wavelet.Workspace, frame []float64, fc FeatureConfig) ([]float64, error) {
	out := make([]float64, 0, fc.Dim())
	out = append(out,
		dsp.PeakAbs(frame),
		dsp.StdDev(frame),
		dsp.CrestFactor(frame),
		dsp.Kurtosis(frame),
	)
	ceps, err := dsp.CepstralCoefficients(frame, fc.NumCepstral)
	if err != nil {
		return nil, err
	}
	out = append(out, ceps...)
	out = append(out, dsp.DCT2Coefficients(frame, fc.NumDCT)...)
	if _, err := ws.Decompose(frame[:pow2Floor(len(frame))]); err != nil {
		return nil, err
	}
	out = append(out, ws.EnergyMap()...)
	if len(out) != fc.Dim() {
		return nil, fmt.Errorf("wnn: internal: feature dim %d != declared %d", len(out), fc.Dim())
	}
	return out, nil
}

// pow2Floor returns the largest power of two not exceeding n (1 for n < 2).
func pow2Floor(n int) int {
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

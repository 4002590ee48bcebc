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

// workspace is the scratch one frame's classification runs on: the wavelet
// map engine, the one-sided spectrum of the cepstral stage, the feature
// vector and the network's activations. It holds no cross-frame state. The
// transform plan is immutable and not part of the scratch: every workspace
// of a classifier points at the classifier's one plan.
type workspace struct {
	fc       FeatureConfig
	frameLen int
	plan     *dsp.Plan
	maps     *wavelet.Workspace
	bins     []complex128
	feat     []float64
	acts     *activations
}

// newWorkspace sizes the feature engine for frames of frameLen samples under
// plan, which must be planned for the next power of two. The DWT runs on the
// largest power-of-two prefix so it can reach full depth. acts is the network
// scratch classify runs on; feature extraction alone needs none.
func newWorkspace(plan *dsp.Plan, frameLen int, fc FeatureConfig, acts *activations) (*workspace, error) {
	if frameLen < 1<<uint(fc.WaveletLevels) {
		return nil, fmt.Errorf("wnn: frame of %d samples too short for %d wavelet levels",
			frameLen, fc.WaveletLevels)
	}
	if fc.NumCepstral < 0 || fc.NumCepstral >= plan.Len() || fc.NumDCT < 0 || fc.NumDCT > frameLen {
		return nil, fmt.Errorf("wnn: %d cepstral and %d DCT coefficients do not fit a frame of %d samples",
			fc.NumCepstral, fc.NumDCT, frameLen)
	}
	maps, err := wavelet.NewWorkspace(fc.Kind, pow2Floor(frameLen), fc.WaveletLevels)
	if err != nil {
		return nil, err
	}
	if maps.Levels() != fc.WaveletLevels {
		return nil, fmt.Errorf("wnn: frame of %d samples reaches %d wavelet levels, want %d",
			frameLen, maps.Levels(), fc.WaveletLevels)
	}
	return &workspace{
		fc:       fc,
		frameLen: frameLen,
		plan:     plan,
		maps:     maps,
		bins:     make([]complex128, plan.Len()/2+1),
		feat:     make([]float64, fc.Dim()),
		acts:     acts,
	}, nil
}

// extract computes the feature vector of frame, which must have the length
// the workspace was sized for, with st its dsp.Waveform statistics. The
// result aliases the workspace and is overwritten by the next call.
func (w *workspace) extract(frame []float64, st dsp.WaveformStats) ([]float64, error) {
	if len(frame) != w.frameLen {
		return nil, fmt.Errorf("wnn: frame of %d samples, workspace sized for %d", len(frame), w.frameLen)
	}
	f := w.feat
	f[0], f[1], f[2], f[3] = st.Peak, st.StdDev, st.Crest, st.Kurtosis
	ceps := f[4 : 4+w.fc.NumCepstral]
	if err := w.plan.Cepstral(ceps, w.bins, frame, 1); err != nil {
		return nil, err
	}
	dct := f[4+len(ceps) : 4+len(ceps)+w.fc.NumDCT]
	dsp.DCT2Into(dct, frame)
	if _, err := w.maps.Decompose(frame[:w.maps.FrameLen()]); err != nil {
		return nil, err
	}
	copy(f[4+len(ceps)+len(dct):], w.maps.EnergyMap())
	return f, nil
}

// classify runs one frame, whose dsp.Waveform statistics are st, through
// feature extraction and net on the workspace's scratch and returns the
// winning class with its probability.
//
//mpros:hotpath WNN features and network for one frame of the scheduled vibration test
func (w *workspace) classify(net *Network, frame []float64, st dsp.WaveformStats) (int, float64, error) {
	x, err := w.extract(frame, st)
	if err != nil {
		return 0, 0, err
	}
	cls, probs, err := net.predict(w.acts, x)
	if err != nil {
		return 0, 0, err
	}
	return cls, probs[cls], nil
}

// pow2Floor returns the largest power of two not exceeding n (1 for n < 2).
func pow2Floor(n int) int {
	p := 1
	for p*2 <= n {
		p *= 2
	}
	return p
}

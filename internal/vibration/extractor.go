package vibration

import (
	"fmt"
	"sync"

	"repro/internal/chiller"
	"repro/internal/dsp"
)

// Extractor computes feature frames with zero steady-state heap allocation:
// the spectral analyzer scratch is sized once for the configured frame
// length and every ExtractInto call writes into a caller-provided Features
// value, so the scheduled vibration test sweeps every measurement point on
// a fixed acquisition budget. An extractor holds no cross-frame state.
// Extract is its one-shot form.
type Extractor struct {
	cfg chiller.Config
	fa  *dsp.FrameAnalyzer
}

// NewExtractor sizes an extractor for frames of exactly frameLen samples
// under cfg. frameLen must be at least 1024 samples.
func NewExtractor(cfg chiller.Config, frameLen int) (*Extractor, error) {
	if frameLen < 1024 {
		return nil, fmt.Errorf("vibration: frame of %d samples too short for diagnosis", frameLen)
	}
	fa, err := dsp.NewFrameAnalyzer(frameLen, cfg.SampleRate, dsp.Hann)
	if err != nil {
		return nil, err
	}
	return &Extractor{cfg: cfg, fa: fa}, nil
}

// extractors shares extractor scratch across every caller in the process.
// At the default 16384-sample frame an extractor is 448 KiB of scratch and
// tables (window, twiddles, bins, amplitudes); held per data concentrator it
// would dominate a fleet's resident heap, and a pool also lets it go when no
// vibration test has run for a while.
var extractors sync.Pool

// AcquireExtractor returns an extractor for frameLen-sample frames under
// cfg, reusing an idle one when its frame length and sample rate match and
// building one otherwise. Release it when the sweep is done.
func AcquireExtractor(cfg chiller.Config, frameLen int) (*Extractor, error) {
	if e, ok := extractors.Get().(*Extractor); ok && e.Refit(cfg, frameLen) {
		return e, nil
	}
	return NewExtractor(cfg, frameLen)
}

// Refit installs cfg's plant on e and reports true when e fits
// frameLen-sample frames at cfg's sample rate; one that does not is left as
// it was and must not be used for them.
func (e *Extractor) Refit(cfg chiller.Config, frameLen int) bool {
	//lint:allow floateq an analyzer is reusable only at the identical configured rate; a near-equal rate means different bins
	if e.FrameLen() != frameLen || e.cfg.SampleRate != cfg.SampleRate {
		return false
	}
	e.cfg = cfg
	return true
}

// Release returns the extractor to the shared pool. The caller must not use
// it afterwards.
func (e *Extractor) Release() { extractors.Put(e) }

// FrameLen returns the frame length the extractor was sized for.
func (e *Extractor) FrameLen() int { return e.fa.FrameLen() }

// ExtractInto computes the feature frame for a waveform acquired at point
// pt, overwriting *f. frame must be exactly FrameLen samples and st its
// dsp.Waveform statistics, which the caller computes once for every consumer
// of the frame.
func (e *Extractor) ExtractInto(f *Features, frame []float64, st dsp.WaveformStats, pt chiller.MeasurementPoint) error {
	spec, err := e.fa.Analyze(frame)
	if err != nil {
		return err
	}
	cfg := e.cfg
	shaft := cfg.MotorShaftHz()
	comp := cfg.CompShaftHz()
	mesh := cfg.GearMeshHz()
	line := cfg.LineFreqHz
	pp := cfg.PolePassHz()
	// Frequency tolerance: a couple of bins or 1% of shaft speed.
	tol := 2 * spec.Resolution

	*f = Features{
		Point:       pt,
		OverallRMS:  st.RMS,
		CrestFactor: st.Crest,
		Kurtosis:    st.Kurtosis,
	}
	for k := 0; k < 8; k++ {
		f.MotorOrders[k] = spec.AmpAt(float64(k+1)*shaft, tol)
		f.CompOrders[k] = spec.AmpAt(float64(k+1)*comp, tol)
	}
	f.HalfCompOrder = spec.AmpAt(0.5*comp, tol)
	// Oil whirl: search the subsynchronous band.
	lo, hi := 0.35*comp, 0.48*comp
	var best float64
	for b := spec.Bin(lo); b <= spec.Bin(hi); b++ {
		if spec.Amp[b] > best {
			best = spec.Amp[b]
		}
	}
	f.SubSyncComp = best
	f.TwoXLine = spec.AmpAt(2*line, tol)
	// Rotor-bar sidebands need fine resolution (pole pass ≈ 1.3 Hz); use a
	// tight tolerance of one bin.
	f.PolePassSidebands = spec.AmpAt(line-pp, spec.Resolution) + spec.AmpAt(line+pp, spec.Resolution)
	f.MotorBPFO = spec.AmpAt(cfg.MotorBearing.BPFO*shaft, 2*tol)
	f.MotorBPFI = spec.AmpAt(cfg.MotorBearing.BPFI*shaft, 2*tol)
	f.CompBPFO = spec.AmpAt(cfg.CompBearing.BPFO*comp, 2*tol)
	for k := 0; k < 3; k++ {
		f.GearMesh[k] = spec.AmpAt(float64(k+1)*mesh, 2*tol)
	}
	f.GearMeshSidebands = dsp.SidebandEnergy(spec, mesh, shaft, tol, 1)
	return nil
}

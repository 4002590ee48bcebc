// Package vibration reimplements the shape of the DLI vibration expert
// system of §6.1: "all standard machinery vibration FFT analysis and
// associated diagnostics ... The frame based rules application method
// employed allows the spectral vibration features to be analyzed in
// conjunction with process parameters such as load or bearing temperatures
// to arrive at a more accurate and knowledgeable machinery diagnosis."
//
// The engine extracts an order-domain feature frame per measurement point,
// applies a rulebook of frame-based rules (each sensitized to load where
// the physics demands it — the paper's bearing-looseness example), scores a
// numeric severity, grades it Slight/Moderate/Serious/Extreme, attaches a
// believability factor per diagnosis (§6.1: "based on DLI's statistical
// database that demonstrates the individual accuracy of each diagnosis"),
// and emits protocol reports with worst-case prognostic vectors.
package vibration

import (
	"repro/internal/chiller"
	"repro/internal/dsp"
)

// Features is the spectral/time feature frame for one measurement point —
// the quantities the rulebook conditions on.
type Features struct {
	// Point is where the frame was measured.
	Point chiller.MeasurementPoint
	// OverallRMS is the broadband vibration RMS.
	OverallRMS float64
	// CrestFactor and Kurtosis capture impulsiveness (bearing defects).
	CrestFactor float64
	Kurtosis    float64
	// MotorOrders[k] is the amplitude at (k+1)× motor shaft speed, k<8.
	MotorOrders [8]float64
	// CompOrders[k] is the amplitude at (k+1)× compressor shaft speed.
	CompOrders [8]float64
	// HalfCompOrder is the amplitude at 0.5× compressor speed
	// (looseness subharmonic).
	HalfCompOrder float64
	// SubSyncComp is the peak amplitude in the 0.35×–0.48× compressor band
	// (oil whirl).
	SubSyncComp float64
	// TwoXLine is the amplitude at twice line frequency (electrical).
	TwoXLine float64
	// PolePassSidebands is the summed sideband amplitude at line ± pole
	// pass frequency (rotor bar).
	PolePassSidebands float64
	// MotorBPFO/MotorBPFI are bearing tone amplitudes (fundamental).
	MotorBPFO float64
	MotorBPFI float64
	// CompBPFO is the compressor bearing outer race tone amplitude.
	CompBPFO float64
	// GearMesh[k] is the amplitude at (k+1)× gear mesh frequency, k<3.
	GearMesh [3]float64
	// GearMeshSidebands is the 1× sideband energy around the mesh
	// fundamental.
	GearMeshSidebands float64
}

// Extract computes the feature frame for a vibration waveform acquired at
// point pt on a plant with configuration cfg. It is the one-shot form of
// Extractor: a fresh extractor sized for this frame runs once.
func Extract(frame []float64, cfg chiller.Config, pt chiller.MeasurementPoint) (*Features, error) {
	e, err := NewExtractor(cfg, len(frame))
	if err != nil {
		return nil, err
	}
	f := new(Features)
	if err := e.ExtractInto(f, frame, dsp.Waveform(frame), pt); err != nil {
		return nil, err
	}
	return f, nil
}

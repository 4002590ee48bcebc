package chiller

import (
	"fmt"
	"math"
	"math/rand"
)

// MeasurementPoint identifies a vibration sensor location.
type MeasurementPoint int

const (
	// MotorDE is the motor drive-end bearing housing.
	MotorDE MeasurementPoint = iota
	// MotorNDE is the motor non-drive-end bearing housing.
	MotorNDE
	// GearBox is the gearbox casing.
	GearBox
	// Compressor is the compressor bearing housing.
	Compressor

	// NumPoints is the number of measurement points.
	NumPoints int = iota
)

// String names the measurement point.
func (p MeasurementPoint) String() string {
	switch p {
	case MotorDE:
		return "motor-de"
	case MotorNDE:
		return "motor-nde"
	case GearBox:
		return "gearbox"
	case Compressor:
		return "compressor"
	default:
		return fmt.Sprintf("point(%d)", int(p))
	}
}

// AllPoints lists the measurement points.
func AllPoints() []MeasurementPoint {
	out := make([]MeasurementPoint, NumPoints)
	for i := range out {
		out[i] = MeasurementPoint(i)
	}
	return out
}

// Plant is a running chiller with an adjustable fault state and load.
// It is not safe for concurrent use; the DC serializes acquisitions.
type Plant struct {
	cfg      Config
	rng      *rand.Rand
	severity [NumFaults]float64
	load     float64 // 0..1 fraction of rated load
	phase    float64 // running phase offset so consecutive frames differ
	hours    float64 // operating hours, advanced by Degrade
}

// New creates a plant at full health and 80% load.
func New(cfg Config) (*Plant, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Plant{
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		load: 0.8,
	}, nil
}

// Config returns the plant configuration.
func (p *Plant) Config() Config { return p.cfg }

// SetFault sets the severity of a fault in [0,1].
func (p *Plant) SetFault(f Fault, severity float64) error {
	if int(f) < 0 || int(f) >= NumFaults {
		return fmt.Errorf("chiller: unknown fault %d", f)
	}
	if severity < 0 || severity > 1 || math.IsNaN(severity) {
		return fmt.Errorf("chiller: severity %g outside [0,1]", severity)
	}
	p.severity[f] = severity
	return nil
}

// FaultSeverity returns the current severity of a fault.
func (p *Plant) FaultSeverity(f Fault) float64 {
	if int(f) < 0 || int(f) >= NumFaults {
		return 0
	}
	return p.severity[f]
}

// ActiveFaults returns faults with severity above threshold.
func (p *Plant) ActiveFaults(threshold float64) []Fault {
	var out []Fault
	for i, s := range p.severity {
		if s > threshold {
			out = append(out, Fault(i))
		}
	}
	return out
}

// SetLoad sets the plant load fraction in [0,1].
func (p *Plant) SetLoad(frac float64) error {
	if frac < 0 || frac > 1 || math.IsNaN(frac) {
		return fmt.Errorf("chiller: load %g outside [0,1]", frac)
	}
	p.load = frac
	return nil
}

// Load returns the current load fraction.
func (p *Plant) Load() float64 { return p.load }

// tone accumulates amplitude*sin(2π f t + phase) into dst.
func (p *Plant) tone(dst []float64, f, amplitude, phase float64) {
	if amplitude == 0 || f <= 0 || f >= p.cfg.SampleRate/2 {
		return
	}
	w := 2 * math.Pi * f / p.cfg.SampleRate
	for i := range dst {
		dst[i] += amplitude * math.Sin(w*float64(i)+phase)
	}
}

// modulatedTone accumulates a tone whose amplitude is modulated at modFreq
// (depth in [0,1]) — the signature of inner-race defects rotating through
// the load zone.
func (p *Plant) modulatedTone(dst []float64, f, amplitude, modFreq, depth, phase float64) {
	if amplitude == 0 || f <= 0 || f >= p.cfg.SampleRate/2 {
		return
	}
	w := 2 * math.Pi * f / p.cfg.SampleRate
	wm := 2 * math.Pi * modFreq / p.cfg.SampleRate
	for i := range dst {
		env := 1 + depth*math.Sin(wm*float64(i))
		dst[i] += amplitude * env * math.Sin(w*float64(i)+phase)
	}
}

// impulses adds repetitive impacts at rate hz with exponential ring-down —
// the time-domain signature of rolling element defects (drives crest factor
// and kurtosis up before spectral lines emerge).
func (p *Plant) impulses(dst []float64, hz, amplitude float64) {
	if amplitude == 0 || hz <= 0 {
		return
	}
	period := p.cfg.SampleRate / hz
	ring := p.cfg.SampleRate / 8000 // ~0.125 ms ring-down: sharp impacts
	if ring < 1 {
		ring = 1
	}
	for start := p.rng.Float64() * period; start < float64(len(dst)); start += period {
		s := int(start)
		for j := 0; j < int(6*ring) && s+j < len(dst); j++ {
			dst[s+j] += amplitude * math.Exp(-float64(j)/ring) *
				math.Sin(2*math.Pi*float64(j)/(2*ring))
		}
	}
}

// pointGain returns how strongly a fault couples into a measurement point.
// Faults read strongest at their own location and attenuate elsewhere.
func pointGain(f Fault, pt MeasurementPoint) float64 {
	type key struct {
		f  Fault
		pt MeasurementPoint
	}
	// Primary locations.
	primary := map[Fault]MeasurementPoint{
		MotorImbalance:         MotorDE,
		MotorMisalignment:      MotorDE,
		MotorBearingOuter:      MotorDE,
		MotorBearingInner:      MotorNDE,
		MotorRotorBar:          MotorNDE,
		StatorElectrical:       MotorNDE,
		GearToothWear:          GearBox,
		BearingLooseness:       Compressor,
		OilWhirl:               Compressor,
		CompressorBearingOuter: Compressor,
	}
	// Secondary coupling overrides.
	secondary := map[key]float64{
		{MotorImbalance, MotorNDE}:        0.7,
		{MotorMisalignment, GearBox}:      0.6,
		{MotorBearingOuter, MotorNDE}:     0.4,
		{MotorBearingInner, MotorDE}:      0.4,
		{GearToothWear, MotorDE}:          0.3,
		{GearToothWear, Compressor}:       0.4,
		{BearingLooseness, GearBox}:       0.3,
		{OilWhirl, GearBox}:               0.25,
		{CompressorBearingOuter, GearBox}: 0.3,
	}
	loc, ok := primary[f]
	if !ok {
		return 0 // process faults have no vibration signature
	}
	if loc == pt {
		return 1
	}
	if g, ok := secondary[key{f, pt}]; ok {
		return g
	}
	return 0.12 // weak structural cross-coupling
}

// AcquireVibration synthesizes n samples of acceleration at the point. The
// healthy baseline contains modest 1× residual imbalance, gear mesh, blade
// pass, and broadband noise; faults add their signatures scaled by severity
// and (where physics says so) by load.
func (p *Plant) AcquireVibration(pt MeasurementPoint, n int) ([]float64, error) {
	if n <= 0 {
		return nil, fmt.Errorf("chiller: non-positive frame length %d", n)
	}
	if int(pt) < 0 || int(pt) >= NumPoints {
		return nil, fmt.Errorf("chiller: unknown measurement point %d", pt)
	}
	out := make([]float64, n)
	shaft := p.cfg.MotorShaftHz()
	comp := p.cfg.CompShaftHz()
	mesh := p.cfg.GearMeshHz()
	blade := p.cfg.BladePassHz()
	line := p.cfg.LineFreqHz

	// Healthy baseline. Residual imbalance 0.05 g at 1×; light mesh and
	// blade-pass tones at their locations; 2× line from magnetic hum.
	p.phase = math.Mod(p.phase+0.7, 2*math.Pi)
	ph := p.phase
	base1x := 0.05
	if pt == MotorDE || pt == MotorNDE {
		p.tone(out, shaft, base1x, ph)
		p.tone(out, 2*line, 0.02, ph*1.3)
	}
	if pt == GearBox {
		p.tone(out, shaft, 0.03, ph)
		p.tone(out, mesh, 0.06*(0.5+0.5*p.load), ph*0.7)
		p.tone(out, 2*mesh, 0.02, ph*1.9)
	}
	if pt == Compressor {
		p.tone(out, comp, 0.04, ph)
		p.tone(out, blade, 0.05*(0.3+0.7*p.load), ph*0.3)
	}

	// Fault signatures.
	for fi := 0; fi < NumFaults; fi++ {
		f := Fault(fi)
		sev := p.severity[fi]
		if sev == 0 {
			continue
		}
		g := pointGain(f, pt)
		if g == 0 {
			continue
		}
		a := sev * g
		switch f {
		case MotorImbalance:
			// 1× grows to ~1 g at full severity.
			p.tone(out, shaft, 1.0*a, ph)
		case MotorMisalignment:
			p.tone(out, 2*shaft, 0.8*a, ph*0.9)
			p.tone(out, shaft, 0.25*a, ph)
			p.tone(out, 3*shaft, 0.2*a, ph*1.1)
		case MotorBearingOuter:
			bpfo := p.cfg.MotorBearing.BPFO * shaft
			for h := 1; h <= 4; h++ {
				p.tone(out, float64(h)*bpfo, 0.35*a/float64(h), ph*float64(h))
			}
			p.impulses(out, bpfo, 2.5*a)
		case MotorBearingInner:
			bpfi := p.cfg.MotorBearing.BPFI * shaft
			for h := 1; h <= 3; h++ {
				p.modulatedTone(out, float64(h)*bpfi, 0.3*a/float64(h), shaft, 0.8, ph*float64(h))
			}
			p.impulses(out, bpfi, 2.2*a)
		case MotorRotorBar:
			// Pole-pass sidebands around line frequency, load dependent:
			// barely visible unloaded.
			pp := p.cfg.PolePassHz()
			loadGain := 0.15 + 0.85*p.load
			p.tone(out, line-pp, 0.4*a*loadGain, ph)
			p.tone(out, line+pp, 0.4*a*loadGain, ph*1.2)
			p.tone(out, 2*line-pp, 0.15*a*loadGain, ph*0.8)
			p.tone(out, 2*line+pp, 0.15*a*loadGain, ph*0.6)
		case StatorElectrical:
			p.tone(out, 2*line, 0.7*a, ph)
		case GearToothWear:
			for h := 1; h <= 3; h++ {
				hm := float64(h) * mesh
				p.tone(out, hm, 0.5*a/float64(h), ph*float64(h))
				// 1× sidebands of the motor shaft around each mesh harmonic.
				p.tone(out, hm-shaft, 0.2*a/float64(h), ph)
				p.tone(out, hm+shaft, 0.2*a/float64(h), ph)
			}
		case BearingLooseness:
			// Harmonic series of compressor shaft speed; unloaded operation
			// exaggerates it (§6.1's false-positive hazard).
			looseGain := 1.4 - 0.8*p.load
			for h := 1; h <= 8; h++ {
				p.tone(out, float64(h)*comp, 0.3*a*looseGain/float64(h), ph*float64(h)*0.5)
			}
			if sev > 0.5 {
				p.tone(out, 0.5*comp, 0.25*a*looseGain, ph*0.4)
			}
		case OilWhirl:
			p.tone(out, 0.43*comp, 0.6*a, ph*0.8)
		case CompressorBearingOuter:
			bpfo := p.cfg.CompBearing.BPFO * comp
			for h := 1; h <= 4; h++ {
				p.tone(out, float64(h)*bpfo, 0.3*a/float64(h), ph*float64(h))
			}
			p.impulses(out, bpfo, 2.2*a)
		}
	}

	// Broadband noise.
	for i := range out {
		out[i] += p.rng.NormFloat64() * p.cfg.NoiseFloor
	}
	return out, nil
}

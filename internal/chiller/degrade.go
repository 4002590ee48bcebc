package chiller

import (
	"fmt"
	"math"
)

// DegradationProfile describes how a fault's severity grows with operating
// hours — the substrate for prognostics validation. Profiles follow the
// common bathtub-wall shapes: slow incubation then accelerating growth
// (bearing spall propagation), or near-linear drift (fouling).
type DegradationProfile struct {
	// Fault is the failure mode being grown.
	Fault Fault
	// OnsetHours is when degradation begins.
	OnsetHours float64
	// GrowthHours is the scale over which severity goes from ~0 to ~1
	// after onset.
	GrowthHours float64
	// Shape selects the growth law.
	Shape GrowthShape
}

// GrowthShape enumerates degradation growth laws.
type GrowthShape int

const (
	// Linear severity growth (fouling, distributed wear).
	Linear GrowthShape = iota
	// Exponential growth (crack/spall propagation): slow then fast.
	Exponential
	// SCurve logistic growth: incubation, rapid transition, saturation.
	SCurve
)

// SeverityAt returns the profile's severity at the given operating hours,
// clamped to [0,1].
func (d DegradationProfile) SeverityAt(hours float64) float64 {
	t := hours - d.OnsetHours
	if t <= 0 || d.GrowthHours <= 0 {
		return 0
	}
	x := t / d.GrowthHours
	var s float64
	switch d.Shape {
	case Linear:
		s = x
	case Exponential:
		// Normalized so s(1) == 1: (e^(k x) - 1)/(e^k - 1) with k = 4.
		const k = 4
		s = (math.Exp(k*x) - 1) / (math.Exp(k) - 1)
	case SCurve:
		// Logistic centred at x = 0.5.
		s = 1 / (1 + math.Exp(-10*(x-0.5)))
	default:
		s = x
	}
	if s < 0 {
		s = 0
	}
	if s > 1 {
		s = 1
	}
	return s
}

// Degrader advances a plant's fault severities along a set of profiles.
type Degrader struct {
	plant    *Plant
	profiles []DegradationProfile
}

// NewDegrader attaches profiles to a plant. At most one profile per fault.
func NewDegrader(p *Plant, profiles []DegradationProfile) (*Degrader, error) {
	seen := map[Fault]bool{}
	for _, pr := range profiles {
		if int(pr.Fault) < 0 || int(pr.Fault) >= NumFaults {
			return nil, fmt.Errorf("chiller: profile for unknown fault %d", pr.Fault)
		}
		if seen[pr.Fault] {
			return nil, fmt.Errorf("chiller: duplicate profile for %v", pr.Fault)
		}
		if pr.GrowthHours <= 0 {
			return nil, fmt.Errorf("chiller: profile for %v has non-positive growth", pr.Fault)
		}
		seen[pr.Fault] = true
	}
	return &Degrader{plant: p, profiles: profiles}, nil
}

// Advance moves the plant forward by dt operating hours, updating every
// profiled fault's severity.
func (d *Degrader) Advance(dtHours float64) error {
	if dtHours < 0 {
		return fmt.Errorf("chiller: negative time step")
	}
	d.plant.hours += dtHours
	for _, pr := range d.profiles {
		if err := d.plant.SetFault(pr.Fault, pr.SeverityAt(d.plant.hours)); err != nil {
			return err
		}
	}
	return nil
}

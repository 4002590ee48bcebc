package fusion

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/proto"
)

// FuseConservative combines prognostic vectors per §5.4: "combine the lists
// taking the most conservative estimate at any given time period, and
// interpolating a smooth curve from point to point". Conservative means the
// highest failure probability — the fused curve is the pointwise maximum of
// the input curves (each interpolated/extrapolated per proto's §5.4
// semantics), sampled at the union of the inputs' horizons and simplified
// by dropping collinear interior points.
//
// The paper's worked examples hold by construction: a weaker report whose
// point lies under the existing curve is ignored (the fused curve equals
// the original); a stronger report dominates at its horizon and steepens
// the extrapolated tail, indicating "an even earlier demise".
func FuseConservative(vectors ...proto.PrognosticVector) (proto.PrognosticVector, error) {
	var nonEmptyBuf [4]proto.PrognosticVector
	nonEmpty := nonEmptyBuf[:0]
	for i, v := range vectors {
		if err := v.Validate(); err != nil {
			return nil, fmt.Errorf("fusion: vector %d: %w", i, err)
		}
		if len(v) > 0 {
			nonEmpty = append(nonEmpty, v)
		}
	}
	if len(nonEmpty) == 0 {
		return nil, nil
	}
	if len(nonEmpty) == 1 {
		return append(proto.PrognosticVector(nil), nonEmpty[0]...), nil
	}
	// Union of horizons, plus each curve's clamp point — the horizon where
	// its extrapolated tail reaches probability 1 (a kink in the piecewise-
	// linear claim that must be a fused sample point for the fused curve to
	// dominate every input everywhere). Sorted, then compacted with ==, as
	// the keys of a set would be.
	var horizonBuf [16]float64
	horizons := horizonBuf[:0]
	var maxH float64
	for _, v := range nonEmpty {
		for _, p := range v {
			horizons = append(horizons, p.HorizonSeconds)
			if p.HorizonSeconds > maxH {
				maxH = p.HorizonSeconds
			}
		}
	}
	for _, v := range nonEmpty {
		if h, ok := clampHorizon(v); ok && h < maxH {
			horizons = append(horizons, h)
		}
	}
	slices.Sort(horizons)
	horizons = slices.Compact(horizons)
	fused := make(proto.PrognosticVector, 0, len(horizons))
	prevP := 0.0
	for _, h := range horizons {
		best := 0.0
		for _, v := range nonEmpty {
			if p, claims := claimAt(v, h); claims && p > best {
				best = p
			}
		}
		// Max of monotone curves is monotone, but guard against float
		// artifacts so the output always validates.
		if best < prevP {
			best = prevP
		}
		fused = append(fused, proto.PrognosticPoint{Probability: best, HorizonSeconds: h})
		prevP = best
	}
	return simplify(fused), nil
}

// clampHorizon returns the horizon at which v's extrapolated tail reaches
// probability 1, if it does so at a finite point past its last sample.
func clampHorizon(v proto.PrognosticVector) (float64, bool) {
	if len(v) == 0 {
		return 0, false
	}
	last := v[len(v)-1]
	if last.Probability >= 1 {
		return last.HorizonSeconds, true
	}
	var slope float64
	if len(v) >= 2 {
		pen := v[len(v)-2]
		if last.HorizonSeconds > pen.HorizonSeconds {
			slope = (last.Probability - pen.Probability) / (last.HorizonSeconds - pen.HorizonSeconds)
		}
	} else if last.HorizonSeconds > 0 {
		slope = last.Probability / last.HorizonSeconds
	}
	if slope <= 0 {
		return 0, false
	}
	return last.HorizonSeconds + (1-last.Probability)/slope, true
}

// claimAt evaluates one report's failure-probability claim at horizon h
// seconds. A report makes no claim before its own first horizon — this is
// what makes the §5.4 example hold: the weak ((4.5 months, .12)) report is
// ignored rather than dragging the fused curve up at 3 months, because it
// says nothing about 3 months. Within its span the report interpolates
// linearly; beyond its last point it extrapolates along the last segment's
// slope (a single-point report extrapolates from the origin), clamped to 1.
func claimAt(v proto.PrognosticVector, h float64) (float64, bool) {
	if len(v) == 0 || h < v[0].HorizonSeconds {
		return 0, false
	}
	t := time.Duration(h * float64(time.Second))
	return v.ProbabilityAt(t), true
}

// simplify removes interior points that lie (within tolerance) on the line
// between their neighbours, so a dominated report leaves no trace in the
// fused vector. It works in place: the point it keeps goes no further right
// than the point it is reading.
func simplify(v proto.PrognosticVector) proto.PrognosticVector {
	if len(v) <= 2 {
		return v
	}
	const tol = 1e-9
	out := v[:1]
	for i := 1; i < len(v)-1; i++ {
		a := out[len(out)-1]
		b := v[i]
		c := v[i+1]
		span := c.HorizonSeconds - a.HorizonSeconds
		if span <= 0 {
			continue
		}
		frac := (b.HorizonSeconds - a.HorizonSeconds) / span
		interp := a.Probability + frac*(c.Probability-a.Probability)
		if math.Abs(b.Probability-interp) > tol {
			out = append(out, b)
		}
	}
	out = append(out, v[len(v)-1])
	return out
}

// PrognosticFuser accumulates prognostic vectors per (component, condition)
// and keeps the running conservative fusion. Safe for concurrent use.
// Per §5.6, "prognostic knowledge fusion generates a new prognostic vector
// for each suspect component whenever a new prognostic report arrives."
type PrognosticFuser struct {
	mu    sync.RWMutex
	fused map[progKey]proto.PrognosticVector
}

type progKey struct{ component, condition string }

// NewPrognosticFuser returns an empty prognostic fuser.
func NewPrognosticFuser() *PrognosticFuser {
	return &PrognosticFuser{fused: make(map[progKey]proto.PrognosticVector)}
}

// AddReport fuses a new prognostic vector for the (component, condition)
// pair and returns the updated fused vector. The fuser keeps its own copy of
// v. The vector it returns is the one it holds, shared with every later
// reader until the next report for the pair replaces it: the fuser never
// writes into a vector it has handed out, and callers must not either.
func (pf *PrognosticFuser) AddReport(component, condition string, v proto.PrognosticVector) (proto.PrognosticVector, error) {
	if component == "" || condition == "" {
		return nil, fmt.Errorf("fusion: empty component or condition")
	}
	if err := v.Validate(); err != nil {
		return nil, err
	}
	if len(v) == 0 {
		return pf.Fused(component, condition), nil
	}
	pf.mu.Lock()
	defer pf.mu.Unlock()
	k := progKey{component, condition}
	cur := pf.fused[k]
	var fused proto.PrognosticVector
	var err error
	if len(cur) == 0 {
		fused = append(proto.PrognosticVector(nil), v...)
	} else {
		fused, err = FuseConservative(cur, v)
		if err != nil {
			return nil, err
		}
	}
	pf.fused[k] = fused
	return fused, nil
}

// Fused returns the current fused vector for a (component, condition) pair
// (nil when no prognostic reports have arrived). It is read-only, like
// AddReport's: the vector the fuser holds, which a later report replaces
// rather than changes.
func (pf *PrognosticFuser) Fused(component, condition string) proto.PrognosticVector {
	pf.mu.RLock()
	defer pf.mu.RUnlock()
	return pf.fused[progKey{component, condition}]
}

package fusion

import (
	"fmt"
	"math"
	"slices"
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

// dueHorizon is where a re-based vector puts the points whose horizons have
// passed: one second out, the smallest horizon it states.
const dueHorizon = 1.0

// rebase reads v, a vector claimed shift ago, from now: "p within h" becomes
// "p within h − shift". A horizon that has passed is due, and its probability
// holds from now on: the points at or before dueHorizon collapse into one
// there, at the largest of their probabilities, and when no point is still
// ahead a second one at twice that horizon keeps the tail flat rather than
// extrapolated from the origin. A vector with nothing due is only shifted.
// The re-based vector is appended to dst, which is returned extended, and is
// the tail it appended.
func rebase(dst []proto.PrognosticPoint, v proto.PrognosticVector, shift time.Duration) ([]proto.PrognosticPoint, proto.PrognosticVector) {
	s := shift.Seconds()
	due := 0
	for due < len(v) && v[due].HorizonSeconds-s <= dueHorizon {
		due++
	}
	n := len(dst)
	out := dst
	if due > 0 {
		p := v[due-1].Probability
		out = append(out, proto.PrognosticPoint{Probability: p, HorizonSeconds: dueHorizon})
		if due == len(v) {
			out = append(out, proto.PrognosticPoint{Probability: p, HorizonSeconds: 2 * dueHorizon})
		}
	}
	for _, p := range v[due:] {
		out = append(out, proto.PrognosticPoint{Probability: p.Probability, HorizonSeconds: p.HorizonSeconds - s})
	}
	return out, out[n:len(out):len(out)]
}

// prognosis is §5.4 over what the sources currently say about the member at
// pos: FuseConservative of its entries' vectors, each re-based to at, the
// pair's UpdatedAt (an untimestamped entry is not re-based), in the scratch
// *points. A lone vector that needs no re-basing is returned as it is,
// shared; nil when no entry holds one.
func prognosis(entries []entry, pos int32, at time.Time, points *[]proto.PrognosticPoint) (proto.PrognosticVector, error) {
	var buf [4]proto.PrognosticVector
	vecs := buf[:0]
	rebased := false
	*points = (*points)[:0]
	// Every re-based vector lands in *points before any is read, so one
	// points slice can hold them all: reserve what they can take.
	need := 0
	for i := range entries {
		if r := entries[i].report; r != nil {
			need += len(r.Prognostics) + 2
		}
	}
	*points = slices.Grow(*points, need)
	for i := range entries {
		e := &entries[i]
		if e.pos != pos || e.report == nil || len(e.report.Prognostics) == 0 {
			continue
		}
		v := e.report.Prognostics
		if shift := at.Sub(e.at); !e.at.IsZero() && shift > 0 {
			*points, v = rebase(*points, v, shift)
			rebased = true
		}
		vecs = append(vecs, v)
	}
	switch {
	case len(vecs) == 0:
		return nil, nil
	case len(vecs) == 1 && !rebased:
		return vecs[0], nil
	}
	return FuseConservative(vecs...)
}

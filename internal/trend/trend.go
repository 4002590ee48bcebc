// Package trend implements the temporal-reasoning extension of §10.1:
// "temporal reasoning components could be implemented to scrutinize failure
// histories and provide better projections of future faults as they
// develop." It fits robust linear trends (Theil-Sen) to severity histories
// and projects the crossing time of a severity threshold — e.g. when a
// developing fault will reach the Extreme grade.
package trend

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Point is one observation of a tracked quantity.
type Point struct {
	At    time.Time
	Value float64
}

// Fit is a linear trend y = Intercept + Slope·t, with t in seconds from the
// first observation.
type Fit struct {
	// Slope is the value change per second.
	Slope float64
	// Intercept is the value at the first observation's time.
	Intercept float64
	// Origin anchors t=0.
	Origin time.Time
	// N is the number of points fitted.
	N int
	// Residual is the mean absolute residual, a fit-quality indicator.
	Residual float64
}

// CrossingTime returns when the fitted line reaches the threshold. It
// returns ok=false for flat or receding trends or when the crossing is in
// the past relative to the fit origin... callers compare with their notion
// of "now".
func (f Fit) CrossingTime(threshold float64) (time.Time, bool) {
	if f.Slope <= 0 {
		return time.Time{}, false
	}
	dt := (threshold - f.Intercept) / f.Slope
	if dt < 0 {
		return time.Time{}, false
	}
	return f.Origin.Add(time.Duration(dt * float64(time.Second))), true
}

// TheilSen fits a robust line: slope = median of pairwise slopes, intercept
// = median of (y - slope·t). It tolerates a minority of outlier
// observations (sensor glitches, transient load artifacts) that would drag
// an OLS fit. Needs at least 3 points with distinct times.
func TheilSen(points []Point) (Fit, error) {
	if len(points) < 3 {
		return Fit{}, fmt.Errorf("trend: need at least 3 points, have %d", len(points))
	}
	pts := append([]Point(nil), points...)
	sort.Slice(pts, func(i, j int) bool { return pts[i].At.Before(pts[j].At) })
	origin := pts[0].At
	ts := make([]float64, len(pts))
	for i, p := range pts {
		ts[i] = p.At.Sub(origin).Seconds()
	}
	var slopes []float64
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			//lint:allow floateq guards the slope division; only exactly equal timestamps divide by zero
			if ts[j] == ts[i] {
				continue
			}
			slopes = append(slopes, (pts[j].Value-pts[i].Value)/(ts[j]-ts[i]))
		}
	}
	if len(slopes) == 0 {
		return Fit{}, fmt.Errorf("trend: all observations share one timestamp")
	}
	slope := median(slopes)
	inters := make([]float64, len(pts))
	for i, p := range pts {
		inters[i] = p.Value - slope*ts[i]
	}
	intercept := median(inters)
	fit := Fit{Slope: slope, Intercept: intercept, Origin: origin, N: len(pts)}
	var absSum float64
	for i, p := range pts {
		absSum += math.Abs(p.Value - (intercept + slope*ts[i]))
	}
	fit.Residual = absSum / float64(len(pts))
	return fit, nil
}

func median(xs []float64) float64 {
	tmp := append([]float64(nil), xs...)
	sort.Float64s(tmp)
	n := len(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

// Projection is a threshold-crossing forecast.
type Projection struct {
	Fit Fit
	// Crossing is when the trend reaches the threshold.
	Crossing time.Time
	// Reaches is false for flat/receding trends.
	Reaches bool
}

// ProjectPoints fits a Theil-Sen trend to an arbitrary point series
// (dense, sparse, or downsampled — e.g. historian rollup means) and
// projects the threshold crossing.
func ProjectPoints(points []Point, threshold float64) (Projection, error) {
	fit, err := TheilSen(points)
	if err != nil {
		return Projection{}, err
	}
	p := Projection{Fit: fit}
	p.Crossing, p.Reaches = fit.CrossingTime(threshold)
	return p, nil
}

package trend

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC)

func linearPoints(n int, slopePerHour, intercept, noise float64, rng *rand.Rand) []Point {
	out := make([]Point, n)
	for i := range out {
		at := t0.Add(time.Duration(i) * time.Hour)
		v := intercept + slopePerHour*float64(i)
		if rng != nil {
			v += rng.NormFloat64() * noise
		}
		out[i] = Point{At: at, Value: v}
	}
	return out
}

func TestTheilSenExactLine(t *testing.T) {
	pts := linearPoints(10, 0.05, 0.1, 0, nil)
	fit, err := TheilSen(pts)
	if err != nil {
		t.Fatal(err)
	}
	wantSlope := 0.05 / 3600 // per second
	if math.Abs(fit.Slope-wantSlope) > 1e-12 {
		t.Errorf("slope %g, want %g", fit.Slope, wantSlope)
	}
	if math.Abs(fit.Intercept-0.1) > 1e-9 {
		t.Errorf("intercept %g", fit.Intercept)
	}
	if fit.Residual > 1e-9 {
		t.Errorf("residual %g on exact line", fit.Residual)
	}
	// The line reproduces the inputs.
	if got := fit.Intercept + fit.Slope*(5*time.Hour).Seconds(); math.Abs(got-0.35) > 1e-9 {
		t.Errorf("value at 5 h %g", got)
	}
	// Crossing time of 0.6: (0.6-0.1)/0.05 = 10 hours.
	cross, ok := fit.CrossingTime(0.6)
	if !ok {
		t.Fatal("should cross")
	}
	if want := t0.Add(10 * time.Hour); math.Abs(cross.Sub(want).Seconds()) > 1 {
		t.Errorf("crossing %v, want %v", cross, want)
	}
}

func TestTheilSenRobustToOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := linearPoints(30, 0.02, 0.2, 0.005, rng)
	// Inject three gross outliers (sensor glitches).
	pts[5].Value = 5
	pts[12].Value = -3
	pts[20].Value = 7
	ts, err := TheilSen(pts)
	if err != nil {
		t.Fatal(err)
	}
	wantSlope := 0.02 / 3600
	tsErr := math.Abs(ts.Slope - wantSlope)
	olsErr := math.Abs(leastSquaresSlope(pts) - wantSlope)
	if tsErr > wantSlope*0.2 {
		t.Errorf("Theil-Sen slope error %g too large", tsErr)
	}
	if tsErr >= olsErr {
		t.Errorf("Theil-Sen (%g) should beat OLS (%g) under outliers", tsErr, olsErr)
	}
}

// leastSquaresSlope is the ordinary least squares slope per second, the
// fit an outlier drags.
func leastSquaresSlope(pts []Point) float64 {
	var sumT, sumY, sumTT, sumTY float64
	for _, p := range pts {
		t := p.At.Sub(pts[0].At).Seconds()
		sumT, sumY = sumT+t, sumY+p.Value
		sumTT, sumTY = sumTT+t*t, sumTY+t*p.Value
	}
	n := float64(len(pts))
	return (n*sumTY - sumT*sumY) / (n*sumTT - sumT*sumT)
}

func TestRecedingTrendDoesNotCross(t *testing.T) {
	pts := linearPoints(20, -0.01, 1.0, 0, nil)
	fit, err := TheilSen(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-(-0.01/3600)) > 1e-12 {
		t.Errorf("slope %g", fit.Slope)
	}
	// Receding trend never crosses a higher threshold.
	if _, ok := fit.CrossingTime(2.0); ok {
		t.Error("receding trend should not cross")
	}
}

func TestFitValidation(t *testing.T) {
	if _, err := TheilSen(nil); err == nil {
		t.Error("empty")
	}
	if _, err := TheilSen(linearPoints(2, 1, 0, 0, nil)); err == nil {
		t.Error("two points")
	}
	same := []Point{{At: t0, Value: 1}, {At: t0, Value: 2}, {At: t0, Value: 3}}
	if _, err := TheilSen(same); err == nil {
		t.Error("single timestamp")
	}
}

func TestCrossingInPastReturnsOriginSide(t *testing.T) {
	// Upward trend already above threshold at origin: crossing dt < 0.
	pts := linearPoints(5, 0.1, 0.9, 0, nil)
	fit, err := TheilSen(pts)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fit.CrossingTime(0.5); ok {
		t.Error("crossing before origin should report not-ok")
	}
}

func TestTheilSenRecoversSlopeProperty(t *testing.T) {
	// Property: on noiseless lines with random slope/intercept the fit is
	// exact (within float tolerance).
	prop := func(rawSlope, rawIntercept float64, nRaw uint8) bool {
		if math.IsNaN(rawSlope) || math.IsInf(rawSlope, 0) ||
			math.IsNaN(rawIntercept) || math.IsInf(rawIntercept, 0) {
			return true
		}
		slope := math.Mod(rawSlope, 10)
		intercept := math.Mod(rawIntercept, 100)
		n := 3 + int(nRaw%40)
		pts := linearPoints(n, slope, intercept, 0, nil)
		fit, err := TheilSen(pts)
		if err != nil {
			return false
		}
		scale := math.Max(1, math.Abs(slope/3600))
		return math.Abs(fit.Slope-slope/3600) < 1e-9*scale &&
			math.Abs(fit.Intercept-intercept) < 1e-6*math.Max(1, math.Abs(intercept))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

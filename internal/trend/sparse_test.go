package trend

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/historian"
)

// Sparse and downsampled series are what the trend fitter actually sees in
// deployment: historian rollup means at day resolution, or a handful of
// surviving points after retention. These tests pin the fitter's behaviour
// on exactly those shapes.

func linSeries(t0 time.Time, slopePerHour float64, at []time.Duration, noise func(int) float64) []Point {
	pts := make([]Point, len(at))
	for i, d := range at {
		v := slopePerHour * d.Hours()
		if noise != nil {
			v += noise(i)
		}
		pts[i] = Point{At: t0.Add(d), Value: 0.1 + v}
	}
	return pts
}

// TestSparseIrregularSeries: three to five points with wildly irregular
// spacing (minutes to weeks apart) still recover the underlying slope.
func TestSparseIrregularSeries(t *testing.T) {
	t0 := time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC)
	gaps := []time.Duration{0, 7 * time.Minute, 26 * time.Hour, 9 * 24 * time.Hour, 21 * 24 * time.Hour}
	const slope = 0.001 // per hour
	pts := linSeries(t0, slope, gaps, nil)
	fit, err := TheilSen(pts)
	if err != nil {
		t.Fatal(err)
	}
	if got := fit.Slope * 3600; math.Abs(got-slope) > 1e-9 {
		t.Fatalf("slope %g/h, want %g/h", got, slope)
	}
	proj, err := ProjectPoints(pts, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if !proj.Reaches {
		t.Fatal("rising sparse series should reach threshold")
	}
	want := t0.Add(time.Duration(0.6 / slope * float64(time.Hour)))
	if d := proj.Crossing.Sub(want); math.Abs(d.Hours()) > 1 {
		t.Fatalf("crossing %v, want %v", proj.Crossing, want)
	}

	// Exactly three points is the documented minimum.
	if _, err := TheilSen(pts[:3]); err != nil {
		t.Fatalf("3-point fit refused: %v", err)
	}
	if _, err := TheilSen(pts[:2]); err == nil {
		t.Fatal("2-point fit accepted")
	}
}

// TestSparseOutlierRobustness: with only five sparse points, one sensor
// glitch must not swing the Theil-Sen slope the way it swings OLS.
func TestSparseOutlierRobustness(t *testing.T) {
	t0 := time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC)
	gaps := []time.Duration{0, 2 * 24 * time.Hour, 5 * 24 * time.Hour,
		11 * 24 * time.Hour, 14 * 24 * time.Hour}
	const slope = 0.002
	pts := linSeries(t0, slope, gaps, nil)
	pts[2].Value += 0.8 // glitch
	robust, err := TheilSen(pts)
	if err != nil {
		t.Fatal(err)
	}
	robustErr := math.Abs(robust.Slope*3600 - slope)
	olsErr := math.Abs(leastSquaresSlope(pts)*3600 - slope)
	if robustErr > slope*0.5 {
		t.Fatalf("Theil-Sen slope off by %g/h on one glitch in five points", robustErr)
	}
	if olsErr < robustErr {
		t.Fatalf("OLS (%g/h err) beat Theil-Sen (%g/h err) on glitched data", olsErr, robustErr)
	}
}

// TestDownsampledRollupSeries: fitting day-bucket rollup means from a
// historian channel projects the same crossing as fitting the raw 1-per-
// 4h series — downsampling must not distort the trend.
func TestDownsampledRollupSeries(t *testing.T) {
	store, err := historian.Open(historian.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	const chName = "severity/motor|imbalance"
	if err := store.EnsureChannel(historian.ChannelConfig{Name: chName}); err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(3))
	const slope = 0.0008 // per hour: 0.1 → ~0.5 over 21 days
	var raw []Point
	for h := 0.0; h < 21*24; h += 4 {
		at := t0.Add(time.Duration(h * float64(time.Hour)))
		v := 0.1 + slope*h + 0.01*(rng.Float64()-0.5)
		if err := store.Append(chName, at, v); err != nil {
			t.Fatal(err)
		}
		raw = append(raw, Point{At: at, Value: v})
	}
	rolls, err := store.QueryRollup(chName, 24*time.Hour, time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rolls) != 21 {
		t.Fatalf("%d rollup buckets, want 21", len(rolls))
	}
	down := make([]Point, len(rolls))
	for i, r := range rolls {
		down[i] = Point{At: r.Start.Add(r.Dur / 2), Value: r.Mean()}
	}
	rawProj, err := ProjectPoints(raw, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	downProj, err := ProjectPoints(down, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if !rawProj.Reaches || !downProj.Reaches {
		t.Fatalf("projections should reach: raw=%t down=%t", rawProj.Reaches, downProj.Reaches)
	}
	// 126 raw points vs 21 bucket means: crossings agree within a day.
	if d := downProj.Crossing.Sub(rawProj.Crossing); math.Abs(d.Hours()) > 24 {
		t.Fatalf("downsampled crossing %v vs raw %v (Δ %v)",
			downProj.Crossing, rawProj.Crossing, d)
	}
	slopeRatio := downProj.Fit.Slope / rawProj.Fit.Slope
	if slopeRatio < 0.9 || slopeRatio > 1.1 {
		t.Fatalf("downsampled slope ratio %g outside [0.9,1.1]", slopeRatio)
	}
}

// TestFlatAndRecedingSparse: flat or falling sparse series never project a
// crossing, and duplicate-timestamp-only series are refused.
func TestFlatAndRecedingSparse(t *testing.T) {
	t0 := time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC)
	flat := []Point{
		{At: t0, Value: 0.3},
		{At: t0.Add(48 * time.Hour), Value: 0.3},
		{At: t0.Add(240 * time.Hour), Value: 0.3},
	}
	proj, err := ProjectPoints(flat, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if proj.Reaches {
		t.Fatal("flat series projected a crossing")
	}
	falling := []Point{
		{At: t0, Value: 0.5},
		{At: t0.Add(100 * time.Hour), Value: 0.4},
		{At: t0.Add(300 * time.Hour), Value: 0.2},
	}
	if proj, _ := ProjectPoints(falling, 0.6); proj.Reaches {
		t.Fatal("falling series projected a crossing")
	}
	same := []Point{{At: t0, Value: 1}, {At: t0, Value: 2}, {At: t0, Value: 3}}
	if _, err := TheilSen(same); err == nil {
		t.Fatal("single-instant series accepted")
	}
}

// Package hazard implements the survival-analysis extension of §10.1:
// "Prognostic knowledge fusion could be improved with the addition of
// techniques from the analysis of hazard and survival data. These
// approaches scrutinize history data to refine the estimates of life-cycle
// performance for failures."
//
// It provides Weibull maximum-likelihood fitting over (possibly censored)
// failure histories, the Kaplan-Meier product-limit estimator, and a
// refinement step that converts a fitted life distribution into a §7.3
// prognostic vector — the "next generation software [that] will use more
// complex failure analysis using historical data" promised in §1.
package hazard

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/proto"
)

// Observation is one unit's lifetime record: time on test and whether the
// unit failed at that time (Censored=false) or was still running when
// observation stopped (Censored=true).
type Observation struct {
	Time     float64
	Censored bool
}

// Weibull is a two-parameter Weibull life distribution.
type Weibull struct {
	// Shape is k (k>1: wear-out, k==1: exponential, k<1: infant mortality).
	Shape float64
	// Scale is λ, the characteristic life (63.2% failed).
	Scale float64
}

// CDF returns the failure probability by time t.
func (w Weibull) CDF(t float64) float64 {
	if t <= 0 {
		return 0
	}
	return 1 - math.Exp(-math.Pow(t/w.Scale, w.Shape))
}

// Quantile returns the time by which fraction p of units fail.
func (w Weibull) Quantile(p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return math.Inf(1)
	}
	return w.Scale * math.Pow(-math.Log(1-p), 1/w.Shape)
}

// FitWeibull computes the maximum-likelihood Weibull fit for a censored
// sample by solving the profile-likelihood shape equation with bisection.
// It requires at least three uncensored failures.
func FitWeibull(obs []Observation) (Weibull, error) {
	var failures int
	for _, o := range obs {
		if o.Time <= 0 || math.IsNaN(o.Time) || math.IsInf(o.Time, 0) {
			return Weibull{}, fmt.Errorf("hazard: non-positive or invalid time %g", o.Time)
		}
		if !o.Censored {
			failures++
		}
	}
	if failures < 3 {
		return Weibull{}, fmt.Errorf("hazard: need at least 3 uncensored failures, have %d", failures)
	}
	// Profile likelihood: g(k) = Σt_i^k ln t_i / Σt_i^k − 1/k − (1/r)Σ_f ln t_f = 0,
	// where sums over i run over all observations and f over failures only.
	var sumLnFail float64
	for _, o := range obs {
		if !o.Censored {
			sumLnFail += math.Log(o.Time)
		}
	}
	meanLnFail := sumLnFail / float64(failures)
	g := func(k float64) float64 {
		var num, den float64
		for _, o := range obs {
			tk := math.Pow(o.Time, k)
			num += tk * math.Log(o.Time)
			den += tk
		}
		return num/den - 1/k - meanLnFail
	}
	// Bracket the root: g is increasing in k; search [1e-3, 100].
	lo, hi := 1e-3, 100.0
	glo, ghi := g(lo), g(hi)
	if glo > 0 || ghi < 0 {
		return Weibull{}, fmt.Errorf("hazard: cannot bracket Weibull shape (degenerate sample)")
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if g(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	k := (lo + hi) / 2
	var sumTk float64
	for _, o := range obs {
		sumTk += math.Pow(o.Time, k)
	}
	scale := math.Pow(sumTk/float64(failures), 1/k)
	return Weibull{Shape: k, Scale: scale}, nil
}

// KaplanMeierPoint is one step of the product-limit survival estimate.
type KaplanMeierPoint struct {
	// Time of a distinct failure.
	Time float64
	// Survival is S(t) just after this failure time.
	Survival float64
	// AtRisk is the number of units at risk just before this time.
	AtRisk int
	// Failures at this time.
	Failures int
}

// KaplanMeier computes the product-limit survival estimator over a censored
// sample, one point per distinct failure time.
func KaplanMeier(obs []Observation) ([]KaplanMeierPoint, error) {
	if len(obs) == 0 {
		return nil, fmt.Errorf("hazard: empty sample")
	}
	sorted := append([]Observation(nil), obs...)
	for _, o := range sorted {
		if o.Time <= 0 || math.IsNaN(o.Time) {
			return nil, fmt.Errorf("hazard: non-positive or invalid time %g", o.Time)
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Time < sorted[j].Time })
	var out []KaplanMeierPoint
	surv := 1.0
	atRisk := len(sorted)
	i := 0
	for i < len(sorted) {
		t := sorted[i].Time
		failures, censored := 0, 0
		//lint:allow floateq Kaplan-Meier ties are defined by identical recorded times, copied not computed
		for i < len(sorted) && sorted[i].Time == t {
			if sorted[i].Censored {
				censored++
			} else {
				failures++
			}
			i++
		}
		if failures > 0 {
			surv *= 1 - float64(failures)/float64(atRisk)
			out = append(out, KaplanMeierPoint{Time: t, Survival: surv, AtRisk: atRisk, Failures: failures})
		}
		atRisk -= failures + censored
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("hazard: sample contains no failures")
	}
	return out, nil
}

// SurvivalAt evaluates a Kaplan-Meier curve at time t (step function).
func SurvivalAt(km []KaplanMeierPoint, t float64) float64 {
	s := 1.0
	for _, p := range km {
		if p.Time > t {
			break
		}
		s = p.Survival
	}
	return s
}

// RefinePrognostic converts a fitted life distribution into a §7.3
// prognostic vector conditioned on the unit having survived `age` so far:
// P(fail by age+h | alive at age). Horizons are expressed in the same unit
// as the fit (this package is unit-agnostic; callers pass seconds or
// hours consistently). The §10.1 promise: "these refined inputs to the
// prognostic analysis would yield better projections of future failures."
func RefinePrognostic(w Weibull, age float64, horizons []float64) (proto.PrognosticVector, error) {
	if age < 0 {
		return nil, fmt.Errorf("hazard: negative age")
	}
	if len(horizons) == 0 {
		return nil, fmt.Errorf("hazard: no horizons")
	}
	sAge := 1 - w.CDF(age)
	if sAge <= 0 {
		return nil, fmt.Errorf("hazard: unit already past characteristic life support")
	}
	out := make(proto.PrognosticVector, 0, len(horizons))
	prev := 0.0
	for i, h := range horizons {
		if h <= 0 || (i > 0 && h <= horizons[i-1]) {
			return nil, fmt.Errorf("hazard: horizons must be positive and strictly increasing")
		}
		p := (w.CDF(age+h) - w.CDF(age)) / sAge
		if p < prev {
			p = prev
		}
		if p > 1 {
			p = 1
		}
		out = append(out, proto.PrognosticPoint{Probability: p, HorizonSeconds: h})
		prev = p
	}
	return out, nil
}

package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"repro/internal/fusion"
	"repro/internal/hazard"
	"repro/internal/oosm"
	"repro/internal/pdme"
	"repro/internal/proto"
	"repro/internal/vibration"
)

func figureGroups() fusion.Groups {
	return fusion.Groups{
		"electrical": {"motor rotor bar problem", "stator electrical unbalance"},
		"structural": {"motor imbalance", "motor misalignment"},
		"lubricant":  {"oil whirl", "pump bearing housing looseness"},
	}
}

// E10Figure2Browser reproduces the Figure 2 PDME browser state: "for
// machine A/C Compressor Motor 1, six condition reports from four
// different knowledge sources (expert systems) have been received, some
// conflicting and some reinforcing. After these reports are processed by
// the Knowledge Fusion component, the predictions of failure for each
// machine condition group are shown at the bottom of the screen."
func E10Figure2Browser(seed int64) (*Result, error) {
	model, err := oosm.NewModel(nil)
	if err != nil {
		return nil, err
	}
	engine, err := pdme.New(model, figureGroups())
	if err != nil {
		return nil, err
	}
	defer engine.Close()
	machine := "A/C Compressor Motor 1"
	at := time.Date(1998, 9, 1, 8, 0, 0, 0, time.UTC)
	day := 86400.0
	mk := func(ks, cond string, sev, bel float64, offset time.Duration, vec proto.PrognosticVector) *proto.Report {
		return &proto.Report{
			DCID: "dc-1", KnowledgeSourceID: ks, SensedObjectID: machine,
			MachineConditionID: cond, Severity: sev, Belief: bel,
			Timestamp: at.Add(offset), Prognostics: vec,
		}
	}
	vec := proto.PrognosticVector{
		{Probability: 0.2, HorizonSeconds: 14 * day},
		{Probability: 0.7, HorizonSeconds: 45 * day},
	}
	reports := []*proto.Report{
		mk("ks/dli", "motor imbalance", 0.55, 0.8, 0, vec),
		mk("ks/sbfr", "motor imbalance", 0.5, 0.6, 5*time.Minute, nil),
		mk("ks/wnn", "motor misalignment", 0.4, 0.5, 10*time.Minute, nil),
		mk("ks/fuzzy", "oil whirl", 0.3, 0.4, 15*time.Minute, vec),
		mk("ks/dli", "oil whirl", 0.35, 0.5, 20*time.Minute, nil),
		mk("ks/wnn", "motor rotor bar problem", 0.6, 0.7, 25*time.Minute, nil),
	}
	for _, r := range reports {
		if err := engine.Deliver(r); err != nil {
			return nil, err
		}
	}
	view, err := engine.RenderBrowser(machine)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:         "E10",
		Title:      "Figure 2 PDME browser: six reports, four knowledge sources, fused predictions",
		PaperClaim: "six condition reports from four knowledge sources, some conflicting and some reinforcing; fused predictions per condition group below",
		Header:     []string{"browser rendering (verbatim)"},
	}
	for _, line := range strings.Split(strings.TrimRight(view, "\n"), "\n") {
		res.Rows = append(res.Rows, []string{line})
	}
	return res, nil
}

// E11EventLatency exercises the §4.5 event model: "an event model ... allows
// client programs to be notified of changes to property or relationship
// values without the need to poll. The Knowledge Fusion component uses this
// to automatically process failure prediction reports as they are delivered
// to the OOSM." The run measures end-to-end report→fused-conclusion latency
// through the event path, and confirms zero polling (fusion runs exactly
// once per report).
func E11EventLatency(seed int64) (*Result, error) {
	model, err := oosm.NewModel(nil)
	if err != nil {
		return nil, err
	}
	engine, err := pdme.New(model, figureGroups())
	if err != nil {
		return nil, err
	}
	defer engine.Close()

	conclusionUpdates := 0
	sub := model.SubscribeClass(pdme.ConclusionClass, oosm.ObjectCreated, func(oosm.Event) {
		conclusionUpdates++
	})
	defer sub.Cancel()
	sub2 := model.SubscribeClass(pdme.ConclusionClass, oosm.PropertyChanged, func(e oosm.Event) {
		// One PropertyChanged fires per property; count conclusion rewrites
		// once via the updated_at marker.
		if e.Property == "updated_at" {
			conclusionUpdates++
		}
	})
	defer sub2.Cancel()

	const reports = 2000
	at := time.Date(1998, 9, 1, 0, 0, 0, 0, time.UTC)
	conds := []string{"motor imbalance", "oil whirl", "motor rotor bar problem"}
	start := stopwatch()
	for i := 0; i < reports; i++ {
		r := &proto.Report{
			DCID: "dc-1", KnowledgeSourceID: "ks", SensedObjectID: "motor/1",
			MachineConditionID: conds[i%3], Severity: 0.5, Belief: 0.3,
			Timestamp: at.Add(time.Duration(i) * time.Second),
		}
		if err := engine.Deliver(r); err != nil {
			return nil, err
		}
	}
	elapsed := lap(start)
	perReport := elapsed / reports
	res := &Result{
		ID:         "E11",
		Title:      "OOSM event model: report delivery → fused conclusion, no polling",
		PaperClaim: "clients are notified of changes without the need to poll; KF auto-processes reports as they are delivered",
		Header:     []string{"metric", "value"},
		Rows: [][]string{
			{"reports delivered", fmt.Sprintf("%d", reports)},
			{"conclusion events observed", fmt.Sprintf("%d", conclusionUpdates)},
			{"events per report", f2(float64(conclusionUpdates) / reports)},
			{"end-to-end latency per report", perReport.Round(time.Microsecond).String()},
		},
		Notes: []string{
			"every report triggers fusion through the subscription path; conclusion events fan out to the browser subscription with no polling loop anywhere.",
		},
	}
	return res, nil
}

// E12HazardRefinement measures the §10.1 extension: survival-analysis
// refinement of prognostics against the phase-1 worst-case envelope.
// A fleet of bearings fails per a Weibull wear-out law; both prognostic
// generators predict P(fail within h | alive at age a) for held-out units,
// scored by Brier score against actual outcomes.
func E12HazardRefinement(seed int64) (*Result, error) {
	rng := rand.New(rand.NewSource(seed + 13))
	trueLife := hazard.Weibull{Shape: 2.5, Scale: 4000} // hours
	draw := func() float64 {
		u := rng.Float64()
		return trueLife.Quantile(u)
	}
	// Historical maintenance archive (§9: "archives of maintenance data").
	history := make([]hazard.Observation, 400)
	for i := range history {
		life := draw()
		if life > 6000 { // study window truncation
			history[i] = hazard.Observation{Time: 6000, Censored: true}
		} else {
			history[i] = hazard.Observation{Time: life}
		}
	}
	fit, err := hazard.FitWeibull(history)
	if err != nil {
		return nil, err
	}

	// Worst-case baseline: the phase-1 §5.4 approach tied to the observed
	// severity grade. Units are inspected at a known age; the baseline maps
	// age to a grade by quartile of characteristic life.
	baselineVector := func(age float64) proto.PrognosticVector {
		frac := age / trueLife.Scale
		var g proto.SeverityGrade
		switch {
		case frac < 0.4:
			g = proto.SeveritySlight
		case frac < 0.8:
			g = proto.SeverityModerate
		case frac < 1.1:
			g = proto.SeveritySerious
		default:
			g = proto.SeverityExtreme
		}
		return vibration.WorstCasePrognostic(g, frac)
	}

	horizons := []float64{250, 500, 1000, 2000} // hours ahead
	const testUnits = 3000
	var brierBase, brierRefined float64
	n := 0
	for i := 0; i < testUnits; i++ {
		life := draw()
		age := rng.Float64() * life // inspected at a uniformly random age while alive
		refined, err := hazard.RefinePrognostic(fit, age, horizons)
		if err != nil {
			continue
		}
		base := baselineVector(age)
		for hi, h := range horizons {
			actual := 0.0
			if life <= age+h {
				actual = 1
			}
			pRef := refined[hi].Probability
			// The worst-case vector is expressed in seconds in the §6.1
			// categories; evaluate it at the horizon converted to days of
			// operation (1 operating hour == 1 hour wall time here).
			pBase := base.ProbabilityAt(time.Duration(h * float64(time.Hour)))
			brierRefined += (pRef - actual) * (pRef - actual)
			brierBase += (pBase - actual) * (pBase - actual)
			n++
		}
	}
	brierRefined /= float64(n)
	brierBase /= float64(n)

	res := &Result{
		ID:         "E12",
		Title:      "Hazard/survival refinement vs worst-case envelope prognostics",
		PaperClaim: "survival analysis of history data 'would yield better projections of future failures' (§10.1)",
		Header:     []string{"metric", "value"},
		Rows: [][]string{
			{"true life distribution", fmt.Sprintf("Weibull(k=%.1f, λ=%.0f h)", trueLife.Shape, trueLife.Scale)},
			{"fitted from 400-unit archive", fmt.Sprintf("Weibull(k=%.2f, λ=%.0f h)", fit.Shape, fit.Scale)},
			{"test predictions scored", fmt.Sprintf("%d", n)},
			{"Brier score, worst-case envelope", f3(brierBase)},
			{"Brier score, hazard-refined", f3(brierRefined)},
			{"improvement", pct(1 - brierRefined/math.Max(brierBase, 1e-12))},
		},
		Notes: []string{
			"lower Brier is better; the refined prognostic conditions on unit age through the fitted hazard, which the grade-quantized worst-case envelope cannot.",
		},
	}
	return res, nil
}

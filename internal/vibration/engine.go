package vibration

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/chiller"
	"repro/internal/dsp"
	"repro/internal/proto"
)

// Diagnosis is one expert-system conclusion before protocol packaging.
type Diagnosis struct {
	// Condition is the machine condition name.
	Condition string
	// Point is the measurement point the call was made from.
	Point chiller.MeasurementPoint
	// Severity is the numeric severity in [0,1] (§6.1's "numerical severity
	// score along with the fault diagnosis").
	Severity float64
	// Grade is the §6.1 gradient category.
	Grade proto.SeverityGrade
	// Belief is the believability factor of the diagnosis.
	Belief float64
	// Explanation and Recommendation are the human-readable report fields.
	Explanation    string
	Recommendation string
}

// Engine is the frame-based rule engine.
type Engine struct {
	cfg       chiller.Config
	rules     []Rule
	threshold float64
}

// NewEngine builds an engine with the standard rulebook. Diagnoses scoring
// below threshold severity are suppressed (the call threshold separating
// "no call" from a Slight call).
func NewEngine(cfg chiller.Config, threshold float64) *Engine {
	return &Engine{cfg: cfg, rules: StandardRules(), threshold: threshold}
}

// Diagnose runs every rule whose measurement point is present in the
// feature set and returns the diagnoses scoring at or above the call
// threshold, sorted by descending severity-weighted belief.
func (e *Engine) Diagnose(features map[chiller.MeasurementPoint]*Features, ctx *Context) ([]Diagnosis, error) {
	if ctx == nil {
		return nil, fmt.Errorf("vibration: nil context")
	}
	var out []Diagnosis
	for _, r := range e.rules {
		f, ok := features[r.Point]
		if !ok {
			continue
		}
		s := r.Score(f, ctx)
		if s < 0 || s > 1 {
			return nil, fmt.Errorf("vibration: rule %q scored %g outside [0,1]", r.Condition, s)
		}
		if s < e.threshold {
			continue
		}
		out = append(out, Diagnosis{
			Condition:      r.Condition,
			Point:          r.Point,
			Severity:       s,
			Grade:          proto.GradeSeverity(s),
			Belief:         r.Believability,
			Explanation:    r.Explanation,
			Recommendation: r.Recommendation,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Severity*out[i].Belief > out[j].Severity*out[j].Belief
	})
	return out, nil
}

// DiagnosePlant acquires one frame per measurement point from the plant and
// diagnoses it — the all-in-one entry point used by the Data Concentrator's
// scheduled vibration test.
func (e *Engine) DiagnosePlant(p *chiller.Plant, frameLen int) ([]Diagnosis, error) {
	ex, err := AcquireExtractor(e.cfg, frameLen)
	if err != nil {
		return nil, err
	}
	defer ex.Release()
	var frames [chiller.NumPoints]Features
	features := make(map[chiller.MeasurementPoint]*Features, chiller.NumPoints)
	for i, pt := range chiller.AllPoints() {
		frame, err := p.AcquireVibration(pt, frameLen)
		if err != nil {
			return nil, err
		}
		if err := ex.ExtractInto(&frames[i], frame, dsp.Waveform(frame), pt); err != nil {
			return nil, err
		}
		features[pt] = &frames[i]
	}
	ctx := &Context{Load: p.Load(), Process: p.ProcessState()}
	return e.Diagnose(features, ctx)
}

// WorstCasePrognostic builds the §5.4-style "worst-case scenario" vector
// for a severity grade: the §6.1 category horizons (months/weeks/days)
// rendered as (probability, time) pairs.
func WorstCasePrognostic(grade proto.SeverityGrade, severity float64) proto.PrognosticVector {
	day := 86400.0
	switch grade {
	case proto.SeverityExtreme:
		return proto.PrognosticVector{
			{Probability: 0.5, HorizonSeconds: 1 * day},
			{Probability: 0.9, HorizonSeconds: 3 * day},
			{Probability: 0.99, HorizonSeconds: 7 * day},
		}
	case proto.SeveritySerious:
		return proto.PrognosticVector{
			{Probability: 0.2, HorizonSeconds: 7 * day},
			{Probability: 0.6, HorizonSeconds: 21 * day},
			{Probability: 0.95, HorizonSeconds: 45 * day},
		}
	case proto.SeverityModerate:
		return proto.PrognosticVector{
			{Probability: 0.1, HorizonSeconds: 30 * day},
			{Probability: 0.5, HorizonSeconds: 90 * day},
			{Probability: 0.9, HorizonSeconds: 180 * day},
		}
	case proto.SeveritySlight:
		return proto.PrognosticVector{
			{Probability: 0.05, HorizonSeconds: 90 * day},
			{Probability: 0.2, HorizonSeconds: 365 * day},
		}
	default:
		return nil
	}
}

// ToReport packages a diagnosis as a protocol report from the given
// knowledge source about the given sensed object.
func (d Diagnosis) ToReport(dcID, ksID, objectID string, at time.Time) *proto.Report {
	return &proto.Report{
		DCID:               dcID,
		KnowledgeSourceID:  ksID,
		SensedObjectID:     objectID,
		MachineConditionID: d.Condition,
		Severity:           d.Severity,
		Belief:             d.Belief,
		Explanation:        d.Explanation,
		Recommendations:    d.Recommendation,
		Timestamp:          at,
		AdditionalInfo:     "measurement point: " + d.Point.String(),
		Prognostics:        WorstCasePrognostic(d.Grade, d.Severity),
	}
}

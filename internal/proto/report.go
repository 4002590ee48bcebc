// Package proto defines the MPROS failure prediction reporting protocol of
// §7: the standard report format every knowledge source uses to deliver
// diagnostic and prognostic conclusions to the PDME, plus transports.
//
// The original system carried these reports over Microsoft DCOM; this
// reproduction substitutes a length-prefixed JSON framing over TCP (a
// co-resident DC hands its reports straight to the PDME, which is a Sink).
// The report schema itself follows §7.2 field-for-field, with the §7.3
// prognostic vector of (probability, time) pairs.
package proto

import (
	"fmt"
	"math"
	"time"
)

// Severity bands used by the DLI expert system (§6.1): the numeric severity
// score is "interpreted through empirical methods which map it into four
// gradient categories" corresponding to expected time to failure.
type SeverityGrade int

const (
	// SeverityNone means no fault indication.
	SeverityNone SeverityGrade = iota
	// SeveritySlight corresponds to "no foreseeable failure".
	SeveritySlight
	// SeverityModerate corresponds to "failure in months".
	SeverityModerate
	// SeveritySerious corresponds to "failure in weeks".
	SeveritySerious
	// SeverityExtreme corresponds to "failure in days".
	SeverityExtreme
)

// String names the grade.
func (g SeverityGrade) String() string {
	switch g {
	case SeverityNone:
		return "None"
	case SeveritySlight:
		return "Slight"
	case SeverityModerate:
		return "Moderate"
	case SeveritySerious:
		return "Serious"
	case SeverityExtreme:
		return "Extreme"
	default:
		return "Unknown"
	}
}

// GradeSeverity maps a numeric severity in [0,1] to its gradient category
// using the empirical thresholds of the reproduction's rulebook.
func GradeSeverity(severity float64) SeverityGrade {
	switch {
	case severity <= 0:
		return SeverityNone
	case severity < 0.25:
		return SeveritySlight
	case severity < 0.5:
		return SeverityModerate
	case severity < 0.75:
		return SeveritySerious
	default:
		return SeverityExtreme
	}
}

// PrognosticPoint is one "(probability, time)" pair of §7.3: "the
// probability that the given machine condition will lead to failure of the
// machine within 'time' seconds from now".
type PrognosticPoint struct {
	// Probability of failure within the horizon, in [0,1].
	Probability float64 `json:"probability"`
	// Horizon is the time from report issuance, in seconds (§7.3 uses
	// seconds on the wire; helpers accept time.Duration).
	HorizonSeconds float64 `json:"time"`
}

// PrognosticVector is zero to n ordered prognostic points.
type PrognosticVector []PrognosticPoint

// Validate checks ordering (strictly increasing horizons), monotone
// non-decreasing probability, and ranges.
func (v PrognosticVector) Validate() error {
	for i, p := range v {
		if p.Probability < 0 || p.Probability > 1 || math.IsNaN(p.Probability) {
			return fmt.Errorf("proto: prognostic point %d probability %g outside [0,1]", i, p.Probability)
		}
		if p.HorizonSeconds <= 0 || math.IsNaN(p.HorizonSeconds) || math.IsInf(p.HorizonSeconds, 0) {
			return fmt.Errorf("proto: prognostic point %d horizon %g not positive finite", i, p.HorizonSeconds)
		}
		if i > 0 {
			if p.HorizonSeconds <= v[i-1].HorizonSeconds {
				return fmt.Errorf("proto: prognostic horizons not strictly increasing at %d", i)
			}
			if p.Probability < v[i-1].Probability {
				return fmt.Errorf("proto: prognostic probabilities decrease at %d", i)
			}
		}
	}
	return nil
}

// ProbabilityAt linearly interpolates the failure probability at horizon t.
// Before the first point it interpolates from (0,0); past the last point it
// extrapolates along the last segment's slope, clamped to [last.P, 1]. This
// is the "interpolating a smooth curve from point to point" primitive of
// §5.4 used by prognostic knowledge fusion.
func (v PrognosticVector) ProbabilityAt(t time.Duration) float64 {
	if len(v) == 0 {
		return 0
	}
	ts := t.Seconds()
	if ts <= 0 {
		return 0
	}
	prevT, prevP := 0.0, 0.0
	for _, p := range v {
		if ts <= p.HorizonSeconds {
			span := p.HorizonSeconds - prevT
			if span <= 0 {
				return p.Probability
			}
			frac := (ts - prevT) / span
			return prevP + frac*(p.Probability-prevP)
		}
		prevT, prevP = p.HorizonSeconds, p.Probability
	}
	// Extrapolate beyond the final point along the last segment slope.
	last := v[len(v)-1]
	var slope float64
	if len(v) >= 2 {
		pen := v[len(v)-2]
		if last.HorizonSeconds > pen.HorizonSeconds {
			slope = (last.Probability - pen.Probability) / (last.HorizonSeconds - pen.HorizonSeconds)
		}
	} else if last.HorizonSeconds > 0 {
		slope = last.Probability / last.HorizonSeconds
	}
	p := last.Probability + slope*(ts-last.HorizonSeconds)
	if p > 1 {
		p = 1
	}
	if p < last.Probability {
		p = last.Probability
	}
	return p
}

// TimeToProbability returns the earliest horizon at which the interpolated
// curve reaches probability target, or (0, false) if it never does within
// maxHorizon.
func (v PrognosticVector) TimeToProbability(target float64, maxHorizon time.Duration) (time.Duration, bool) {
	if len(v) == 0 || target <= 0 {
		return 0, false
	}
	step := maxHorizon / 1000
	if step <= 0 {
		return 0, false
	}
	for t := step; t <= maxHorizon; t += step {
		if v.ProbabilityAt(t) >= target {
			return t, true
		}
	}
	return 0, false
}

// Report is the §7.2 failure prediction report. Optional text fields may be
// empty; a report may carry a diagnostic part, a prognostic vector, or both.
type Report struct {
	// DCID identifies the data concentrator that originated the report
	// ("DC ID", §5.5).
	DCID string `json:"dc_id"`
	// KnowledgeSourceID is "the unique MPROS object ID for the instance of
	// the knowledge source" (§7.2 item 1).
	KnowledgeSourceID string `json:"knowledge_source_id"`
	// SensedObjectID is the object the report applies to (§7.2 item 2).
	SensedObjectID string `json:"sensed_object_id"`
	// MachineConditionID names the diagnosed machine condition, e.g.
	// "motor imbalance", "pump bearing housing looseness" (§7.2 item 3).
	MachineConditionID string `json:"machine_condition_id"`
	// Severity in [0,1]; maximal severity is 1.0 (§7.2 item 4).
	Severity float64 `json:"severity"`
	// Belief in [0,1] that this diagnosis is true (§7.2 item 5).
	Belief float64 `json:"belief"`
	// Explanation is an optional human-readable diagnosis description.
	Explanation string `json:"explanation,omitempty"`
	// Recommendations is an optional human-readable action description.
	Recommendations string `json:"recommendations,omitempty"`
	// Timestamp is when the report should be considered effective.
	Timestamp time.Time `json:"timestamp"`
	// AdditionalInfo is optional extra human-readable information.
	AdditionalInfo string `json:"additional_info,omitempty"`
	// SuspectChannels lists raw sensor channels the DC's channel guards
	// flagged (stuck-at, dropout, spike) while producing the evidence behind
	// this report. A non-empty list means Belief was capped at the guard's
	// believability ceiling and downstream consumers should treat the
	// conclusion as provisional until the channel clears.
	SuspectChannels []string `json:"suspect_channels,omitempty"`
	// Prognostics is the §7.3 vector; may be empty for pure diagnostics.
	Prognostics PrognosticVector `json:"prognostics,omitempty"`
}

// Validate checks field ranges and the prognostic vector.
func (r *Report) Validate() error {
	if r.KnowledgeSourceID == "" {
		return fmt.Errorf("proto: report missing knowledge source id")
	}
	if r.SensedObjectID == "" {
		return fmt.Errorf("proto: report missing sensed object id")
	}
	if r.MachineConditionID == "" {
		return fmt.Errorf("proto: report missing machine condition id")
	}
	if r.Severity < 0 || r.Severity > 1 || math.IsNaN(r.Severity) {
		return fmt.Errorf("proto: severity %g outside [0,1]", r.Severity)
	}
	if r.Belief < 0 || r.Belief > 1 || math.IsNaN(r.Belief) {
		return fmt.Errorf("proto: belief %g outside [0,1]", r.Belief)
	}
	if r.Timestamp.IsZero() {
		return fmt.Errorf("proto: report missing timestamp")
	}
	return r.Prognostics.Validate()
}

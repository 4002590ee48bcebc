package fuzzy

import (
	"fmt"
	"time"

	"repro/internal/chiller"
	"repro/internal/proto"
)

// ChillerDiagnostics wraps a Mamdani system configured for the two
// refrigeration-cycle failure modes the vibration analyzers cannot see:
// low refrigerant charge and condenser fouling. Inputs are the §2 "slower
// changing parameters" read from the plant's process telemetry.
type ChillerDiagnostics struct {
	sys *System
}

// NewChillerDiagnostics builds the standard process-side rulebase.
// Membership functions are calibrated to the simulator's healthy operating
// envelope at typical shipboard loads.
func NewChillerDiagnostics() (*ChillerDiagnostics, error) {
	inputs := []Variable{
		{
			Name: "evap_pressure", Min: 10, Max: 50,
			Terms: map[string]MF{
				"low":    ShoulderLeft{B: 24, C: 31},
				"normal": Trapezoid{A: 28, B: 32, C: 38, D: 42},
				"high":   ShoulderRight{A: 38, B: 44},
			},
		},
		{
			Name: "superheat", Min: 0, Max: 40,
			Terms: map[string]MF{
				"normal": ShoulderLeft{B: 12, C: 17},
				"high":   Trapezoid{A: 13, B: 18, C: 26, D: 30},
				"severe": ShoulderRight{A: 25, B: 32},
			},
		},
		{
			Name: "cond_pressure", Min: 80, Max: 180,
			Terms: map[string]MF{
				"normal": ShoulderLeft{B: 125, C: 136},
				"high":   Trapezoid{A: 128, B: 140, C: 152, D: 160},
				"severe": ShoulderRight{A: 152, B: 165},
			},
		},
		{
			Name: "cond_approach", Min: 0, Max: 20,
			Terms: map[string]MF{
				"normal": ShoulderLeft{B: 5.5, C: 8},
				"high":   ShoulderRight{A: 6.5, B: 10.5},
			},
		},
		{
			Name: "load", Min: 0, Max: 1,
			Terms: map[string]MF{
				"light": ShoulderLeft{B: 0.25, C: 0.45},
				"mid":   Trapezoid{A: 0.3, B: 0.45, C: 0.75, D: 0.9},
				"heavy": ShoulderRight{A: 0.7, B: 0.85},
			},
		},
	}
	sevTerms := func() map[string]MF {
		return map[string]MF{
			"none":     ShoulderLeft{B: 0.05, C: 0.2},
			"slight":   Triangular{A: 0.1, B: 0.3, C: 0.5},
			"moderate": Triangular{A: 0.35, B: 0.55, C: 0.75},
			"serious":  Triangular{A: 0.6, B: 0.78, C: 0.92},
			"extreme":  ShoulderRight{A: 0.82, B: 0.95},
		}
	}
	outputs := []Variable{
		{Name: "low_charge", Min: 0, Max: 1, Terms: sevTerms()},
		{Name: "fouling", Min: 0, Max: 1, Terms: sevTerms()},
	}
	rules := []Rule{
		// Low refrigerant charge: depressed suction pressure with elevated
		// superheat. Both signs together make the strong call; each alone a
		// weaker one (single-symptom rules carry reduced weight).
		{If: []Clause{{"evap_pressure", "low"}, {"superheat", "severe"}}, Op: And,
			Then: Clause{"low_charge", "extreme"}, Weight: 1},
		{If: []Clause{{"evap_pressure", "low"}, {"superheat", "high"}}, Op: And,
			Then: Clause{"low_charge", "serious"}, Weight: 1},
		{If: []Clause{{"evap_pressure", "low"}, {"superheat", "normal"}}, Op: And,
			Then: Clause{"low_charge", "slight"}, Weight: 0.6},
		{If: []Clause{{"superheat", "high"}, {"evap_pressure", "normal"}}, Op: And,
			Then: Clause{"low_charge", "slight"}, Weight: 0.5},
		{If: []Clause{{"evap_pressure", "normal"}, {"superheat", "normal"}}, Op: And,
			Then: Clause{"low_charge", "none"}, Weight: 1},
		{If: []Clause{{"evap_pressure", "high"}}, Op: And,
			Then: Clause{"low_charge", "none"}, Weight: 1},

		// Condenser fouling: elevated head pressure and condenser approach.
		// Heavy load legitimately raises head pressure, so the rules demand
		// the approach-temperature confirmation at heavy load (the fuzzy
		// analogue of §6.1 load sensitization).
		{If: []Clause{{"cond_pressure", "severe"}, {"cond_approach", "high"}}, Op: And,
			Then: Clause{"fouling", "extreme"}, Weight: 1},
		{If: []Clause{{"cond_pressure", "high"}, {"cond_approach", "high"}}, Op: And,
			Then: Clause{"fouling", "serious"}, Weight: 1},
		{If: []Clause{{"cond_pressure", "high"}, {"cond_approach", "normal"}, {"load", "heavy"}}, Op: And,
			Then: Clause{"fouling", "none"}, Weight: 0.9},
		{If: []Clause{{"cond_pressure", "high"}, {"cond_approach", "normal"}, {"load", "mid"}}, Op: And,
			Then: Clause{"fouling", "slight"}, Weight: 0.5},
		{If: []Clause{{"cond_approach", "high"}, {"cond_pressure", "normal"}}, Op: And,
			Then: Clause{"fouling", "moderate"}, Weight: 0.7},
		{If: []Clause{{"cond_pressure", "normal"}, {"cond_approach", "normal"}}, Op: And,
			Then: Clause{"fouling", "none"}, Weight: 1},
	}
	sys, err := NewSystem(inputs, outputs, rules)
	if err != nil {
		return nil, err
	}
	return &ChillerDiagnostics{sys: sys}, nil
}

// Result is one fuzzy diagnostic conclusion.
type Result struct {
	// Condition is the machine condition name.
	Condition string
	// Severity is the defuzzified severity in [0,1].
	Severity float64
	// Grade is the §6.1 gradient category.
	Grade proto.SeverityGrade
	// Belief for fuzzy process diagnoses.
	Belief float64
}

// Diagnose evaluates the rulebase against a process snapshot and returns
// conclusions whose severity clears the call threshold.
func (c *ChillerDiagnostics) Diagnose(ps chiller.ProcessState, threshold float64) ([]Result, error) {
	// Inputs and outputs in the order NewChillerDiagnostics declares them.
	in := [...]float64{ps.EvapPressurePSI, ps.SuperheatF, ps.CondPressurePSI, ps.CondApproachF, ps.LoadFraction}
	var out [2]float64 // low_charge, fouling
	if err := c.sys.Infer(in[:], out[:]); err != nil {
		return nil, err
	}
	var results []Result
	add := func(cond string, sev float64) {
		if sev >= threshold {
			results = append(results, Result{
				Condition: cond,
				Severity:  sev,
				Grade:     proto.GradeSeverity(sev),
				Belief:    0.85,
			})
		}
	}
	add(chiller.RefrigerantLowCharge.String(), out[0])
	add(chiller.CondenserFouling.String(), out[1])
	return results, nil
}

// ToReport packages a fuzzy result as a protocol report.
func (r Result) ToReport(dcID, objectID string, at time.Time) *proto.Report {
	return &proto.Report{
		DCID:               dcID,
		KnowledgeSourceID:  "ks/fuzzy",
		SensedObjectID:     objectID,
		MachineConditionID: r.Condition,
		Severity:           r.Severity,
		Belief:             r.Belief,
		Explanation:        fmt.Sprintf("fuzzy process-data inference, defuzzified severity %.2f", r.Severity),
		Timestamp:          at,
		Prognostics:        processPrognostic(r.Grade),
	}
}

// processPrognostic mirrors vibration.WorstCasePrognostic for process
// faults, which progress more slowly than mechanical ones.
func processPrognostic(g proto.SeverityGrade) proto.PrognosticVector {
	day := 86400.0
	switch g {
	case proto.SeverityExtreme:
		return proto.PrognosticVector{{Probability: 0.5, HorizonSeconds: 7 * day}, {Probability: 0.9, HorizonSeconds: 21 * day}}
	case proto.SeveritySerious:
		return proto.PrognosticVector{{Probability: 0.3, HorizonSeconds: 30 * day}, {Probability: 0.8, HorizonSeconds: 90 * day}}
	case proto.SeverityModerate:
		return proto.PrognosticVector{{Probability: 0.2, HorizonSeconds: 90 * day}, {Probability: 0.6, HorizonSeconds: 270 * day}}
	case proto.SeveritySlight:
		return proto.PrognosticVector{{Probability: 0.1, HorizonSeconds: 365 * day}}
	default:
		return nil
	}
}

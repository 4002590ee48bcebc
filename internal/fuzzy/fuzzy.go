// Package fuzzy implements the Mamdani fuzzy-logic inference engine behind
// the fourth MPROS algorithm suite (§1.1): "Fuzzy Logic diagnostics and
// prognostics also developed by Georgia Tech which draws diagnostic and
// prognostic conclusions from non-vibrational data."
//
// The engine is classical Mamdani: triangular/trapezoidal/shoulder
// membership functions over linguistic variables, min/max rule evaluation,
// max aggregation of clipped consequents, and centroid defuzzification.
// The chiller rulebase in rulebase.go maps process telemetry (pressures,
// superheat, approach temperatures) to refrigeration-cycle fault severities.
package fuzzy

import (
	"fmt"
	"math"
	"sort"
)

// MF is a membership function over a real domain.
type MF interface {
	// Degree returns the membership in [0,1] of x.
	Degree(x float64) float64
}

// Triangular is a triangle with feet at A and C and apex at B.
type Triangular struct{ A, B, C float64 }

// Degree implements MF.
func (t Triangular) Degree(x float64) float64 {
	switch {
	case x <= t.A || x >= t.C:
		return 0
	case x < t.B:
		return (x - t.A) / (t.B - t.A)
	default:
		// x == t.B lands here and yields exactly (C-B)/(C-B) == 1, so the
		// apex needs no exact float comparison of its own.
		return (t.C - x) / (t.C - t.B)
	}
}

// Trapezoid has feet at A and D and a plateau from B to C.
type Trapezoid struct{ A, B, C, D float64 }

// Degree implements MF.
func (t Trapezoid) Degree(x float64) float64 {
	switch {
	case x <= t.A || x >= t.D:
		return 0
	case x >= t.B && x <= t.C:
		return 1
	case x < t.B:
		return (x - t.A) / (t.B - t.A)
	default:
		return (t.D - x) / (t.D - t.C)
	}
}

// ShoulderLeft is 1 below B, ramping to 0 at C (open to the left).
type ShoulderLeft struct{ B, C float64 }

// Degree implements MF.
func (s ShoulderLeft) Degree(x float64) float64 {
	switch {
	case x <= s.B:
		return 1
	case x >= s.C:
		return 0
	default:
		return (s.C - x) / (s.C - s.B)
	}
}

// ShoulderRight is 0 below A, ramping to 1 at B (open to the right).
type ShoulderRight struct{ A, B float64 }

// Degree implements MF.
func (s ShoulderRight) Degree(x float64) float64 {
	switch {
	case x <= s.A:
		return 0
	case x >= s.B:
		return 1
	default:
		return (x - s.A) / (s.B - s.A)
	}
}

// Variable is a linguistic variable: a named domain with term membership
// functions.
type Variable struct {
	// Name identifies the variable in rules and inference inputs.
	Name string
	// Min and Max bound the domain (used for defuzzification sampling).
	Min, Max float64
	// Terms maps linguistic term names to membership functions.
	Terms map[string]MF
}

// Clause is "Var is Term".
type Clause struct {
	Var  string
	Term string
}

// Connective joins antecedent clauses.
type Connective int

const (
	// And uses min of clause degrees.
	And Connective = iota
	// Or uses max of clause degrees.
	Or
)

// Rule is a Mamdani rule: IF antecedents (joined by Op) THEN consequent,
// scaled by Weight in (0,1].
type Rule struct {
	If     []Clause
	Op     Connective
	Then   Clause
	Weight float64
}

// System is a compiled Mamdani inference system.
type System struct {
	inputs  map[string]Variable
	outputs map[string]Variable
	rules   []Rule
	samples int
}

// NewSystem builds a system from variables and rules. Every rule clause
// must reference a declared variable and term; antecedents reference
// inputs and consequents reference outputs.
func NewSystem(inputs, outputs []Variable, rules []Rule) (*System, error) {
	s := &System{
		inputs:  make(map[string]Variable, len(inputs)),
		outputs: make(map[string]Variable, len(outputs)),
		rules:   rules,
		samples: 201,
	}
	addVars := func(dst map[string]Variable, vars []Variable, kind string) error {
		for _, v := range vars {
			if v.Name == "" {
				return fmt.Errorf("fuzzy: unnamed %s variable", kind)
			}
			if v.Max <= v.Min {
				return fmt.Errorf("fuzzy: variable %q has empty domain", v.Name)
			}
			if len(v.Terms) == 0 {
				return fmt.Errorf("fuzzy: variable %q has no terms", v.Name)
			}
			if _, dup := dst[v.Name]; dup {
				return fmt.Errorf("fuzzy: duplicate variable %q", v.Name)
			}
			dst[v.Name] = v
		}
		return nil
	}
	if err := addVars(s.inputs, inputs, "input"); err != nil {
		return nil, err
	}
	if err := addVars(s.outputs, outputs, "output"); err != nil {
		return nil, err
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("fuzzy: no rules")
	}
	for i, r := range rules {
		if len(r.If) == 0 {
			return nil, fmt.Errorf("fuzzy: rule %d has no antecedents", i)
		}
		if r.Weight <= 0 || r.Weight > 1 {
			return nil, fmt.Errorf("fuzzy: rule %d weight %g outside (0,1]", i, r.Weight)
		}
		for _, c := range r.If {
			v, ok := s.inputs[c.Var]
			if !ok {
				return nil, fmt.Errorf("fuzzy: rule %d references unknown input %q", i, c.Var)
			}
			if _, ok := v.Terms[c.Term]; !ok {
				return nil, fmt.Errorf("fuzzy: rule %d: input %q has no term %q", i, c.Var, c.Term)
			}
		}
		v, ok := s.outputs[r.Then.Var]
		if !ok {
			return nil, fmt.Errorf("fuzzy: rule %d references unknown output %q", i, r.Then.Var)
		}
		if _, ok := v.Terms[r.Then.Term]; !ok {
			return nil, fmt.Errorf("fuzzy: rule %d: output %q has no term %q", i, r.Then.Var, r.Then.Term)
		}
	}
	return s, nil
}

// Infer runs Mamdani inference: fuzzify, evaluate rules, aggregate clipped
// consequents per output, and defuzzify by centroid. Inputs outside a
// variable's domain are clamped. Missing inputs are an error. Outputs with
// no activated rule defuzzify to the domain minimum.
func (s *System) Infer(in map[string]float64) (map[string]float64, error) {
	for name := range s.inputs {
		if _, ok := in[name]; !ok {
			return nil, fmt.Errorf("fuzzy: missing input %q", name)
		}
	}
	for name := range in {
		if _, ok := s.inputs[name]; !ok {
			return nil, fmt.Errorf("fuzzy: unexpected input %q", name)
		}
	}
	// Rule activations grouped by output variable, recording the clip level
	// per consequent term.
	type clipped struct {
		term  string
		level float64
	}
	activations := make(map[string][]clipped)
	for _, r := range s.rules {
		var level float64
		if r.Op == And {
			level = 1
		}
		for _, c := range r.If {
			v := s.inputs[c.Var]
			x := clamp(in[c.Var], v.Min, v.Max)
			d := v.Terms[c.Term].Degree(x)
			if r.Op == And {
				level = math.Min(level, d)
			} else {
				level = math.Max(level, d)
			}
		}
		level *= r.Weight
		if level > 0 {
			activations[r.Then.Var] = append(activations[r.Then.Var], clipped{r.Then.Term, level})
		}
	}
	out := make(map[string]float64, len(s.outputs))
	names := make([]string, 0, len(s.outputs))
	for n := range s.outputs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		v := s.outputs[name]
		acts := activations[name]
		if len(acts) == 0 {
			out[name] = v.Min
			continue
		}
		// Centroid of the max-aggregated clipped membership functions.
		var num, den float64
		step := (v.Max - v.Min) / float64(s.samples-1)
		for i := 0; i < s.samples; i++ {
			x := v.Min + float64(i)*step
			var mu float64
			for _, a := range acts {
				d := math.Min(v.Terms[a.term].Degree(x), a.level)
				if d > mu {
					mu = d
				}
			}
			num += x * mu
			den += mu
		}
		if den == 0 {
			out[name] = v.Min
		} else {
			out[name] = num / den
		}
	}
	return out, nil
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

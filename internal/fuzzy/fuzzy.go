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
	"slices"
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

// System is a compiled Mamdani inference system. NewSystem resolves every
// rule clause to its input's index and membership function and every
// consequent to its output's, so inference looks nothing up by name. A
// System is read-only after NewSystem and may be shared between goroutines.
type System struct {
	// inputs, outputs and rules are as declared.
	inputs  []Variable
	outputs []Variable
	rules   []Rule
	// compiled holds the rules grouped by output in declaration order,
	// in rule order within each output; output o's are
	// compiled[groups[o]:groups[o+1]].
	compiled []compiledRule
	groups   []int
	samples  int
}

// maxRules bounds a system's rules, so inference keeps its activations in
// a fixed buffer on its stack.
const maxRules = 64

// compiledRule is a Rule resolved to indices and membership functions.
type compiledRule struct {
	clauses []compiledClause
	op      Connective
	weight  float64
	then    MF
}

// compiledClause is a Clause resolved to its input's index and term.
type compiledClause struct {
	in int
	mf MF
}

// activation is a rule's consequent clipped at the rule's firing level.
type activation struct {
	mf    MF
	level float64
}

// NewSystem builds a system from variables and rules. Every rule clause
// must reference a declared variable and term; antecedents reference
// inputs and consequents reference outputs. A system holds at most 64
// rules.
func NewSystem(inputs, outputs []Variable, rules []Rule) (*System, error) {
	index := func(vars []Variable, kind string) (map[string]int, error) {
		idx := make(map[string]int, len(vars))
		for i, v := range vars {
			if v.Name == "" {
				return nil, fmt.Errorf("fuzzy: unnamed %s variable", kind)
			}
			if v.Max <= v.Min {
				return nil, fmt.Errorf("fuzzy: variable %q has empty domain", v.Name)
			}
			if len(v.Terms) == 0 {
				return nil, fmt.Errorf("fuzzy: variable %q has no terms", v.Name)
			}
			if _, dup := idx[v.Name]; dup {
				return nil, fmt.Errorf("fuzzy: duplicate variable %q", v.Name)
			}
			idx[v.Name] = i
		}
		return idx, nil
	}
	inIdx, err := index(inputs, "input")
	if err != nil {
		return nil, err
	}
	outIdx, err := index(outputs, "output")
	if err != nil {
		return nil, err
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("fuzzy: no rules")
	}
	if len(rules) > maxRules {
		return nil, fmt.Errorf("fuzzy: %d rules, at most %d", len(rules), maxRules)
	}
	byOutput := make([][]compiledRule, len(outputs))
	for i, r := range rules {
		if len(r.If) == 0 {
			return nil, fmt.Errorf("fuzzy: rule %d has no antecedents", i)
		}
		if r.Weight <= 0 || r.Weight > 1 {
			return nil, fmt.Errorf("fuzzy: rule %d weight %g outside (0,1]", i, r.Weight)
		}
		cr := compiledRule{clauses: make([]compiledClause, len(r.If)), op: r.Op, weight: r.Weight}
		for k, c := range r.If {
			in, ok := inIdx[c.Var]
			if !ok {
				return nil, fmt.Errorf("fuzzy: rule %d references unknown input %q", i, c.Var)
			}
			mf, ok := inputs[in].Terms[c.Term]
			if !ok {
				return nil, fmt.Errorf("fuzzy: rule %d: input %q has no term %q", i, c.Var, c.Term)
			}
			cr.clauses[k] = compiledClause{in: in, mf: mf}
		}
		out, ok := outIdx[r.Then.Var]
		if !ok {
			return nil, fmt.Errorf("fuzzy: rule %d references unknown output %q", i, r.Then.Var)
		}
		if cr.then, ok = outputs[out].Terms[r.Then.Term]; !ok {
			return nil, fmt.Errorf("fuzzy: rule %d: output %q has no term %q", i, r.Then.Var, r.Then.Term)
		}
		byOutput[out] = append(byOutput[out], cr)
	}
	s := &System{
		inputs:  slices.Clone(inputs),
		outputs: slices.Clone(outputs),
		rules:   rules,
		groups:  make([]int, 1, len(outputs)+1),
		samples: 201,
	}
	for _, rs := range byOutput {
		s.compiled = append(s.compiled, rs...)
		s.groups = append(s.groups, len(s.compiled))
	}
	return s, nil
}

// Infer runs Mamdani inference: fuzzify, evaluate rules, aggregate clipped
// consequents per output, and defuzzify by centroid. in holds one value per
// input and out receives one per output, both in declaration order. Inputs
// outside a variable's domain are clamped. Outputs with no activated rule
// defuzzify to the domain minimum.
//
//mpros:hotpath fuzzy process diagnosis on every DC process scan
func (s *System) Infer(in, out []float64) error {
	if len(in) != len(s.inputs) {
		return fmt.Errorf("fuzzy: %d inputs, want %d", len(in), len(s.inputs))
	}
	if len(out) != len(s.outputs) {
		return fmt.Errorf("fuzzy: room for %d outputs, want %d", len(out), len(s.outputs))
	}
	var acts [maxRules]activation
	for o := range s.outputs {
		v := &s.outputs[o]
		n := 0
		for _, r := range s.compiled[s.groups[o]:s.groups[o+1]] {
			var level float64
			if r.op == And {
				level = 1
			}
			for _, c := range r.clauses {
				iv := &s.inputs[c.in]
				x := clamp(in[c.in], iv.Min, iv.Max)
				d := c.mf.Degree(x)
				if r.op == And {
					level = math.Min(level, d)
				} else {
					level = math.Max(level, d)
				}
			}
			level *= r.weight
			if level > 0 {
				acts[n] = activation{mf: r.then, level: level}
				n++
			}
		}
		if n == 0 {
			out[o] = v.Min
			continue
		}
		// Centroid of the max-aggregated clipped membership functions.
		var num, den float64
		step := (v.Max - v.Min) / float64(s.samples-1)
		for i := 0; i < s.samples; i++ {
			x := v.Min + float64(i)*step
			var mu float64
			for _, a := range acts[:n] {
				d := math.Min(a.mf.Degree(x), a.level)
				if d > mu {
					mu = d
				}
			}
			num += x * mu
			den += mu
		}
		if den == 0 {
			out[o] = v.Min
		} else {
			out[o] = num / den
		}
	}
	return nil
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

package fuzzy

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// referenceInfer is Mamdani inference as the engine first ran it, over the
// system's variables and rules by name: fuzzify, evaluate rules, aggregate
// clipped consequents per output, and defuzzify by centroid. The compiled
// engine is held to it bit for bit.
func referenceInfer(s *System, in map[string]float64) (map[string]float64, error) {
	inputs := make(map[string]Variable, len(s.inputs))
	for _, v := range s.inputs {
		inputs[v.Name] = v
	}
	outputs := make(map[string]Variable, len(s.outputs))
	for _, v := range s.outputs {
		outputs[v.Name] = v
	}
	for name := range inputs {
		if _, ok := in[name]; !ok {
			return nil, fmt.Errorf("fuzzy: missing input %q", name)
		}
	}
	for name := range in {
		if _, ok := inputs[name]; !ok {
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
			v := inputs[c.Var]
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
	out := make(map[string]float64, len(outputs))
	names := make([]string, 0, len(outputs))
	for n := range outputs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		v := outputs[name]
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

// engineInfer runs the compiled engine on named inputs and names its
// outputs.
func engineInfer(s *System, in map[string]float64) (map[string]float64, error) {
	if len(in) != len(s.inputs) {
		return nil, fmt.Errorf("fuzzy: %d named inputs, want %d", len(in), len(s.inputs))
	}
	vals := make([]float64, len(s.inputs))
	for i, v := range s.inputs {
		x, ok := in[v.Name]
		if !ok {
			return nil, fmt.Errorf("fuzzy: missing input %q", v.Name)
		}
		vals[i] = x
	}
	res := make([]float64, len(s.outputs))
	if err := s.Infer(vals, res); err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(res))
	for i, v := range s.outputs {
		out[v.Name] = res[i]
	}
	return out, nil
}

// TestEngineMatchesReferenceBits draws seeded inputs for the chiller
// rulebase and the test systems — inside each domain, beyond it (clamped),
// on term breakpoints, and non-finite or out of every term (no rule fires)
// — and requires every output to carry the reference's exact bits.
func TestEngineMatchesReferenceBits(t *testing.T) {
	cd, err := NewChillerDiagnostics()
	if err != nil {
		t.Fatal(err)
	}
	systems := map[string]*System{"chiller": cd.sys, "fan": simpleSystem(t), "or": orSystem(t)}
	rng := rand.New(rand.NewSource(63))
	var inDomain, clamped, silent int
	for _, name := range []string{"chiller", "fan", "or"} {
		s := systems[name]
		vars := s.inputs
		for k := range 3000 {
			in := make(map[string]float64, len(vars))
			for _, v := range vars {
				span := v.Max - v.Min
				switch k % 6 {
				case 0, 1, 2:
					in[v.Name] = v.Min + rng.Float64()*span
				case 3:
					in[v.Name] = v.Min - span*(0.01+rng.Float64()*10)
					if rng.Intn(2) == 0 {
						in[v.Name] = v.Max + span*(0.01+rng.Float64()*10)
					}
				case 4:
					// A breakpoint of one of the variable's terms, or a bound.
					in[v.Name] = breakpoint(rng, v)
				case 5:
					in[v.Name] = []float64{math.NaN(), math.Inf(1), math.Inf(-1), v.Min, v.Max}[rng.Intn(5)]
				}
			}
			want, err := referenceInfer(s, in)
			if err != nil {
				t.Fatal(err)
			}
			got, err := engineInfer(s, in)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s %v: outputs %v, want %v", name, in, got, want)
			}
			for out, w := range want {
				g, ok := got[out]
				if !ok || math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s %v: %s = %v (%#x), want %v (%#x)", name, in, out, g, math.Float64bits(g), w, math.Float64bits(w))
				}
				for _, v := range s.outputs {
					if v.Name == out && math.Float64bits(w) == math.Float64bits(v.Min) {
						silent++
					}
				}
			}
			switch k % 6 {
			case 3:
				clamped++
			case 0, 1, 2:
				inDomain++
			}
		}
	}
	if inDomain == 0 || clamped == 0 || silent == 0 {
		t.Fatalf("draws: %d in domain, %d clamped, %d outputs with no activation", inDomain, clamped, silent)
	}
}

// breakpoint returns a term breakpoint of v, or one of its bounds.
func breakpoint(rng *rand.Rand, v Variable) float64 {
	var pts []float64
	names := make([]string, 0, len(v.Terms))
	for n := range v.Terms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		switch m := v.Terms[n].(type) {
		case Triangular:
			pts = append(pts, m.A, m.B, m.C)
		case Trapezoid:
			pts = append(pts, m.A, m.B, m.C, m.D)
		case ShoulderLeft:
			pts = append(pts, m.B, m.C)
		case ShoulderRight:
			pts = append(pts, m.A, m.B)
		}
	}
	pts = append(pts, v.Min, v.Max)
	return pts[rng.Intn(len(pts))]
}

// orSystem is two inputs joined by Or onto one output.
func orSystem(t *testing.T) *System {
	t.Helper()
	in := []Variable{
		{Name: "a", Min: 0, Max: 1, Terms: map[string]MF{"hi": ShoulderRight{A: 0.4, B: 0.6}}},
		{Name: "b", Min: 0, Max: 1, Terms: map[string]MF{"hi": ShoulderRight{A: 0.4, B: 0.6}}},
	}
	out := []Variable{{Name: "y", Min: 0, Max: 1, Terms: map[string]MF{
		"on":  ShoulderRight{A: 0.5, B: 0.8},
		"off": ShoulderLeft{B: 0.2, C: 0.5},
	}}}
	rules := []Rule{
		{If: []Clause{{"a", "hi"}, {"b", "hi"}}, Op: Or, Then: Clause{"y", "on"}, Weight: 1},
	}
	s, err := NewSystem(in, out, rules)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

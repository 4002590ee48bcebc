package bayes

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// sprinkler builds the classic rain/sprinkler/wet-grass network with known
// posterior values for cross-checking the inference engine.
func sprinkler(t testing.TB) *Network {
	t.Helper()
	n := NewNetwork()
	boolStates := []string{"true", "false"}
	if err := n.AddVariable(Variable{Name: "rain", States: boolStates}); err != nil {
		t.Fatal(err)
	}
	if err := n.AddVariable(Variable{Name: "sprinkler", States: boolStates}, "rain"); err != nil {
		t.Fatal(err)
	}
	if err := n.AddVariable(Variable{Name: "wet", States: boolStates}, "rain", "sprinkler"); err != nil {
		t.Fatal(err)
	}
	if err := n.SetCPT("rain", [][]float64{{0.2, 0.8}}); err != nil {
		t.Fatal(err)
	}
	// P(sprinkler|rain=true)=0.01, P(sprinkler|rain=false)=0.4.
	if err := n.SetCPT("sprinkler", [][]float64{{0.01, 0.99}, {0.4, 0.6}}); err != nil {
		t.Fatal(err)
	}
	// Rows: (rain=T,spr=T),(T,F),(F,T),(F,F).
	if err := n.SetCPT("wet", [][]float64{
		{0.99, 0.01},
		{0.8, 0.2},
		{0.9, 0.1},
		{0.0, 1.0},
	}); err != nil {
		t.Fatal(err)
	}
	if err := n.Compile(); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestSprinklerPosterior(t *testing.T) {
	n := sprinkler(t)
	// Known result: P(rain=true | wet=true) ≈ 0.3577.
	p, err := n.Query("rain", Evidence{"wet": "true"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p["true"]-0.3577) > 0.001 {
		t.Errorf("P(rain|wet) = %g, want ≈0.3577", p["true"])
	}
	if math.Abs(p["true"]+p["false"]-1) > 1e-9 {
		t.Errorf("posterior not normalized: %v", p)
	}
	// Known result: P(sprinkler=true | wet=true) ≈ 0.6467.
	q, err := n.Query("sprinkler", Evidence{"wet": "true"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q["true"]-0.6467) > 0.001 {
		t.Errorf("P(sprinkler|wet) = %g, want ≈0.6467", q["true"])
	}
}

func TestPriorQuery(t *testing.T) {
	n := sprinkler(t)
	p, err := n.Query("rain", nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p["true"]-0.2) > 1e-9 {
		t.Errorf("prior P(rain) = %g", p["true"])
	}
	// Marginal of a downstream variable: P(wet) = sum over configs.
	w, err := n.Query("wet", nil)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.2*0.01*0.99 + 0.2*0.99*0.8 + 0.8*0.4*0.9
	if math.Abs(w["true"]-want) > 1e-9 {
		t.Errorf("P(wet) = %g, want %g", w["true"], want)
	}
}

func TestExplainingAway(t *testing.T) {
	n := sprinkler(t)
	// Observing the sprinkler on should lower belief in rain given wet grass.
	base, err := n.Query("rain", Evidence{"wet": "true"})
	if err != nil {
		t.Fatal(err)
	}
	away, err := n.Query("rain", Evidence{"wet": "true", "sprinkler": "true"})
	if err != nil {
		t.Fatal(err)
	}
	if away["true"] >= base["true"] {
		t.Errorf("explaining away failed: %g >= %g", away["true"], base["true"])
	}
}

func TestValidationErrors(t *testing.T) {
	n := NewNetwork()
	if err := n.AddVariable(Variable{Name: "", States: []string{"a", "b"}}); err == nil {
		t.Error("empty name")
	}
	if err := n.AddVariable(Variable{Name: "x", States: []string{"only"}}); err == nil {
		t.Error("single state")
	}
	if err := n.AddVariable(Variable{Name: "x", States: []string{"a", "a"}}); err == nil {
		t.Error("duplicate state")
	}
	if err := n.AddVariable(Variable{Name: "x", States: []string{"a", "b"}}, "ghost"); err == nil {
		t.Error("undeclared parent")
	}
	if err := n.AddVariable(Variable{Name: "x", States: []string{"a", "b"}}); err != nil {
		t.Fatal(err)
	}
	if err := n.AddVariable(Variable{Name: "x", States: []string{"a", "b"}}); err == nil {
		t.Error("duplicate variable")
	}
	if err := n.SetCPT("ghost", nil); err == nil {
		t.Error("unknown variable CPT")
	}
	if err := n.SetCPT("x", [][]float64{{0.5, 0.5}, {0.5, 0.5}}); err == nil {
		t.Error("wrong row count")
	}
	if err := n.SetCPT("x", [][]float64{{0.5}}); err == nil {
		t.Error("wrong row width")
	}
	if err := n.SetCPT("x", [][]float64{{0.7, 0.7}}); err == nil {
		t.Error("row not summing to 1")
	}
	if err := n.SetCPT("x", [][]float64{{-0.5, 1.5}}); err == nil {
		t.Error("negative probability")
	}
	if err := n.Compile(); err == nil {
		t.Error("compile without CPT should error")
	}
	if err := n.SetCPT("x", [][]float64{{0.5, 0.5}}); err != nil {
		t.Fatal(err)
	}
	if err := n.Compile(); err != nil {
		t.Fatal(err)
	}
	if err := n.AddVariable(Variable{Name: "y", States: []string{"a", "b"}}); err == nil {
		t.Error("add after compile should error")
	}
	if _, err := n.Query("ghost", nil); err == nil {
		t.Error("query unknown variable")
	}
	if _, err := n.Query("x", Evidence{"ghost": "a"}); err == nil {
		t.Error("unknown evidence variable")
	}
	if _, err := n.Query("x", Evidence{"x": "zzz"}); err == nil {
		t.Error("unknown evidence state")
	}
	if _, err := n.Query("x", Evidence{"x": "a"}); err == nil {
		t.Error("query == evidence should error")
	}
}

func TestQueryBeforeCompile(t *testing.T) {
	n := NewNetwork()
	if err := n.AddVariable(Variable{Name: "x", States: []string{"a", "b"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Query("x", nil); err == nil {
		t.Error("query before compile should error")
	}
	if err := NewNetwork().Compile(); err == nil {
		t.Error("compiling empty network should error")
	}
}

func TestZeroProbabilityEvidence(t *testing.T) {
	n := NewNetwork()
	if err := n.AddVariable(Variable{Name: "a", States: []string{"t", "f"}}); err != nil {
		t.Fatal(err)
	}
	if err := n.AddVariable(Variable{Name: "b", States: []string{"t", "f"}}, "a"); err != nil {
		t.Fatal(err)
	}
	if err := n.SetCPT("a", [][]float64{{1, 0}}); err != nil {
		t.Fatal(err)
	}
	if err := n.SetCPT("b", [][]float64{{1, 0}, {0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := n.Compile(); err != nil {
		t.Fatal(err)
	}
	// b=f is impossible (a is always t, so b is always t).
	if _, err := n.Query("a", Evidence{"b": "f"}); err == nil {
		t.Error("zero-probability evidence should error")
	}
}

// randomChain builds a random 4-node chain network a->b->c->d.
func randomChain(rng *rand.Rand, t testing.TB) *Network {
	n := NewNetwork()
	names := []string{"a", "b", "c", "d"}
	states := []string{"s0", "s1"}
	for i, name := range names {
		var parents []string
		if i > 0 {
			parents = []string{names[i-1]}
		}
		if err := n.AddVariable(Variable{Name: name, States: states}, parents...); err != nil {
			t.Fatal(err)
		}
		rows := 1
		if i > 0 {
			rows = 2
		}
		cpt := make([][]float64, rows)
		for r := range cpt {
			p := 0.05 + 0.9*rng.Float64()
			cpt[r] = []float64{p, 1 - p}
		}
		if err := n.SetCPT(name, cpt); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Compile(); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestPosteriorNormalizationProperty(t *testing.T) {
	// Property: every posterior is a distribution and conditioning on an
	// independent downstream variable never produces values outside [0,1].
	prop := func(seed int64, obsState bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomChain(rng, t)
		state := "s0"
		if obsState {
			state = "s1"
		}
		p, err := n.Query("b", Evidence{"d": state})
		if err != nil {
			return false
		}
		var sum float64
		for _, v := range p {
			if v < -1e-12 || v > 1+1e-12 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestInferenceMatchesEnumerationProperty(t *testing.T) {
	// Property: variable elimination agrees with brute-force enumeration on
	// random chain networks.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomChain(rng, t)
		got, err := n.Query("a", Evidence{"c": "s0"})
		if err != nil {
			return false
		}
		want := bruteForceChain(n, rng)
		return math.Abs(got["s0"]-want) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// bruteForceChain computes P(a=s0 | c=s0) on the chain a->b->c->d by the
// law of total probability over a, with P(c=s0|a=x) from Query.
func bruteForceChain(n *Network, rng *rand.Rand) float64 {
	pa, _ := n.Query("a", nil)
	pcGivenA0, _ := n.Query("c", Evidence{"a": "s0"})
	pcGivenA1, _ := n.Query("c", Evidence{"a": "s1"})
	num := pa["s0"] * pcGivenA0["s0"]
	den := num + pa["s1"]*pcGivenA1["s0"]
	return num / den
}

func BenchmarkQueryChain(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n := randomChain(rng, b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Query("a", Evidence{"d": "s0"}); err != nil {
			b.Fatal(err)
		}
	}
}

// Package bayes implements discrete Bayesian networks with exact inference
// by variable elimination.
//
// The paper rejects Bayes nets for phase-1 diagnostic fusion "because they
// require prior estimates of the conditional probability relating two
// failures" which "is not yet available for the CBM domain", while naming
// them the promising approach "when causal relations and a priori
// relationships can be teased out of historical data" (§10.1). This package
// exists so that trade-off is measurable: experiment E9 compares
// Dempster-Shafer fusion against a Bayes net whose conditionals are
// estimated from varying amounts of historical data.
package bayes

import (
	"fmt"
	"math"
	"sort"
)

// Variable is a named discrete random variable with a fixed set of states.
type Variable struct {
	Name   string
	States []string
}

// Network is a directed acyclic graph of discrete variables with
// conditional probability tables. Build with NewNetwork/AddVariable/SetCPT,
// then call Compile before querying.
type Network struct {
	vars     []*node
	index    map[string]int
	compiled bool
}

type node struct {
	v       Variable
	parents []int
	// cpt maps a joint parent-state assignment (mixed-radix index over
	// parent cardinalities) to a distribution over the node's states.
	cpt [][]float64
}

// NewNetwork returns an empty network.
func NewNetwork() *Network {
	return &Network{index: make(map[string]int)}
}

// AddVariable declares a variable with its parents. Parents must already be
// declared (topological insertion order), which also guarantees acyclicity.
func (n *Network) AddVariable(v Variable, parents ...string) error {
	if n.compiled {
		return fmt.Errorf("bayes: network already compiled")
	}
	if v.Name == "" {
		return fmt.Errorf("bayes: empty variable name")
	}
	if len(v.States) < 2 {
		return fmt.Errorf("bayes: variable %q needs at least two states", v.Name)
	}
	if _, dup := n.index[v.Name]; dup {
		return fmt.Errorf("bayes: duplicate variable %q", v.Name)
	}
	seen := make(map[string]bool, len(v.States))
	for _, s := range v.States {
		if s == "" || seen[s] {
			return fmt.Errorf("bayes: variable %q has empty or duplicate state", v.Name)
		}
		seen[s] = true
	}
	nd := &node{v: v}
	for _, p := range parents {
		pi, ok := n.index[p]
		if !ok {
			return fmt.Errorf("bayes: parent %q of %q not declared (declare parents first)", p, v.Name)
		}
		nd.parents = append(nd.parents, pi)
	}
	n.index[v.Name] = len(n.vars)
	n.vars = append(n.vars, nd)
	return nil
}

// parentConfigs returns the number of joint parent configurations of nd.
func (n *Network) parentConfigs(nd *node) int {
	c := 1
	for _, pi := range nd.parents {
		c *= len(n.vars[pi].v.States)
	}
	return c
}

// SetCPT sets the conditional probability table for variable name. rows must
// have one row per joint parent configuration (mixed-radix order with the
// first parent varying slowest) and each row must be a distribution over the
// variable's states summing to 1.
func (n *Network) SetCPT(name string, rows [][]float64) error {
	i, ok := n.index[name]
	if !ok {
		return fmt.Errorf("bayes: unknown variable %q", name)
	}
	nd := n.vars[i]
	want := n.parentConfigs(nd)
	if len(rows) != want {
		return fmt.Errorf("bayes: variable %q needs %d CPT rows, got %d", name, want, len(rows))
	}
	for r, row := range rows {
		if len(row) != len(nd.v.States) {
			return fmt.Errorf("bayes: variable %q row %d has %d entries, want %d", name, r, len(row), len(nd.v.States))
		}
		var sum float64
		for _, p := range row {
			if p < 0 || p > 1 || math.IsNaN(p) {
				return fmt.Errorf("bayes: variable %q row %d has invalid probability %g", name, r, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("bayes: variable %q row %d sums to %g", name, r, sum)
		}
	}
	cpt := make([][]float64, len(rows))
	for r, row := range rows {
		cpt[r] = append([]float64(nil), row...)
	}
	nd.cpt = cpt
	return nil
}

// Compile validates that every variable has a CPT and freezes the network.
func (n *Network) Compile() error {
	if len(n.vars) == 0 {
		return fmt.Errorf("bayes: empty network")
	}
	for _, nd := range n.vars {
		if nd.cpt == nil {
			return fmt.Errorf("bayes: variable %q has no CPT", nd.v.Name)
		}
	}
	n.compiled = true
	return nil
}

// Evidence maps variable names to observed state names.
type Evidence map[string]string

// factor is a table over a subset of variables used by variable elimination.
type factor struct {
	vars []int     // network variable indices, ascending
	vals []float64 // mixed-radix over vars' cardinalities, first var slowest
}

func (n *Network) card(i int) int { return len(n.vars[i].v.States) }

func (n *Network) newFactor(vars []int) *factor {
	size := 1
	for _, v := range vars {
		size *= n.card(v)
	}
	return &factor{vars: vars, vals: make([]float64, size)}
}

// indexOf computes the flat index of assignment (var->state index) in f.
func (n *Network) indexOf(f *factor, assign map[int]int) int {
	idx := 0
	for _, v := range f.vars {
		idx = idx*n.card(v) + assign[v]
	}
	return idx
}

// eachAssignment iterates all assignments of f's variables.
func (n *Network) eachAssignment(f *factor, fn func(assign map[int]int, flat int)) {
	assign := make(map[int]int, len(f.vars))
	var rec func(d, flat int)
	rec = func(d, flat int) {
		if d == len(f.vars) {
			fn(assign, flat)
			return
		}
		v := f.vars[d]
		for s := 0; s < n.card(v); s++ {
			assign[v] = s
			rec(d+1, flat*n.card(v)+s)
		}
	}
	rec(0, 0)
}

// nodeFactor builds the initial factor for node i, reduced by evidence.
func (n *Network) nodeFactor(i int, ev map[int]int) *factor {
	nd := n.vars[i]
	vars := append(append([]int(nil), nd.parents...), i)
	sort.Ints(vars)
	f := n.newFactor(vars)
	n.eachAssignment(f, func(assign map[int]int, flat int) {
		// Respect evidence: zero out contradicting entries.
		for v, s := range ev {
			if got, in := assign[v]; in && got != s {
				f.vals[flat] = 0
				return
			}
		}
		row := 0
		for _, pi := range nd.parents {
			row = row*n.card(pi) + assign[pi]
		}
		f.vals[flat] = nd.cpt[row][assign[i]]
	})
	return f
}

// multiply returns the product factor of a and b.
func (n *Network) multiply(a, b *factor) *factor {
	merged := mergeVars(a.vars, b.vars)
	out := n.newFactor(merged)
	n.eachAssignment(out, func(assign map[int]int, flat int) {
		out.vals[flat] = a.vals[n.indexOf(a, assign)] * b.vals[n.indexOf(b, assign)]
	})
	return out
}

// sumOut marginalizes variable v out of f.
func (n *Network) sumOut(f *factor, v int) *factor {
	rest := make([]int, 0, len(f.vars)-1)
	for _, x := range f.vars {
		if x != v {
			rest = append(rest, x)
		}
	}
	out := n.newFactor(rest)
	n.eachAssignment(f, func(assign map[int]int, flat int) {
		out.vals[n.indexOf(out, assign)] += f.vals[flat]
	})
	return out
}

func mergeVars(a, b []int) []int {
	seen := make(map[int]bool, len(a)+len(b))
	var out []int
	for _, v := range a {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for _, v := range b {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

// Query returns P(query | evidence) as a map from state name to probability,
// computed by variable elimination. It returns an error for unknown
// variables/states, for querying an evidence variable, or when the evidence
// has zero probability.
func (n *Network) Query(query string, evidence Evidence) (map[string]float64, error) {
	if !n.compiled {
		return nil, fmt.Errorf("bayes: network not compiled")
	}
	qi, ok := n.index[query]
	if !ok {
		return nil, fmt.Errorf("bayes: unknown query variable %q", query)
	}
	ev := make(map[int]int, len(evidence))
	for name, state := range evidence {
		vi, ok := n.index[name]
		if !ok {
			return nil, fmt.Errorf("bayes: unknown evidence variable %q", name)
		}
		si := -1
		for j, s := range n.vars[vi].v.States {
			if s == state {
				si = j
				break
			}
		}
		if si < 0 {
			return nil, fmt.Errorf("bayes: variable %q has no state %q", name, state)
		}
		ev[vi] = si
	}
	if _, isEv := ev[qi]; isEv {
		return nil, fmt.Errorf("bayes: query variable %q is also evidence", query)
	}

	factors := make([]*factor, 0, len(n.vars))
	for i := range n.vars {
		factors = append(factors, n.nodeFactor(i, ev))
	}
	// Eliminate every variable except the query, smallest-cardinality first
	// (a simple min-fill-ish heuristic adequate for diagnostic-scale nets).
	elim := make([]int, 0, len(n.vars)-1)
	for i := range n.vars {
		if i != qi {
			elim = append(elim, i)
		}
	}
	sort.Slice(elim, func(a, b int) bool { return n.card(elim[a]) < n.card(elim[b]) })
	for _, v := range elim {
		var touching []*factor
		var rest []*factor
		for _, f := range factors {
			uses := false
			for _, fv := range f.vars {
				if fv == v {
					uses = true
					break
				}
			}
			if uses {
				touching = append(touching, f)
			} else {
				rest = append(rest, f)
			}
		}
		if len(touching) == 0 {
			continue
		}
		prod := touching[0]
		for _, f := range touching[1:] {
			prod = n.multiply(prod, f)
		}
		factors = append(rest, n.sumOut(prod, v))
	}
	// Multiply the remaining factors (all over the query variable or empty).
	result := factors[0]
	for _, f := range factors[1:] {
		result = n.multiply(result, f)
	}
	// result may still include evidence variables pinned by zeros; sum them.
	for _, v := range result.vars {
		if v != qi {
			result = n.sumOut(result, v)
		}
	}
	var z float64
	for _, p := range result.vals {
		z += p
	}
	if z == 0 {
		return nil, fmt.Errorf("bayes: evidence has zero probability")
	}
	out := make(map[string]float64, n.card(qi))
	for s, name := range n.vars[qi].v.States {
		out[name] = result.vals[s] / z
	}
	return out, nil
}

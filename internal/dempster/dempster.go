// Package dempster implements Dempster-Shafer theory of evidence, the
// calculus MPROS uses for diagnostic knowledge fusion (§5.3).
//
// "Dempster-Shafer theory is a calculus for qualifying beliefs using
// numerical expressions. [...] given a belief of 40% that A will occur and
// another belief of 75% that B or C will occur, it will [be] concluded that
// A is 14% likely, 'B or C' is 64% likely and there is 22% of belief
// assigned to unknown possibilities."
//
// The package represents a frame of discernment of up to 64 hypotheses;
// subsets of the frame are bitmasks (type Set). Mass functions assign
// basic probability to subsets; Combine applies Dempster's rule of
// combination with conflict renormalization. The maintenance of mass on the
// full frame Θ — the "unknown possibilities" — is, per the paper, "both a
// differentiator and a strength" of the approach, so Unknown() is a
// first-class query.
package dempster

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// MaxHypotheses is the largest number of atomic hypotheses a Frame supports.
const MaxHypotheses = 64

// Set is a subset of a frame of discernment, one bit per atomic hypothesis.
type Set uint64

// Empty is the empty hypothesis set.
const Empty Set = 0

// Singleton returns the set containing only hypothesis i.
func Singleton(i int) Set { return 1 << uint(i) }

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set { return s & t }

// Contains reports whether every element of t is in s.
func (s Set) Contains(t Set) bool { return s&t == t }

// IsEmpty reports whether s has no elements.
func (s Set) IsEmpty() bool { return s == 0 }

// Frame is a frame of discernment: the exhaustive set of mutually exclusive
// hypotheses under consideration (within one logical failure group, in MPROS
// terms). A Frame is immutable after construction.
type Frame struct {
	names []string
	index map[string]int
}

// NewFrame builds a frame from hypothesis names. Names must be unique,
// non-empty, and at most MaxHypotheses of them.
func NewFrame(names ...string) (*Frame, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("dempster: frame needs at least one hypothesis")
	}
	if len(names) > MaxHypotheses {
		return nil, fmt.Errorf("dempster: %d hypotheses exceeds maximum %d", len(names), MaxHypotheses)
	}
	f := &Frame{index: make(map[string]int, len(names))}
	for _, n := range names {
		if n == "" {
			return nil, fmt.Errorf("dempster: empty hypothesis name")
		}
		if _, dup := f.index[n]; dup {
			return nil, fmt.Errorf("dempster: duplicate hypothesis %q", n)
		}
		f.index[n] = len(f.names)
		f.names = append(f.names, n)
	}
	return f, nil
}

// MustFrame is NewFrame that panics on error; for tests and static tables.
func MustFrame(names ...string) *Frame {
	f, err := NewFrame(names...)
	if err != nil {
		panic(err)
	}
	return f
}

// Size returns the number of atomic hypotheses in the frame.
func (f *Frame) Size() int { return len(f.names) }

// Theta returns the full set Θ (all hypotheses).
func (f *Frame) Theta() Set {
	if len(f.names) == 64 {
		return Set(^uint64(0))
	}
	return Set(1<<uint(len(f.names))) - 1
}

// Hypothesis returns the singleton set for the named hypothesis.
func (f *Frame) Hypothesis(name string) (Set, error) {
	i, ok := f.index[name]
	if !ok {
		return 0, fmt.Errorf("dempster: unknown hypothesis %q", name)
	}
	return Singleton(i), nil
}

// SetOf returns the subset containing the named hypotheses.
func (f *Frame) SetOf(names ...string) (Set, error) {
	var s Set
	for _, n := range names {
		h, err := f.Hypothesis(n)
		if err != nil {
			return 0, err
		}
		s |= h
	}
	return s, nil
}

// Names returns the hypothesis names present in s, in frame order.
func (f *Frame) Names(s Set) []string {
	var out []string
	for i, n := range f.names {
		if s&Singleton(i) != 0 {
			out = append(out, n)
		}
	}
	return out
}

// Format renders s as a human-readable disjunction, "∅" for the empty set
// and "Θ" for the full frame.
func (f *Frame) Format(s Set) string {
	if s.IsEmpty() {
		return "∅"
	}
	if s == f.Theta() {
		return "Θ"
	}
	return strings.Join(f.Names(s), "∨")
}

// Mass is a basic probability assignment over subsets of a frame. Masses
// must be non-negative and sum to 1 (checked by Validate). The zero value is
// not usable; construct with NewMass.
type Mass struct {
	frame *Frame
	m     map[Set]float64
}

// NewMass returns an empty mass function over f.
func NewMass(f *Frame) *Mass {
	return &Mass{frame: f, m: make(map[Set]float64)}
}

// VacuousMass returns the mass function that assigns everything to Θ —
// total ignorance, the identity element of Dempster combination.
func VacuousMass(f *Frame) *Mass {
	m := NewMass(f)
	m.m[f.Theta()] = 1
	return m
}

// SimpleSupport returns the mass function that assigns belief b to focal set
// s and the remainder 1-b to Θ. This is exactly how MPROS turns an incoming
// diagnostic report (machine condition + belief) into evidence.
func SimpleSupport(f *Frame, s Set, belief float64) (*Mass, error) {
	if belief < 0 || belief > 1 {
		return nil, fmt.Errorf("dempster: belief %g outside [0,1]", belief)
	}
	if s.IsEmpty() {
		return nil, fmt.Errorf("dempster: simple support on empty set")
	}
	if !f.Theta().Contains(s) {
		return nil, fmt.Errorf("dempster: focal set outside frame")
	}
	m := NewMass(f)
	if belief > 0 {
		m.m[s] = belief
	}
	if belief < 1 {
		m.m[f.Theta()] += 1 - belief
	}
	return m, nil
}

// Set assigns mass v to focal set s, replacing any previous assignment.
func (m *Mass) Set(s Set, v float64) error {
	if v < 0 {
		return fmt.Errorf("dempster: negative mass %g", v)
	}
	if s.IsEmpty() && v > 0 {
		return fmt.Errorf("dempster: positive mass on empty set")
	}
	if !m.frame.Theta().Contains(s) {
		return fmt.Errorf("dempster: focal set outside frame")
	}
	if v == 0 {
		delete(m.m, s)
		return nil
	}
	m.m[s] = v
	return nil
}

// Get returns the mass assigned to exactly the focal set s.
func (m *Mass) Get(s Set) float64 { return m.m[s] }

// FocalSets returns the focal sets (sets with positive mass) in ascending
// bitmask order, for deterministic iteration.
func (m *Mass) FocalSets() []Set {
	out := make([]Set, 0, len(m.m))
	//lint:allow maporder the one sanctioned raw range: keys are sorted before return, so order cannot leak
	for s := range m.m {
		out = append(out, s)
	}
	slices.Sort(out)
	return out
}

// Validate checks that masses are non-negative and sum to 1 within tol.
func (m *Mass) Validate(tol float64) error {
	var sum float64
	for _, s := range m.FocalSets() {
		v := m.m[s]
		if v < 0 {
			return fmt.Errorf("dempster: negative mass %g on %s", v, m.frame.Format(s))
		}
		if s.IsEmpty() && v > 0 {
			return fmt.Errorf("dempster: mass on empty set")
		}
		sum += v
	}
	if math.Abs(sum-1) > tol {
		return fmt.Errorf("dempster: masses sum to %g, want 1", sum)
	}
	return nil
}

// Belief returns Bel(s): the total mass committed to subsets of s — the
// degree to which the evidence supports s. Summation runs in ascending
// focal-set order so repeated calls on equal mass functions are
// bit-identical (float addition is not associative; map order is random).
func (m *Mass) Belief(s Set) float64 {
	var sum float64
	for _, focal := range m.FocalSets() {
		if s.Contains(focal) && !focal.IsEmpty() {
			sum += m.m[focal]
		}
	}
	return sum
}

// Plausibility returns Pl(s): the total mass not committed against s —
// the degree to which the evidence fails to refute s. Deterministic
// summation order, as in Belief.
func (m *Mass) Plausibility(s Set) float64 {
	var sum float64
	for _, focal := range m.FocalSets() {
		if !focal.Intersect(s).IsEmpty() {
			sum += m.m[focal]
		}
	}
	return sum
}

// Unknown returns the mass still assigned to the whole frame Θ — the
// "likelihood of unknown possibilities" the paper calls out as the
// differentiator of Dempster-Shafer.
func (m *Mass) Unknown() float64 { return m.m[m.frame.Theta()] }

// Clone returns a deep copy of m.
func (m *Mass) Clone() *Mass {
	c := NewMass(m.frame)
	for _, s := range m.FocalSets() {
		c.m[s] = m.m[s]
	}
	return c
}

// Discount applies Shafer's classical discounting: the source providing m
// is trusted with reliability alpha in [0,1], so every focal mass is scaled
// by alpha and the forfeited confidence 1-alpha is reassigned to Θ (total
// ignorance). Discounting a source before combination is how MPROS degrades
// stale or suspect evidence gracefully: at alpha=1 the evidence passes
// through untouched, at alpha=0 it vanishes into the vacuous mass, and in
// between beliefs shrink while the unknown mass grows — never the reverse.
func Discount(m *Mass, alpha float64) (*Mass, error) {
	if math.IsNaN(alpha) || alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("dempster: discount factor %g outside [0,1]", alpha)
	}
	if alpha >= 1 {
		return m.Clone(), nil
	}
	if alpha <= 0 {
		return VacuousMass(m.frame), nil
	}
	out := NewMass(m.frame)
	theta := m.frame.Theta()
	for _, s := range m.FocalSets() {
		if s == theta {
			continue
		}
		out.m[s] = alpha * m.m[s]
	}
	out.m[theta] = 1 - alpha + alpha*m.m[theta]
	return out, nil
}

// Combine applies Dempster's rule of combination to a and b, which must be
// defined over the same frame. It returns the combined mass function and the
// conflict K (the total probability mass the two sources assign to
// incompatible conclusions). Combination fails if the sources are in total
// conflict: nothing, to within 1e-12 of the product mass, survives.
//
// The result is normalized by the mass that survived, not by 1/(1-K): the
// two agree only while both inputs sum to exactly 1, and whatever an input is
// off by, 1/(1-K) multiplies into every later combination. Dividing by the
// survivors makes each output sum to 1 within rounding whatever its inputs
// did, so rounding error cannot compound over a long evidence chain.
func Combine(a, b *Mass) (*Mass, float64, error) {
	if a.frame != b.frame {
		return nil, 0, fmt.Errorf("dempster: cannot combine masses over different frames")
	}
	out := NewMass(a.frame)
	var conflict float64
	// Accumulate in ascending (sa, sb) order: the sums here are float
	// additions, so a fixed order makes combination a pure function of the
	// inputs bit-for-bit — the property the serving tier's cache coherence
	// check (cached view == fresh fuse) depends on.
	for _, sa := range a.FocalSets() {
		va := a.m[sa]
		for _, sb := range b.FocalSets() {
			vb := b.m[sb]
			inter := sa.Intersect(sb)
			p := va * vb
			if inter.IsEmpty() {
				conflict += p
			} else {
				out.m[inter] += p
			}
		}
	}
	var survived float64
	for _, s := range out.FocalSets() {
		survived += out.m[s]
	}
	if survived <= 1e-12*(survived+conflict) {
		return nil, conflict, fmt.Errorf("dempster: total conflict between sources (K=%.6f)", conflict)
	}
	for _, s := range out.FocalSets() {
		out.m[s] /= survived
	}
	return out, conflict, nil
}

// String renders the mass function for debugging.
func (m *Mass) String() string {
	var b strings.Builder
	for _, s := range m.FocalSets() {
		fmt.Fprintf(&b, "m(%s)=%.4f ", m.frame.Format(s), m.m[s])
	}
	return strings.TrimSpace(b.String())
}

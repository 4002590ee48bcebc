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
// basic probability to subsets; CombineInto applies Dempster's rule of
// combination with conflict renormalization and DiscountInto Shafer's
// discounting, both in storage the caller keeps, as do the Set* methods, so
// a running fold allocates nothing. The maintenance of mass on the
// full frame Θ — the "unknown possibilities" — is, per the paper, "both a
// differentiator and a strength" of the approach, so Unknown() is a
// first-class query.
package dempster

import (
	"errors"
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

// Mass is a basic probability assignment over subsets of a frame: its focal
// sets in ascending bitmask order, each with its mass beside it, so every
// walk is deterministic without a sort. Masses must be non-negative and sum
// to 1 (checked by Validate). Construct one with NewMass, or use a zero Mass
// as the destination of CombineInto, DiscountInto, CopyFrom, SetVacuous or
// SetSimpleSupport, which write into its storage and reuse it.
type Mass struct {
	frame *Frame
	sets  []Set     // ascending
	vals  []float64 // vals[i] is the mass on sets[i]
}

// NewMass returns an empty mass function over f.
func NewMass(f *Frame) *Mass {
	return &Mass{frame: f}
}

// VacuousMass returns the mass function that assigns everything to Θ —
// total ignorance, the identity element of Dempster combination.
func VacuousMass(f *Frame) *Mass {
	m := NewMass(f)
	m.SetVacuous(f)
	return m
}

// SetVacuous makes m the vacuous mass over f.
func (m *Mass) SetVacuous(f *Frame) {
	m.reset(f)
	m.sets = append(m.sets, f.Theta())
	m.vals = append(m.vals, 1)
}

// SetSimpleSupport makes m the mass function that assigns belief to focal
// set s and the remainder 1-belief to Θ. This is exactly how MPROS turns an
// incoming diagnostic report (machine condition + belief) into evidence. On
// error m is unchanged.
func (m *Mass) SetSimpleSupport(f *Frame, s Set, belief float64) error {
	if belief < 0 || belief > 1 {
		return fmt.Errorf("dempster: belief %g outside [0,1]", belief)
	}
	if s.IsEmpty() {
		return fmt.Errorf("dempster: simple support on empty set")
	}
	if !f.Theta().Contains(s) {
		return fmt.Errorf("dempster: focal set outside frame")
	}
	m.reset(f)
	if belief > 0 {
		m.add(s, belief)
	}
	if belief < 1 {
		m.add(f.Theta(), 1-belief)
	}
	return nil
}

// reset empties m and puts it over f, keeping its storage.
func (m *Mass) reset(f *Frame) {
	m.frame, m.sets, m.vals = f, m.sets[:0], m.vals[:0]
}

// find returns where s is, or would be inserted, in m's focal sets.
func (m *Mass) find(s Set) (int, bool) { return slices.BinarySearch(m.sets, s) }

// slot returns s's index, making s focal with mass 0 first if it is not.
func (m *Mass) slot(s Set) int {
	i, ok := m.find(s)
	if !ok {
		m.sets = slices.Insert(m.sets, i, s)
		m.vals = slices.Insert(m.vals, i, 0)
	}
	return i
}

// add adds v to the mass on s. A set whose products all come to 0 stays
// focal.
func (m *Mass) add(s Set, v float64) { m.vals[m.slot(s)] += v }

// Set assigns mass v to focal set s, replacing any previous assignment. A
// zero mass removes s.
func (m *Mass) Set(s Set, v float64) error {
	if err := m.Put(s, v); err != nil || v != 0 {
		return err
	}
	if i, ok := m.find(s); ok {
		m.sets = slices.Delete(m.sets, i, i+1)
		m.vals = slices.Delete(m.vals, i, i+1)
	}
	return nil
}

// Put assigns mass v to focal set s like Set, except that a zero mass keeps
// s focal. Combination keeps a set whose products all came to 0 — Θ after it
// underflows in a long evidence chain — so a mass rebuilt from its focal
// sets, as a checkpoint restore does, must keep it too.
func (m *Mass) Put(s Set, v float64) error {
	if v < 0 {
		return fmt.Errorf("dempster: negative mass %g", v)
	}
	if s.IsEmpty() && v > 0 {
		return fmt.Errorf("dempster: positive mass on empty set")
	}
	if !m.frame.Theta().Contains(s) {
		return fmt.Errorf("dempster: focal set outside frame")
	}
	if !s.IsEmpty() {
		m.vals[m.slot(s)] = v
	}
	return nil
}

// Get returns the mass assigned to exactly the focal set s.
func (m *Mass) Get(s Set) float64 {
	if i, ok := m.find(s); ok {
		return m.vals[i]
	}
	return 0
}

// FocalSets returns the focal sets in ascending bitmask order. A combination
// keeps a set whose mass came to 0, so a focal set's mass is non-negative,
// not necessarily positive. The slice is m's own: read it, do not keep it
// past m's next change, and never write it.
func (m *Mass) FocalSets() []Set { return m.sets }

// Values returns the masses of FocalSets, index for index, under the same
// contract.
func (m *Mass) Values() []float64 { return m.vals }

// Validate checks that masses are non-negative and sum to 1 within tol.
func (m *Mass) Validate(tol float64) error {
	var sum float64
	for i, s := range m.sets {
		v := m.vals[i]
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
// bit-identical (float addition is not associative).
func (m *Mass) Belief(s Set) float64 {
	var sum float64
	for i, focal := range m.sets {
		if s.Contains(focal) && !focal.IsEmpty() {
			sum += m.vals[i]
		}
	}
	return sum
}

// Plausibility returns Pl(s): the total mass not committed against s —
// the degree to which the evidence fails to refute s. Deterministic
// summation order, as in Belief.
func (m *Mass) Plausibility(s Set) float64 {
	var sum float64
	for i, focal := range m.sets {
		if !focal.Intersect(s).IsEmpty() {
			sum += m.vals[i]
		}
	}
	return sum
}

// Unknown returns the mass still assigned to the whole frame Θ — the
// "likelihood of unknown possibilities" the paper calls out as the
// differentiator of Dempster-Shafer. Θ holds every subset of the frame, so
// it is the last focal set when it is one.
func (m *Mass) Unknown() float64 {
	if n := len(m.sets); n > 0 && m.sets[n-1] == m.frame.Theta() {
		return m.vals[n-1]
	}
	return 0
}

// CopyFrom makes m a copy of src.
func (m *Mass) CopyFrom(src *Mass) {
	m.frame = src.frame
	m.sets = append(m.sets[:0], src.sets...)
	m.vals = append(m.vals[:0], src.vals...)
}

// DiscountInto writes into dst, which must not be m, Shafer's classical
// discounting of m: the source providing m is trusted with reliability alpha
// in [0,1], so every focal mass is scaled by alpha and the forfeited
// confidence 1-alpha is reassigned to Θ (total ignorance). Discounting a
// source before combination is how MPROS degrades stale or suspect evidence
// gracefully: at alpha=1 the evidence passes through untouched, at alpha=0
// it vanishes into the vacuous mass, and in between beliefs shrink while the
// unknown mass grows — never the reverse. On error dst is unchanged.
func DiscountInto(dst, m *Mass, alpha float64) error {
	if math.IsNaN(alpha) || alpha < 0 || alpha > 1 {
		return fmt.Errorf("dempster: discount factor %g outside [0,1]", alpha)
	}
	if dst == m {
		return errAliased
	}
	if alpha >= 1 {
		dst.CopyFrom(m)
		return nil
	}
	if alpha <= 0 {
		dst.SetVacuous(m.frame)
		return nil
	}
	theta := m.frame.Theta()
	dst.reset(m.frame)
	var onTheta float64
	for i, s := range m.sets {
		if s == theta {
			onTheta = m.vals[i]
			continue
		}
		dst.sets = append(dst.sets, s)
		dst.vals = append(dst.vals, alpha*m.vals[i])
	}
	dst.sets = append(dst.sets, theta)
	dst.vals = append(dst.vals, 1-alpha+alpha*onTheta)
	return nil
}

var errAliased = errors.New("dempster: destination aliases an input")

// CombineInto applies Dempster's rule of combination to a and b, which must
// be defined over the same frame, writes the combined mass function into
// dst, which must be neither a nor b, and returns the conflict K (the total
// probability mass the two sources assign to incompatible conclusions).
// Combination fails if the sources are in total conflict: nothing, to within
// 1e-12 of the product mass, survives. On error dst holds no mass function:
// a caller folding evidence combines into spare storage and keeps it only on
// success.
//
// The result is normalized by the mass that survived, not by 1/(1-K): the
// two agree only while both inputs sum to exactly 1, and whatever an input is
// off by, 1/(1-K) multiplies into every later combination. Dividing by the
// survivors makes each output sum to 1 within rounding whatever its inputs
// did, so rounding error cannot compound over a long evidence chain.
func CombineInto(dst, a, b *Mass) (float64, error) {
	if a.frame != b.frame {
		return 0, fmt.Errorf("dempster: cannot combine masses over different frames")
	}
	if dst == a || dst == b {
		return 0, errAliased
	}
	dst.reset(a.frame)
	var conflict float64
	// Accumulate in ascending (sa, sb) order: the sums here are float
	// additions, so a fixed order makes combination a pure function of the
	// inputs bit-for-bit — the property the serving tier's cache coherence
	// check (cached view == fresh fuse) depends on.
	for i, sa := range a.sets {
		va := a.vals[i]
		for j, sb := range b.sets {
			inter := sa.Intersect(sb)
			p := va * b.vals[j]
			if inter.IsEmpty() {
				conflict += p
			} else {
				dst.add(inter, p)
			}
		}
	}
	var survived float64
	for _, v := range dst.vals {
		survived += v
	}
	if survived <= 1e-12*(survived+conflict) {
		return conflict, fmt.Errorf("dempster: total conflict between sources (K=%.6f)", conflict)
	}
	for i := range dst.vals {
		dst.vals[i] /= survived
	}
	return conflict, nil
}

// String renders the mass function for debugging.
func (m *Mass) String() string {
	var b strings.Builder
	for i, s := range m.sets {
		fmt.Fprintf(&b, "m(%s)=%.4f ", m.frame.Format(s), m.vals[i])
	}
	return strings.TrimSpace(b.String())
}

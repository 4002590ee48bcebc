package dempster

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refMass is the map-backed mass function Mass was before it held sorted
// slices, with its combination and discounting below as they were: the
// reference the slice-backed calculus must reproduce bit for bit.
type refMass struct {
	frame *Frame
	m     map[Set]float64
}

func (r refMass) focalSets() []Set { return slices.Sorted(maps.Keys(r.m)) }

func toRef(m *Mass) refMass {
	r := refMass{frame: m.frame, m: make(map[Set]float64)}
	for i, s := range m.sets {
		r.m[s] = m.vals[i]
	}
	return r
}

func refCombine(a, b refMass) (refMass, float64, error) {
	if a.frame != b.frame {
		return refMass{}, 0, fmt.Errorf("different frames")
	}
	out := refMass{frame: a.frame, m: make(map[Set]float64)}
	var conflict float64
	for _, sa := range a.focalSets() {
		va := a.m[sa]
		for _, sb := range b.focalSets() {
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
	for _, s := range out.focalSets() {
		survived += out.m[s]
	}
	if survived <= 1e-12*(survived+conflict) {
		return refMass{}, conflict, fmt.Errorf("total conflict (K=%.6f)", conflict)
	}
	for _, s := range out.focalSets() {
		out.m[s] /= survived
	}
	return out, conflict, nil
}

func refDiscount(m refMass, alpha float64) refMass {
	theta := m.frame.Theta()
	out := refMass{frame: m.frame, m: make(map[Set]float64)}
	if alpha >= 1 {
		maps.Copy(out.m, m.m)
		return out
	}
	if alpha <= 0 {
		out.m[theta] = 1
		return out
	}
	for _, s := range m.focalSets() {
		if s == theta {
			continue
		}
		out.m[s] = alpha * m.m[s]
	}
	out.m[theta] = 1 - alpha + alpha*m.m[theta]
	return out
}

// sameAsRef describes how got differs from want — focal sets, zeros
// included, and every value bit for bit — or returns "".
func sameAsRef(got *Mass, want refMass) string {
	if sets := want.focalSets(); !slices.Equal(got.FocalSets(), sets) {
		return fmt.Sprintf("focal sets %v, reference %v", got.FocalSets(), sets)
	}
	for i, s := range got.FocalSets() {
		if math.Float64bits(got.Values()[i]) != math.Float64bits(want.m[s]) {
			return fmt.Sprintf("m(%b) = %v, reference %v", s, got.Values()[i], want.m[s])
		}
	}
	return ""
}

// underflowed is m with Θ's mass at exactly 0 and still focal, as a long
// chain of agreeing evidence leaves it.
func underflowed(m *Mass) *Mass {
	c := NewMass(m.frame)
	c.CopyFrom(m)
	if err := c.Put(c.frame.Theta(), 0); err != nil {
		panic(err)
	}
	return c
}

// TestMatchesMapReference: CombineInto and DiscountInto agree with the
// map-backed reference on random masses, on masses whose Θ underflowed to 0,
// and along long chains that underflow: the same focal sets, zeros included,
// bit-equal values, the same conflict, and the same refusals.
func TestMatchesMapReference(t *testing.T) {
	f := MustFrame("A", "B", "C", "D")
	rng := rand.New(rand.NewSource(29))
	// Warm across cases, as a fold's scratch is, and fresh: a destination's
	// old contents must not show in what it is given.
	var warm, warmDisc Mass
	check := func(what string, a, b *Mass) {
		t.Helper()
		want, wantK, wantErr := refCombine(toRef(a), toRef(b))
		for _, dst := range []*Mass{&warm, NewMass(f)} {
			k, err := CombineInto(dst, a, b)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%s: refusal %v, reference %v", what, err, wantErr)
			}
			if math.Float64bits(k) != math.Float64bits(wantK) {
				t.Fatalf("%s: conflict %v, reference %v", what, k, wantK)
			}
			if wantErr != nil {
				return
			}
			if d := sameAsRef(dst, want); d != "" {
				t.Fatalf("%s: CombineInto: %s", what, d)
			}
		}
	}
	checkDiscount := func(what string, m *Mass, alpha float64) {
		t.Helper()
		for _, dst := range []*Mass{&warmDisc, NewMass(f)} {
			if err := DiscountInto(dst, m, alpha); err != nil {
				t.Fatal(err)
			}
			if d := sameAsRef(dst, refDiscount(toRef(m), alpha)); d != "" {
				t.Fatalf("%s: DiscountInto(%v): %s", what, alpha, d)
			}
		}
	}
	for i := range 2000 {
		a, b := randomMass(rng, f), randomMass(rng, f)
		what := fmt.Sprintf("case %d", i)
		check(what, a, b)
		check(what+" underflowed a", underflowed(a), b)
		check(what+" underflowed both", underflowed(a), underflowed(b))
		for _, alpha := range []float64{0, rng.Float64(), 1} {
			checkDiscount(what, a, alpha)
			checkDiscount(what+" underflowed", underflowed(a), alpha)
		}
	}
	// Certain and opposed: both refuse.
	x, y := NewMass(f), NewMass(f)
	if err := x.SetSimpleSupport(f, Singleton(0), 1); err != nil {
		t.Fatal(err)
	}
	if err := y.SetSimpleSupport(f, Singleton(1), 1); err != nil {
		t.Fatal(err)
	}
	check("opposed certainties", x, y)

	// One source repeating one call until its Θ underflows, now and then
	// contradicting itself, discounted every so often: every step matches.
	acc, ref := VacuousMass(f), toRef(VacuousMass(f))
	next, ev := NewMass(f), NewMass(f)
	zeros := 0
	for step := range 3000 {
		h := Singleton(0)
		if rng.Intn(10) == 0 {
			h = Singleton(1 + rng.Intn(3))
		}
		if err := ev.SetSimpleSupport(f, h, 0.9+0.099*rng.Float64()); err != nil {
			t.Fatal(err)
		}
		k, err := CombineInto(next, acc, ev)
		want, wantK, wantErr := refCombine(ref, toRef(ev))
		if (err != nil) != (wantErr != nil) || math.Float64bits(k) != math.Float64bits(wantK) {
			t.Fatalf("chain step %d: %v K=%v, reference %v K=%v", step, err, k, wantErr, wantK)
		}
		if err != nil {
			continue
		}
		acc, next, ref = next, acc, want
		if step%700 == 699 {
			alpha := 0.5 + 0.5*rng.Float64()
			if err := DiscountInto(next, acc, alpha); err != nil {
				t.Fatal(err)
			}
			acc, next, ref = next, acc, refDiscount(ref, alpha)
		}
		if d := sameAsRef(acc, ref); d != "" {
			t.Fatalf("chain step %d: %s", step, d)
		}
		if i, ok := acc.find(f.Theta()); ok && acc.vals[i] == 0 {
			zeros++
		}
	}
	if zeros == 0 {
		t.Fatal("the chain never underflowed Θ, so it checks nothing about zeros")
	}
}

// TestCombineIntoAllocatesNothing: with warm destinations, a fold — simple
// support, discount, combination — allocates nothing.
func TestCombineIntoAllocatesNothing(t *testing.T) {
	f := MustFrame("A", "B", "C", "D", "other")
	rng := rand.New(rand.NewSource(3))
	acc := randomMass(rng, f)
	var ev, disc, next Mass
	fold := func() {
		if err := ev.SetSimpleSupport(f, Singleton(rng.Intn(4)), 0.3+0.6*rng.Float64()); err != nil {
			t.Fatal(err)
		}
		if err := DiscountInto(&disc, &ev, 0.9); err != nil {
			t.Fatal(err)
		}
		if _, err := CombineInto(&next, acc, &disc); err != nil {
			t.Fatal(err)
		}
		acc.CopyFrom(&next)
	}
	for range 10 {
		fold()
	}
	if allocs := testing.AllocsPerRun(200, fold); allocs != 0 {
		t.Fatalf("a fold into warm storage allocates %.1f times", allocs)
	}
}

// TestIntoRefusesAliasing: a destination that is an input is refused, not
// silently corrupted.
func TestIntoRefusesAliasing(t *testing.T) {
	f := MustFrame("A", "B")
	m := NewMass(f)
	if err := m.SetSimpleSupport(f, Singleton(0), 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := CombineInto(m, m, VacuousMass(f)); err == nil {
		t.Error("CombineInto into its first input")
	}
	if err := DiscountInto(m, m, 0.5); err == nil {
		t.Error("DiscountInto into its input")
	}
}

// TestPutKeepsZero: Put keeps a zero-mass focal set where Set removes it.
func TestPutKeepsZero(t *testing.T) {
	f := MustFrame("A", "B")
	m := NewMass(f)
	if err := m.Put(Singleton(0), 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Put(f.Theta(), 0); err != nil {
		t.Fatal(err)
	}
	if got := m.FocalSets(); !slices.Equal(got, []Set{Singleton(0), f.Theta()}) {
		t.Fatalf("focal sets %v after Put(Θ, 0)", got)
	}
	if err := m.Put(Singleton(1), -1); err == nil {
		t.Error("negative mass")
	}
	if err := m.Set(f.Theta(), 0); err != nil || len(m.FocalSets()) != 1 {
		t.Fatalf("Set(Θ, 0) left %v (err %v)", m.FocalSets(), err)
	}
}

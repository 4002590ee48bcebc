package fusion

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/dempster"
)

// fakeDiscounter maps source id to a fixed reliability factor; sources not
// listed are fully reliable.
type fakeDiscounter struct {
	alpha map[string]float64
}

func (f *fakeDiscounter) Reliability(source string, _ time.Time) float64 {
	if a, ok := f.alpha[source]; ok {
		return a
	}
	return 1
}

var discountGroups = Groups{
	"bearing": {"outer-race-fault", "inner-race-fault"},
	"balance": {"unbalance"},
}

// dt is a fixed test epoch (no wall clock in deterministic packages).
var dt = time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)

func TestAddReportFromMatchesAnonymous(t *testing.T) {
	// With no discounter, source attribution must not change fused numbers:
	// Dempster combination is associative/commutative, and single-source
	// evidence takes the exact same code path as before.
	a, err := NewDiagnosticFuser(discountGroups)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDiagnosticFuser(discountGroups)
	if err != nil {
		t.Fatal(err)
	}
	beliefs := []float64{0.7, 0.5, 0.8}
	for i, bel := range beliefs {
		if _, err := a.AddReport("chiller", "outer-race-fault", bel); err != nil {
			t.Fatal(err)
		}
		if _, err := b.AddReportFrom("chiller", "outer-race-fault", "dc-0", dt.Add(time.Duration(i)*time.Minute), bel); err != nil {
			t.Fatal(err)
		}
	}
	ba, err := a.Belief("chiller", "outer-race-fault")
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.Belief("chiller", "outer-race-fault")
	if err != nil {
		t.Fatal(err)
	}
	if ba != bb {
		t.Fatalf("attributed belief %g != anonymous belief %g", bb, ba)
	}
}

func TestDiscountingShiftsBeliefToUnknown(t *testing.T) {
	df, err := NewDiagnosticFuser(discountGroups)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := df.AddReportFrom("chiller", "outer-race-fault", "dc-0", dt, 0.8); err != nil {
		t.Fatal(err)
	}
	fresh, _ := df.Belief("chiller", "outer-race-fault")
	freshUnknown, _ := df.Unknown("chiller", "bearing")
	if math.Abs(fresh-0.8) > 1e-12 {
		t.Fatalf("fresh belief = %g, want 0.8", fresh)
	}

	disc := &fakeDiscounter{alpha: map[string]float64{"dc-0": 1}}
	df.SetDiscounter(disc)
	prevBelief, prevUnknown := fresh, freshUnknown
	for _, alpha := range []float64{0.75, 0.5, 0.25, 0} {
		disc.alpha["dc-0"] = alpha
		bel, err := df.Belief("chiller", "outer-race-fault")
		if err != nil {
			t.Fatal(err)
		}
		unk, err := df.Unknown("chiller", "bearing")
		if err != nil {
			t.Fatal(err)
		}
		if bel > prevBelief || unk < prevUnknown {
			t.Fatalf("alpha %g: belief %g (prev %g) / unknown %g (prev %g) not monotone", alpha, bel, prevBelief, unk, prevUnknown)
		}
		if math.Abs(bel-alpha*0.8) > 1e-12 {
			t.Fatalf("alpha %g: belief = %g, want %g", alpha, bel, alpha*0.8)
		}
		prevBelief, prevUnknown = bel, unk
	}
	// Fully discounted single source: total ignorance.
	if prevBelief != 0 || math.Abs(prevUnknown-1) > 1e-12 {
		t.Fatalf("alpha 0: belief %g unknown %g, want 0 and 1", prevBelief, prevUnknown)
	}
	// Recovery is automatic: restore reliability and the original numbers
	// come back with no re-reporting.
	disc.alpha["dc-0"] = 1
	bel, _ := df.Belief("chiller", "outer-race-fault")
	unk, _ := df.Unknown("chiller", "bearing")
	if bel != fresh || unk != freshUnknown {
		t.Fatalf("after recovery belief %g unknown %g, want %g and %g", bel, unk, fresh, freshUnknown)
	}
}

func TestStaleSourceNeverOutranksLiveContradiction(t *testing.T) {
	// The ISSUE invariant: a quarantined source's stale conclusion must not
	// rank above a live contradicting one. dc-stale asserted outer-race
	// strongly; dc-live asserts inner-race moderately. Once dc-stale's
	// reliability falls low enough, the live conclusion ranks first.
	df, err := NewDiagnosticFuser(discountGroups)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := df.AddReportFrom("chiller", "outer-race-fault", "dc-stale", dt, 0.95); err != nil {
		t.Fatal(err)
	}
	if _, err := df.AddReportFrom("chiller", "inner-race-fault", "dc-live", dt.Add(time.Hour), 0.6); err != nil {
		t.Fatal(err)
	}
	disc := &fakeDiscounter{alpha: map[string]float64{"dc-stale": 1}}
	df.SetDiscounter(disc)
	ranked := df.RankedAll()["chiller"]
	if len(ranked) != 2 || ranked[0].Condition != "outer-race-fault" {
		t.Fatalf("with both fresh, stronger assertion should lead: %+v", ranked)
	}
	if ranked[0].Degraded || ranked[1].Degraded {
		t.Fatalf("nothing should be degraded at full reliability: %+v", ranked)
	}

	disc.alpha["dc-stale"] = 0.1
	ranked = df.RankedAll()["chiller"]
	if ranked[0].Condition != "inner-race-fault" {
		t.Fatalf("stale source outranks live contradiction: %+v", ranked)
	}
	var stale ConditionBelief
	for _, cb := range ranked {
		if cb.Condition == "outer-race-fault" {
			stale = cb
		}
	}
	if !stale.Degraded || math.Abs(stale.Reliability-0.1) > 1e-12 {
		t.Fatalf("stale conclusion should be marked degraded at α=0.1: %+v", stale)
	}
	live := ranked[0]
	if live.Degraded || live.Reliability != 1 {
		t.Fatalf("live conclusion should stay undegraded: %+v", live)
	}
}

func TestDegradedNeedsAllSourcesStale(t *testing.T) {
	// Two sources assert the same condition; only one goes stale. The
	// conclusion keeps a fresh backer, so it is not degraded.
	df, err := NewDiagnosticFuser(discountGroups)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := df.AddReportFrom("pump", "unbalance", "dc-0", dt, 0.7); err != nil {
		t.Fatal(err)
	}
	if _, err := df.AddReportFrom("pump", "unbalance", "dc-1", dt, 0.7); err != nil {
		t.Fatal(err)
	}
	df.SetDiscounter(&fakeDiscounter{alpha: map[string]float64{"dc-0": 0.2}})
	ranked := df.RankedAll()["pump"]
	if len(ranked) != 1 {
		t.Fatalf("ranked: %+v", ranked)
	}
	if ranked[0].Degraded || ranked[0].Reliability != 1 {
		t.Fatalf("conclusion with a fresh backer should not be degraded: %+v", ranked[0])
	}
	// Corroboration from the discounted source still counts, just weaker:
	// belief must sit between the single-fresh-source value and the
	// two-fresh-sources value.
	single := 0.7
	both := 1 - (1-0.7)*(1-0.7)
	bel, _ := df.Belief("pump", "unbalance")
	if bel <= single || bel >= both {
		t.Fatalf("partially discounted corroboration: belief %g not in (%g,%g)", bel, single, both)
	}
}

func TestDiscountSummaryMatchesMassDiscount(t *testing.T) {
	// The interval-level formula used on shard summaries must be exactly
	// dempster.DiscountInto read out through Belief/Plausibility/Unknown.
	frame, err := dempster.NewFrame("a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	ha, err := frame.Hypothesis("a")
	if err != nil {
		t.Fatal(err)
	}
	hab, err := frame.SetOf("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	m := dempster.NewMass(frame)
	if err := m.Set(ha, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := m.Set(hab, 0.3); err != nil {
		t.Fatal(err)
	}
	if err := m.Set(frame.Theta(), 0.2); err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(1e-12); err != nil {
		t.Fatal(err)
	}
	dm := dempster.NewMass(frame)
	for _, alpha := range []float64{0, 0.25, 0.6, 1} {
		if err := dempster.DiscountInto(dm, m, alpha); err != nil {
			t.Fatal(err)
		}
		wantB, wantPl, wantU := dm.Belief(ha), dm.Plausibility(ha), dm.Unknown()
		gotB, gotPl, gotU := DiscountSummary(m.Belief(ha), m.Plausibility(ha), m.Unknown(), alpha)
		if math.Abs(gotB-wantB) > 1e-12 || math.Abs(gotPl-wantPl) > 1e-12 || math.Abs(gotU-wantU) > 1e-12 {
			t.Fatalf("alpha %g: got (%g,%g,%g), want (%g,%g,%g)",
				alpha, gotB, gotPl, gotU, wantB, wantPl, wantU)
		}
	}
}

func TestDiscountSummaryEdges(t *testing.T) {
	b, pl, u := DiscountSummary(0.7, 0.8, 0.2, 0)
	if b != 0 || pl != 1 || u != 1 {
		t.Fatalf("alpha 0 must be total ignorance, got (%g,%g,%g)", b, pl, u)
	}
	b, pl, u = DiscountSummary(0.7, 0.8, 0.2, 1)
	if b != 0.7 || pl != 0.8 || u != 0.2 {
		t.Fatalf("alpha 1 must be identity, got (%g,%g,%g)", b, pl, u)
	}
	if b, _, _ = DiscountSummary(0.7, 0.8, 0.2, 1.5); b != 0.7 {
		t.Fatalf("alpha clamps to 1, got belief %g", b)
	}
}

func TestDiscounterAlphaClamped(t *testing.T) {
	// A misbehaving discounter returning out-of-range α must surface as an
	// error from Discount, not corrupt masses.
	df, err := NewDiagnosticFuser(discountGroups)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := df.AddReportFrom("pump", "unbalance", "dc-0", dt, 0.7); err != nil {
		t.Fatal(err)
	}
	df.SetDiscounter(&fakeDiscounter{alpha: map[string]float64{"dc-0": -0.5}})
	if _, err := df.Belief("pump", "unbalance"); err == nil {
		t.Fatal("negative reliability should error")
	}
}

// refMass is the map-backed mass function of dempster/reference_test.go,
// with its combination and discounting below as they are there: the
// reference a block's fused mass is held to.
type refMass map[dempster.Set]float64

func (m refMass) focalSets() []dempster.Set { return slices.Sorted(maps.Keys(m)) }

func refCombine(a, b refMass) (refMass, error) {
	out := refMass{}
	var conflict float64
	for _, sa := range a.focalSets() {
		for _, sb := range b.focalSets() {
			if inter, p := sa.Intersect(sb), a[sa]*b[sb]; inter.IsEmpty() {
				conflict += p
			} else {
				out[inter] += p
			}
		}
	}
	var survived float64
	for _, s := range out.focalSets() {
		survived += out[s]
	}
	if survived <= 1e-12*(survived+conflict) {
		return nil, fmt.Errorf("total conflict (K=%.6f)", conflict)
	}
	for s := range out {
		out[s] /= survived
	}
	return out, nil
}

func refDiscount(m refMass, theta dempster.Set, alpha float64) refMass {
	out := refMass{}
	for s, v := range m {
		if s != theta {
			out[s] = alpha * v
		}
	}
	out[theta] = 1 - alpha + alpha*m[theta]
	return out
}

// refKey is one key of the reference's table of current reports.
type refKey struct{ component, condition, source string }

// refEntry is what the reference holds per key: the source's newest report.
type refEntry struct {
	belief float64
	at     time.Time
}

// referenceRanked is one component's ranking computed from the test's own
// table of each source's current report and count per pair: per group, the
// simple supports of its keys in key order (member name, then source), each
// discounted by the source's factor at the report's time, combined with the
// map-backed reference; belief and plausibility summed over the sorted focal
// sets; the reliability the best factor among the member's keys.
func referenceRanked(current map[refKey]refEntry, counts map[[2]string]int, groups Groups, disc Discounter, component string) map[string]ConditionBelief {
	alphaOf := func(k refKey, e refEntry) float64 {
		if disc == nil || k.source == "" || e.at.IsZero() {
			return 1
		}
		return disc.Reliability(k.source, e.at)
	}
	keys := slices.SortedFunc(maps.Keys(current), func(a, b refKey) int {
		return cmp.Or(cmp.Compare(a.condition, b.condition), cmp.Compare(a.source, b.source))
	})
	out := map[string]ConditionBelief{}
	for group, members := range groups {
		frame := dempster.MustFrame(append(slices.Clone(members), otherHypothesis)...)
		theta := frame.Theta()
		fused, alpha := refMass{theta: 1}, map[string]float64{}
		for _, k := range keys {
			hyp, err := frame.Hypothesis(k.condition)
			if k.component != component || err != nil {
				continue
			}
			e := current[k]
			m := refMass{}
			if e.belief > 0 {
				m[hyp] = e.belief
			}
			if e.belief < 1 {
				m[theta] += 1 - e.belief
			}
			a := alphaOf(k, e)
			if a < 1 {
				m = refDiscount(m, theta, a)
			}
			if prev, seen := alpha[k.condition]; !seen || a > prev {
				alpha[k.condition] = a
			}
			if fused, err = refCombine(fused, m); err != nil {
				panic(err)
			}
		}
		for cond, a := range alpha {
			hyp, _ := frame.Hypothesis(cond)
			cb := ConditionBelief{Condition: cond, Group: group, Reports: counts[[2]string{component, cond}], Reliability: a, Degraded: a < 1-1e-9}
			for _, s := range fused.focalSets() {
				if hyp.Contains(s) {
					cb.Belief += fused[s]
				}
				if !s.Intersect(hyp).IsEmpty() {
					cb.Plausibility += fused[s]
				}
			}
			out[cond] = cb
		}
	}
	return out
}

// nearBelief holds a row to the reference: the same names, counts and
// flags, and every number within 1e-12.
func nearBelief(a, b ConditionBelief) bool {
	return a.Condition == b.Condition && a.Group == b.Group && a.Reports == b.Reports && a.Degraded == b.Degraded &&
		math.Abs(a.Belief-b.Belief) <= 1e-12 && math.Abs(a.Plausibility-b.Plausibility) <= 1e-12 &&
		math.Abs(a.Reliability-b.Reliability) <= 1e-12
}

func sameBelief(a, b ConditionBelief) bool {
	return a.Condition == b.Condition && a.Group == b.Group && a.Reports == b.Reports && a.Degraded == b.Degraded &&
		math.Float64bits(a.Belief) == math.Float64bits(b.Belief) &&
		math.Float64bits(a.Plausibility) == math.Float64bits(b.Plausibility) &&
		math.Float64bits(a.Reliability) == math.Float64bits(b.Reliability)
}

// TestGroupStateIsEveryOtherRead: over seeded report schedules — several
// sources, the anonymous one, untimestamped and late evidence among them,
// with and without a discounter — the group read, ConditionState of each
// member and the Ranked rows are one set of numbers, bit for bit, and agree
// with the map-backed reference over the test's own table of current reports
// within 1e-12; AppendGroupFactors is the Factors of the read without the
// combine.
func TestGroupStateIsEveryOtherRead(t *testing.T) {
	groups := testGroups()
	var conditions []string
	for _, g := range []string{"electrical", "lubricant", "structural"} {
		conditions = append(conditions, groups[g]...)
	}
	components := []string{"chiller-1", "chiller-2"}
	sources := []string{"", "dc-1", "dc-2", "dc-3"}
	for seed := int64(1); seed <= 20; seed++ {
		for _, discounted := range []bool{false, true} {
			rng := newRand(seed)
			df, err := NewDiagnosticFuser(groups)
			if err != nil {
				t.Fatal(err)
			}
			var disc Discounter
			if discounted {
				disc = &fakeDiscounter{alpha: map[string]float64{"dc-1": 0.9 * rng.float(), "dc-2": 1, "dc-3": 0}}
				df.SetDiscounter(disc)
			}
			current, counts := map[refKey]refEntry{}, map[[2]string]int{}
			for i := 0; i < 40+rng.intn(40); i++ {
				// Some reports arrive late: an hour's jitter around the schedule.
				at := dt.Add(time.Duration(i-rng.intn(60)) * time.Minute)
				if rng.intn(8) == 0 {
					at = time.Time{}
				}
				k := refKey{components[rng.intn(2)], conditions[rng.intn(len(conditions))], sources[rng.intn(len(sources))]}
				belief := rng.float()
				if _, err := df.AddReportFrom(k.component, k.condition, k.source, at, belief); err != nil {
					t.Fatal(err)
				}
				if held, ok := current[k]; !ok || !at.Before(held.at) {
					current[k] = refEntry{min(belief, 0.999), at}
				}
				counts[[2]string{k.component, k.condition}]++
			}
			all := df.RankedAll()
			for _, component := range components {
				want := referenceRanked(current, counts, groups, disc, component)
				ranked := all[component]
				if len(ranked) != len(want) {
					t.Fatalf("seed %d discounted=%v: RankedAll[%s] has %d rows, reference %d", seed, discounted, component, len(ranked), len(want))
				}
				for _, cb := range ranked {
					if !nearBelief(cb, want[cb.Condition]) {
						t.Fatalf("seed %d discounted=%v: RankedAll row %+v != reference %+v", seed, discounted, cb, want[cb.Condition])
					}
				}
				for group := range groups {
					gs, err := df.GroupState(component, group)
					if err != nil {
						t.Fatal(err)
					}
					if factors := df.AppendGroupFactors(nil, component, group); !reflect.DeepEqual(factors, gs.Factors) {
						t.Fatalf("seed %d: AppendGroupFactors %v != the read's Factors %v", seed, factors, gs.Factors)
					}
					reports := 0
					for _, cs := range gs.Members {
						reports += cs.Reports
					}
					if (gs.Factors != nil) != (discounted && reports > 0) {
						t.Fatalf("seed %d discounted=%v, %d reports: Factors = %v", seed, discounted, reports, gs.Factors)
					}
					for i, member := range groups[group] {
						cs, err := df.ConditionState(component, member)
						if err != nil {
							t.Fatal(err)
						}
						if got := gs.Members[i]; !sameBelief(got.ConditionBelief, cs.ConditionBelief) ||
							math.Float64bits(got.Unknown) != math.Float64bits(cs.Unknown) {
							t.Fatalf("seed %d: group member %+v != ConditionState %+v", seed, got, cs)
						}
						if ref, reported := want[member]; reported != (cs.Reports > 0) || reported && !nearBelief(cs.ConditionBelief, ref) {
							t.Fatalf("seed %d discounted=%v: ConditionState %+v != reference %+v", seed, discounted, cs, ref)
						}
					}
				}
			}
		}
	}
}

package fusion

import (
	"math"
	"reflect"
	"slices"
	"strings"
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

// referenceRanked is one component's ranking as it was computed before the
// group read existed, from the fuser's Snapshot alone: its own frame per
// group, its own combination of the sources in id order,
// dempster.Mass.Belief and Plausibility per reported condition (one sorted
// focal-set walk each), and a per-condition maximum over the sources'
// factors. The group read must agree with it to the bit.
func referenceRanked(t *testing.T, st DiagnosticState, groups Groups, disc Discounter, component string) map[string]ConditionBelief {
	t.Helper()
	alphaOf := func(src SourceSnapshot) float64 {
		if disc == nil || src.Source == "" || src.LastReport.IsZero() {
			return 1
		}
		return disc.Reliability(src.Source, src.LastReport)
	}
	out := map[string]ConditionBelief{}
	for _, gs := range st.Groups {
		if gs.Component != component {
			continue
		}
		frame := dempster.MustFrame(append(slices.Clone(groups[gs.Group]), otherHypothesis)...)
		sources := slices.Clone(gs.Sources)
		slices.SortFunc(sources, func(a, b SourceSnapshot) int { return strings.Compare(a.Source, b.Source) })
		fused := dempster.VacuousMass(frame)
		for _, src := range sources {
			m := dempster.NewMass(frame)
			for _, fm := range src.Focal {
				set, err := frame.SetOf(fm.Members...)
				if err == nil {
					err = m.Put(set, fm.Mass)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if alpha := alphaOf(src); alpha < 1 {
				discounted := dempster.NewMass(frame)
				if err := dempster.DiscountInto(discounted, m, alpha); err != nil {
					t.Fatal(err)
				}
				m = discounted
			}
			next := dempster.NewMass(frame)
			if _, err := dempster.CombineInto(next, fused, m); err != nil {
				t.Fatal(err)
			}
			fused = next
		}
		for cond, n := range gs.Reports {
			hyp, err := frame.Hypothesis(cond)
			if err != nil {
				t.Fatal(err)
			}
			alpha, seen := 1.0, false
			for _, src := range sources {
				if !slices.Contains(src.Conditions, cond) {
					continue
				}
				if a := alphaOf(src); !seen || a > alpha {
					alpha, seen = a, true
				}
			}
			out[cond] = ConditionBelief{
				Condition: cond, Group: gs.Group, Belief: fused.Belief(hyp), Plausibility: fused.Plausibility(hyp),
				Reports: n, Reliability: alpha, Degraded: alpha < 1-1e-9,
			}
		}
	}
	return out
}

func sameBelief(a, b ConditionBelief) bool {
	return a.Condition == b.Condition && a.Group == b.Group && a.Reports == b.Reports && a.Degraded == b.Degraded &&
		math.Float64bits(a.Belief) == math.Float64bits(b.Belief) &&
		math.Float64bits(a.Plausibility) == math.Float64bits(b.Plausibility) &&
		math.Float64bits(a.Reliability) == math.Float64bits(b.Reliability)
}

// TestGroupStateIsEveryOtherRead: over seeded report schedules — several
// sources, the anonymous one and untimestamped evidence among them, with and
// without a discounter — the group read, ConditionState of each member and
// the Ranked rows are one set of numbers, bit for bit, and equal to the
// reference; AppendGroupFactors is the Factors of the read without the
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
			for i := 0; i < 40+rng.intn(40); i++ {
				at := dt.Add(time.Duration(i) * time.Minute)
				if rng.intn(8) == 0 {
					at = time.Time{}
				}
				if _, err := df.AddReportFrom(components[rng.intn(2)], conditions[rng.intn(len(conditions))],
					sources[rng.intn(len(sources))], at, rng.float()); err != nil {
					t.Fatal(err)
				}
			}
			snap, all := df.Snapshot(), df.RankedAll()
			for _, component := range components {
				want := referenceRanked(t, snap, groups, disc, component)
				ranked := all[component]
				if len(ranked) != len(want) {
					t.Fatalf("seed %d discounted=%v: RankedAll[%s] has %d rows, reference %d", seed, discounted, component, len(ranked), len(want))
				}
				for _, cb := range ranked {
					if !sameBelief(cb, want[cb.Condition]) {
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
						if ref, reported := want[member]; reported != (cs.Reports > 0) || reported && !sameBelief(cs.ConditionBelief, ref) {
							t.Fatalf("seed %d discounted=%v: ConditionState %+v != reference %+v", seed, discounted, cs, ref)
						}
					}
				}
			}
		}
	}
}

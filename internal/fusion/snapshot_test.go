package fusion

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/testkit"
)

// TestDiagnosticSnapshotRoundtrip: Snapshot → JSON → Restore reproduces
// every fused belief bit-for-bit — the property the PDME's recovery
// guarantee (identical Ranked/Belief after a crash) rests on.
func TestDiagnosticSnapshotRoundtrip(t *testing.T) {
	groups := testGroups()
	df, err := NewDiagnosticFuser(groups)
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC)
	reports := []struct {
		component, condition, source string
		belief                       float64
	}{
		{"motor/1", "motor imbalance", "vibration", 0.6},
		{"motor/1", "motor imbalance", "current", 0.55},
		{"motor/1", "motor misalignment", "vibration", 0.3},
		{"motor/1", "oil whirl", "oil", 0.7},
		{"pump/2", "stator electrical unbalance", "current", 0.42},
	}
	for i, r := range reports {
		if _, err := df.AddReportFrom(r.component, r.condition, r.source,
			at.Add(time.Duration(i)*time.Hour), r.belief); err != nil {
			t.Fatal(err)
		}
	}
	// A late report folds in without moving the pair's stamp back.
	late, err := df.AddReportFrom("motor/1", "oil whirl", "oil", at.Add(-time.Hour), 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if want := at.Add(3 * time.Hour); !late.UpdatedAt.Equal(want) {
		t.Fatalf("late report moved UpdatedAt to %v, want %v", late.UpdatedAt, want)
	}

	st := df.Snapshot()
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	restoreFrom := func(blob []byte) *DiagnosticFuser {
		t.Helper()
		var decoded DiagnosticState
		if err := json.Unmarshal(blob, &decoded); err != nil {
			t.Fatal(err)
		}
		restored, err := NewDiagnosticFuser(groups)
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.Restore(decoded); err != nil {
			t.Fatal(err)
		}
		return restored
	}
	restored := restoreFrom(blob)
	// The discounter is runtime wiring this test does not install.
	testkit.Carried(t, df, restored, "DiagnosticFuser.discounter")

	// A checkpoint written before GroupSnapshot.Newest existed: the same
	// evidence, every pair unstamped, no error.
	var parentShaped map[string]any
	if err := json.Unmarshal(blob, &parentShaped); err != nil {
		t.Fatal(err)
	}
	for _, g := range parentShaped["groups"].([]any) {
		delete(g.(map[string]any), "newest")
	}
	parentBlob, err := json.Marshal(parentShaped)
	if err != nil {
		t.Fatal(err)
	}
	unstamped := restoreFrom(parentBlob)

	if got, want := restored.ReportCount(), df.ReportCount(); got != want {
		t.Errorf("restored report count %d, want %d", got, want)
	}
	for comp, ranked := range df.RankedAll() {
		for _, cb := range ranked {
			b, err := restored.Belief(comp, cb.Condition)
			if err != nil {
				t.Fatalf("restored Belief(%s, %s): %v", comp, cb.Condition, err)
			}
			if math.Float64bits(b) != math.Float64bits(cb.Belief) {
				t.Errorf("%s/%s: restored belief %v != original %v (not bit-exact)",
					comp, cb.Condition, b, cb.Belief)
			}
			live, _ := df.ConditionState(comp, cb.Condition)
			got, err := restored.ConditionState(comp, cb.Condition)
			if err != nil || math.Float64bits(got.Plausibility) != math.Float64bits(cb.Plausibility) {
				t.Errorf("%s/%s: restored plausibility %v != original %v (err %v)",
					comp, cb.Condition, got.Plausibility, cb.Plausibility, err)
			}
			if live.UpdatedAt.IsZero() || !got.UpdatedAt.Equal(live.UpdatedAt) {
				t.Errorf("%s/%s: restored UpdatedAt %v, want %v", comp, cb.Condition, got.UpdatedAt, live.UpdatedAt)
			}
			old, err := unstamped.ConditionState(comp, cb.Condition)
			if err != nil || !old.UpdatedAt.IsZero() || math.Float64bits(old.Belief) != math.Float64bits(cb.Belief) {
				t.Errorf("%s/%s from a checkpoint without newest: UpdatedAt %v belief %v (err %v), want zero and %v",
					comp, cb.Condition, old.UpdatedAt, old.Belief, err, cb.Belief)
			}
		}
	}
	// Evidence (not just fused output) survived: a post-restore report
	// fuses against the recovered masses exactly as it would have live.
	next := at.Add(100 * time.Hour)
	bLive, err := df.AddReportFrom("motor/1", "motor imbalance", "vibration", next, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	bRec, err := restored.AddReportFrom("motor/1", "motor imbalance", "vibration", next, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(bLive.Belief) != math.Float64bits(bRec.Belief) || !bLive.UpdatedAt.Equal(bRec.UpdatedAt) {
		t.Errorf("post-restore fusion diverges: live %+v, recovered %+v", bLive, bRec)
	}
}

// TestDiagnosticRestoreRefusesUnknownNames: a snapshot naming a group or
// condition absent from the configured failure groups, or a condition filed
// under a group it is not a member of, is refused rather than silently
// dropped or misfiled — the operator changed the groups between runs and
// must know the checkpoint no longer applies. So is a snapshot naming one
// block, or one source of a block, twice.
func TestDiagnosticRestoreRefusesUnknownNames(t *testing.T) {
	at := time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC)
	source := func(id string, conditions ...string) SourceSnapshot {
		return SourceSnapshot{Source: id, LastReport: at, Conditions: conditions,
			Focal: []FocalMass{{Members: []string{"motor imbalance"}, Mass: 0.5}, {Members: []string{
				"motor imbalance", "motor misalignment", "bearing housing looseness", otherHypothesis}, Mass: 0.5}}}
	}
	block := func(edit func(*GroupSnapshot)) GroupSnapshot {
		g := GroupSnapshot{Component: "motor/1", Group: "structural",
			Sources: []SourceSnapshot{source("vibration", "motor imbalance")},
			Reports: map[string]int{"motor imbalance": 1}, Newest: map[string]time.Time{"motor imbalance": at}}
		edit(&g)
		return g
	}
	for _, tc := range []struct {
		name   string
		groups []GroupSnapshot
	}{
		{"unknown group", []GroupSnapshot{block(func(g *GroupSnapshot) { g.Group = "hydraulic" })}},
		{"unknown condition in a focal set", []GroupSnapshot{block(func(g *GroupSnapshot) {
			g.Sources[0].Focal[0].Members = []string{"cavitation"}
		})}},
		{"another group's condition in reports", []GroupSnapshot{block(func(g *GroupSnapshot) { g.Reports["oil whirl"] = 2 })}},
		{"the unknown hypothesis in reports", []GroupSnapshot{block(func(g *GroupSnapshot) { g.Reports[otherHypothesis] = 1 })}},
		{"another group's condition in newest", []GroupSnapshot{block(func(g *GroupSnapshot) { g.Newest["oil whirl"] = at })}},
		{"the unknown hypothesis in newest", []GroupSnapshot{block(func(g *GroupSnapshot) { g.Newest[otherHypothesis] = at })}},
		{"another group's condition in a source's conditions", []GroupSnapshot{block(func(g *GroupSnapshot) {
			g.Sources[0].Conditions = append(g.Sources[0].Conditions, "oil whirl")
		})}},
		{"the unknown hypothesis in a source's conditions", []GroupSnapshot{block(func(g *GroupSnapshot) {
			g.Sources[0].Conditions = []string{otherHypothesis}
		})}},
		{"a source named twice", []GroupSnapshot{block(func(g *GroupSnapshot) {
			g.Sources = append(g.Sources, source("current", "motor imbalance"), source("vibration", "motor misalignment"))
		})}},
		{"a block named twice", []GroupSnapshot{block(func(*GroupSnapshot) {}), block(func(*GroupSnapshot) {})}},
	} {
		df, err := NewDiagnosticFuser(testGroups())
		if err != nil {
			t.Fatal(err)
		}
		if err := df.Restore(DiagnosticState{Groups: tc.groups, TotalFused: 1}); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The unedited block restores: each refusal above is its edit's.
	df, err := NewDiagnosticFuser(testGroups())
	if err != nil {
		t.Fatal(err)
	}
	if err := df.Restore(DiagnosticState{Groups: []GroupSnapshot{block(func(*GroupSnapshot) {})}, TotalFused: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestPrognosticSnapshotRoundtrip: fused prognostic vectors survive
// snapshot/restore bit-exactly, and later fusion continues from them.
func TestPrognosticSnapshotRoundtrip(t *testing.T) {
	pf := NewPrognosticFuser()
	v1 := proto.PrognosticVector{{Probability: 0.3, HorizonSeconds: 24 * 3600}, {Probability: 0.8, HorizonSeconds: 96 * 3600}}
	v2 := proto.PrognosticVector{{Probability: 0.4, HorizonSeconds: 36 * 3600}, {Probability: 0.9, HorizonSeconds: 120 * 3600}}
	if _, err := pf.AddReport("motor/1", "motor imbalance", v1); err != nil {
		t.Fatal(err)
	}
	if _, err := pf.AddReport("motor/1", "motor imbalance", v2); err != nil {
		t.Fatal(err)
	}
	if _, err := pf.AddReport("pump/2", "oil whirl", v1); err != nil {
		t.Fatal(err)
	}

	st := pf.Snapshot()
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var decoded PrognosticState
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	restored := NewPrognosticFuser()
	if err := restored.Restore(decoded); err != nil {
		t.Fatal(err)
	}
	testkit.Carried(t, pf, restored)

	for _, e := range st {
		comp, cond := e.Component, e.Condition
		want, got := pf.Fused(comp, cond), restored.Fused(comp, cond)
		if len(want) != len(got) {
			t.Fatalf("%s/%s: restored vector has %d points, want %d", comp, cond, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(want[i].Probability) != math.Float64bits(got[i].Probability) ||
				math.Float64bits(want[i].HorizonSeconds) != math.Float64bits(got[i].HorizonSeconds) {
				t.Errorf("%s/%s[%d]: restored %+v != original %+v", comp, cond, i, got[i], want[i])
			}
		}
	}
	// An invalid vector in a snapshot is refused.
	if err := restored.Restore(PrognosticState{{
		Component: "x", Condition: "y",
		Vector: proto.PrognosticVector{{Probability: 2, HorizonSeconds: 3600}},
	}}); err == nil {
		t.Error("invalid prognostic vector accepted on restore")
	}
}

package fusion

import (
	"encoding/json"
	"math"
	"testing"
	"time"

	"repro/internal/checkpointtest"
	"repro/internal/proto"
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
	checkpointtest.Carried(t, df, restored, "DiagnosticFuser.discounter")

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
	for _, comp := range df.Components() {
		for _, cb := range df.Ranked(comp) {
			b, err := restored.Belief(comp, cb.Condition)
			if err != nil {
				t.Fatalf("restored Belief(%s, %s): %v", comp, cb.Condition, err)
			}
			if math.Float64bits(b) != math.Float64bits(cb.Belief) {
				t.Errorf("%s/%s: restored belief %v != original %v (not bit-exact)",
					comp, cb.Condition, b, cb.Belief)
			}
			pl, err := restored.Plausibility(comp, cb.Condition)
			if err != nil || math.Float64bits(pl) != math.Float64bits(cb.Plausibility) {
				t.Errorf("%s/%s: restored plausibility %v != original %v (err %v)",
					comp, cb.Condition, pl, cb.Plausibility, err)
			}
			live, _ := df.ConditionState(comp, cb.Condition)
			got, _ := restored.ConditionState(comp, cb.Condition)
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
// condition absent from the configured failure groups is refused rather
// than silently dropped — the operator changed the groups between runs and
// must know the checkpoint no longer applies.
func TestDiagnosticRestoreRefusesUnknownNames(t *testing.T) {
	df, err := NewDiagnosticFuser(testGroups())
	if err != nil {
		t.Fatal(err)
	}
	if err := df.Restore(DiagnosticState{Groups: []GroupSnapshot{{
		Component: "motor/1", Group: "hydraulic",
	}}}); err == nil {
		t.Error("unknown group accepted")
	}
	if err := df.Restore(DiagnosticState{Groups: []GroupSnapshot{{
		Component: "motor/1", Group: "structural",
		Sources: []SourceSnapshot{{
			Source: "vibration",
			Focal:  []FocalMass{{Members: []string{"cavitation"}, Mass: 0.5}},
		}},
	}}}); err == nil {
		t.Error("unknown condition in a focal set accepted")
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
	checkpointtest.Carried(t, pf, restored)

	for _, comp := range []string{"motor/1", "pump/2"} {
		for _, cond := range pf.Conditions(comp) {
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
	}
	// An invalid vector in a snapshot is refused.
	if err := restored.Restore(PrognosticState{{
		Component: "x", Condition: "y",
		Vector: proto.PrognosticVector{{Probability: 2, HorizonSeconds: 3600}},
	}}); err == nil {
		t.Error("invalid prognostic vector accepted on restore")
	}
}

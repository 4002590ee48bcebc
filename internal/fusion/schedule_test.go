package fusion

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/testkit"
)

// scheduleFolds is how many reports the seeded schedule folds in. At the
// parent of the per-source entries, whose running masses turned certain, a
// long schedule had thousands of its folds refused as total conflict.
const scheduleFolds = 20000

// schedule is the fuser after the seeded schedule, and how many of its
// reports Fold returned an error for.
type schedule struct {
	diag    *DiagnosticFuser
	refused int
}

// runSchedule folds the seeded schedule: four components, the test groups,
// the anonymous source and three DCs, each source mostly repeating one call
// per component, beliefs mostly near-certain, some reports late, and a
// prognostic vector on every tenth report.
func runSchedule(t testing.TB) schedule {
	t.Helper()
	groups := testGroups()
	var conds []string
	for _, g := range slices.Sorted(maps.Keys(groups)) {
		conds = append(conds, groups[g]...)
	}
	df, err := NewDiagnosticFuser(groups)
	if err != nil {
		t.Fatal(err)
	}
	s := schedule{diag: df}
	comps := []string{"chiller/1", "chiller/2", "chiller/3", "chiller/4"}
	sources := []string{"", "dc-1", "dc-2", "dc-3"}
	rng, vecs := rand.New(rand.NewSource(1)), newRand(1)
	t0 := time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC)
	for i := range scheduleFolds {
		c, k := rng.Intn(len(comps)), rng.Intn(len(sources))
		comp, src := comps[c], sources[k]
		// Each source mostly repeats its own call on a component, as a DC
		// does.
		cond := conds[(3*c+5*k)%len(conds)]
		if rng.Intn(8) == 0 {
			cond = conds[rng.Intn(len(conds))]
		}
		belief := 0.9 + 0.1*rng.Float64()
		switch rng.Intn(8) {
		case 0:
			belief = rng.Float64()
		case 1:
			belief = 1
		}
		at := t0.Add(time.Duration(i-rng.Intn(90)) * time.Minute)
		if src == "" {
			at = time.Time{}
		}
		r := &proto.Report{DCID: src, SensedObjectID: comp, MachineConditionID: cond, Belief: belief, Timestamp: at}
		if i%10 == 0 {
			r.Prognostics = randomVector(vecs)
		}
		if _, _, err := df.Fold(r, 0, nil); err != nil {
			s.refused++
		}
	}
	return s
}

// readsText is every block's GroupState under a fixed discounter, one line
// per member, floats in their shortest exact form: the read path's output,
// discounting and the fused prognostic vectors included, bit for bit.
func readsText(t testing.TB, df *DiagnosticFuser) []byte {
	t.Helper()
	df.SetDiscounter(&fakeDiscounter{alpha: map[string]float64{"dc-2": 0.8, "dc-3": 0.35}})
	defer df.SetDiscounter(nil)
	g := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	var b bytes.Buffer
	for _, blk := range df.Blocks() {
		gs, err := df.GroupState(blk[0], blk[1])
		if err != nil {
			fmt.Fprintf(&b, "%s/%s: %v\n", blk[0], blk[1], err)
			continue
		}
		for _, m := range gs.Members {
			vec, err := proto.AppendPrognosticsJSON(nil, m.Prognostics)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s/%s: bel %s pl %s unknown %s reports %d reliability %s degraded %v updated %s prognostics %s\n",
				blk[0], m.Condition, g(m.Belief), g(m.Plausibility), g(m.Unknown), m.Reports, g(m.Reliability), m.Degraded,
				m.UpdatedAt.Format(time.RFC3339), vec)
		}
	}
	return b.Bytes()
}

// TestSchedulePinnedBytes: the seeded schedule folds every report — none
// meets total conflict — and its discounted reads, fused vectors included,
// are byte for byte what testdata/schedule_reads.txt holds (written with
// -update). Every sum the fold and the read make must be the same float
// sequence.
func TestSchedulePinnedBytes(t *testing.T) {
	s := runSchedule(t)
	if s.refused != 0 {
		t.Errorf("%d of %d folds refused, want none", s.refused, scheduleFolds)
	}
	testkit.Bytes(t, "testdata/schedule_reads.txt", readsText(t, s.diag))
}

// TestRefusedFoldLeavesStateUntouched: a report with a NaN belief on a block
// that holds evidence is refused, and so is one whose keep fails; either way
// every read of the block is what it was.
func TestRefusedFoldLeavesStateUntouched(t *testing.T) {
	df, err := NewDiagnosticFuser(testGroups())
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC)
	for i, b := range []float64{0.6, 0.8, 0.3} {
		if _, err := df.AddReportFrom("motor/1", "motor imbalance", "dc-1", at.Add(time.Duration(i)*time.Hour), b); err != nil {
			t.Fatal(err)
		}
	}
	before := readsText(t, df)
	if _, err := df.AddReportFrom("motor/1", "motor misalignment", "dc-1", at.Add(5*time.Hour), math.NaN()); err == nil {
		t.Fatal("a fold of a NaN belief was accepted")
	}
	if after := readsText(t, df); !bytes.Equal(before, after) {
		t.Fatalf("a refused fold changed the state:\n%s\n%s", before, after)
	}
	// A fold its keep refuses changes nothing either: not the entry, the
	// count, the stamp or the vector.
	refusal := errors.New("historian closed")
	r := &proto.Report{DCID: "dc-1", SensedObjectID: "motor/1", MachineConditionID: "motor misalignment", Belief: 0.9,
		Timestamp: at.Add(6 * time.Hour), Prognostics: proto.PrognosticVector{{Probability: 0.5, HorizonSeconds: 3600}}}
	if _, _, err := df.Fold(r, 0, func() error { return refusal }); err != refusal {
		t.Fatalf("a fold keep refused answered %v, want keep's error", err)
	}
	if after := readsText(t, df); !bytes.Equal(before, after) {
		t.Fatalf("a fold keep refused changed the state:\n%s\n%s", before, after)
	}
}

// TestNaNBeliefRefusedBeforeAnyState: a NaN belief is outside [0,1] and is
// refused by the range check, before the fold creates the block or the entry
// it would have gone to: Blocks() and the reads are as they were.
func TestNaNBeliefRefusedBeforeAnyState(t *testing.T) {
	df, err := NewDiagnosticFuser(testGroups())
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC)
	if _, err := df.AddReportFrom("motor/1", "motor imbalance", "dc-1", at, 0.6); err != nil {
		t.Fatal(err)
	}
	blocks, before := df.Blocks(), readsText(t, df)
	for _, r := range []struct{ component, condition, source string }{
		{"motor/2", "motor imbalance", "dc-1"}, // a new block
		{"motor/1", "motor imbalance", "dc-2"}, // a new source on a held block
	} {
		_, err := df.AddReportFrom(r.component, r.condition, r.source, at.Add(time.Hour), math.NaN())
		if err == nil || !strings.Contains(err.Error(), "outside [0,1]") {
			t.Fatalf("%v: a NaN belief was answered %v, want the range error", r, err)
		}
	}
	if got := df.Blocks(); !slices.Equal(got, blocks) {
		t.Errorf("refused NaN folds changed the blocks: %v, want %v", got, blocks)
	}
	if after := readsText(t, df); !bytes.Equal(before, after) {
		t.Errorf("refused NaN folds changed the state:\n%s\n%s", before, after)
	}
}

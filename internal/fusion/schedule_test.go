package fusion

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/testkit"
)

// scheduleFolds is how many diagnostic reports the seeded schedule folds in.
// It is long enough that some sources' Θ underflows to 0 — a focal set a
// combination keeps with mass 0 — and that some reads across sources refuse
// as total conflict.
const scheduleFolds = 20000

// schedule is the fusers after the seeded schedule, and how many of its
// diagnostic reports AddReportFrom returned an error for.
type schedule struct {
	diag    *DiagnosticFuser
	prog    *PrognosticFuser
	refused int
}

// runSchedule folds the seeded schedule: four components, the test groups,
// the anonymous source and three DCs, each source mostly repeating one call
// per component, beliefs mostly near-certain, some reports late, and one
// prognostic vector every tenth report.
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
	s := schedule{diag: df, prog: NewPrognosticFuser()}
	comps := []string{"chiller/1", "chiller/2", "chiller/3", "chiller/4"}
	sources := []string{"", "dc-1", "dc-2", "dc-3"}
	rng, vecs := rand.New(rand.NewSource(1)), newRand(1)
	t0 := time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC)
	for i := range scheduleFolds {
		c, k := rng.Intn(len(comps)), rng.Intn(len(sources))
		comp, src := comps[c], sources[k]
		// Each source mostly repeats its own call on a component, as a DC
		// does, so agreeing evidence drives its Θ down to 0.
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
		if _, err := df.AddReportFrom(comp, cond, src, at, belief); err != nil {
			s.refused++
		}
		if i%10 == 0 {
			if _, err := s.prog.AddReport(comp, cond, randomVector(vecs)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s
}

// diagnosticJSON is the diagnostic fuser's checkpoint bytes.
func diagnosticJSON(t testing.TB, df *DiagnosticFuser) []byte {
	t.Helper()
	b, err := df.Capture().AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// readsText is every block's GroupState under a fixed discounter, one line
// per member, floats in their shortest exact form: the read path's output,
// discounting included, bit for bit.
func readsText(df *DiagnosticFuser) []byte {
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
			fmt.Fprintf(&b, "%s/%s: bel %s pl %s unknown %s reports %d reliability %s degraded %v\n",
				blk[0], m.Condition, g(m.Belief), g(m.Plausibility), g(m.Unknown), m.Reports, g(m.Reliability), m.Degraded)
		}
	}
	return b.Bytes()
}

// TestSchedulePinnedBytes: the seeded schedule's diagnostic and prognostic
// checkpoint bytes, and its discounted reads, are byte for byte what the
// map-backed fold wrote before folds became in place (testdata/, written
// with -update by that build). Every sum the fold and the read make must be
// the same float sequence, zero masses included.
func TestSchedulePinnedBytes(t *testing.T) {
	s := runSchedule(t)
	prog, err := s.prog.Capture().AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d of %d folds refused", s.refused, scheduleFolds)
	testkit.Bytes(t, "testdata/schedule_diagnostic.json", diagnosticJSON(t, s.diag))
	testkit.Bytes(t, "testdata/schedule_prognostic.json", prog)
	testkit.Bytes(t, "testdata/schedule_reads.txt", readsText(s.diag))
}

// TestCaptureRestoreCaptureIsIdentity: a fuser restored from a checkpoint
// checkpoints to the same bytes — zero-mass focal sets included, which an
// underflowed Θ leaves in a long evidence chain.
func TestCaptureRestoreCaptureIsIdentity(t *testing.T) {
	s := runSchedule(t)
	first := diagnosticJSON(t, s.diag)
	if !bytes.Contains(first, []byte(`"mass":0}`)) {
		t.Fatal("the schedule left no zero mass, so this test checks nothing")
	}
	var st DiagnosticState
	if err := json.Unmarshal(first, &st); err != nil {
		t.Fatal(err)
	}
	restored, err := NewDiagnosticFuser(testGroups())
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(st); err != nil {
		t.Fatal(err)
	}
	if second := diagnosticJSON(t, restored); !bytes.Equal(first, second) {
		t.Fatalf("capture → Restore → capture: %d bytes became %d, first difference at byte %d",
			len(first), len(second), firstDifference(first, second))
	}
}

// TestRefusedFoldLeavesStateUntouched: a report with a NaN belief on a block
// that holds evidence is refused, and the source's mass is what it was.
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
	before := diagnosticJSON(t, df)
	if _, err := df.AddReportFrom("motor/1", "motor misalignment", "dc-1", at.Add(5*time.Hour), math.NaN()); err == nil {
		t.Fatal("a fold of a NaN belief was accepted")
	}
	if after := diagnosticJSON(t, df); !bytes.Equal(before, after) {
		t.Fatalf("a refused fold changed the state:\n%s\n%s", before, after)
	}
}

// TestNaNBeliefRefusedBeforeAnyState: a NaN belief is outside [0,1] and is
// refused by the range check, before the fold creates the block or the source
// it would have gone to: Blocks() and the capture bytes are as they were.
func TestNaNBeliefRefusedBeforeAnyState(t *testing.T) {
	df, err := NewDiagnosticFuser(testGroups())
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC)
	if _, err := df.AddReportFrom("motor/1", "motor imbalance", "dc-1", at, 0.6); err != nil {
		t.Fatal(err)
	}
	blocks, before := df.Blocks(), diagnosticJSON(t, df)
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
	if after := diagnosticJSON(t, df); !bytes.Equal(before, after) {
		t.Errorf("refused NaN folds changed the state:\n%s\n%s", before, after)
	}
}

// firstDifference is the index of the first byte where a and b differ.
func firstDifference(a, b []byte) int {
	n := min(len(a), len(b))
	for i := range n {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

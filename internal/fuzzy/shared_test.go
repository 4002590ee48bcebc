package fuzzy

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/chiller"
)

// TestSharedSystemMatchesSerial: one ChillerDiagnostics, diagnosed from
// GOMAXPROCS goroutines at once over seeded process states, gives every
// severity with the bits a serial pass gives — a System is read-only after
// NewSystem, so sharing it between goroutines is safe (run it with -race).
func TestSharedSystemMatchesSerial(t *testing.T) {
	cd, err := NewChillerDiagnostics()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(64))
	states := make([]chiller.ProcessState, 400)
	for i := range states {
		states[i] = chiller.ProcessState{
			EvapPressurePSI: 10 + 40*rng.Float64(),
			SuperheatF:      40 * rng.Float64(),
			CondPressurePSI: 80 + 100*rng.Float64(),
			CondApproachF:   20 * rng.Float64(),
			LoadFraction:    rng.Float64(),
		}
	}
	// severities returns every state's two severities (threshold 0 keeps
	// both conclusions), as bits.
	severities := func() ([]uint64, error) {
		out := make([]uint64, 0, 2*len(states))
		for _, ps := range states {
			res, err := cd.Diagnose(ps, 0)
			if err != nil {
				return nil, err
			}
			for _, r := range res {
				out = append(out, math.Float64bits(r.Severity))
			}
		}
		return out, nil
	}
	want, err := severities()
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	for _, b := range want {
		if math.Float64frombits(b) > 0 {
			fired++
		}
	}
	if len(want) != 2*len(states) || fired == 0 {
		t.Fatalf("serial pass: %d severities, %d above 0", len(want), fired)
	}
	workers := runtime.GOMAXPROCS(0)
	got := make([][]uint64, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w], errs[w] = severities()
		}()
	}
	wg.Wait()
	for w := range workers {
		if errs[w] != nil {
			t.Fatalf("goroutine %d: %v", w, errs[w])
		}
		if len(got[w]) != len(want) {
			t.Fatalf("goroutine %d: %d severities, want %d", w, len(got[w]), len(want))
		}
		for i := range want {
			if got[w][i] != want[i] {
				t.Fatalf("goroutine %d, severity %d: %#x, want %#x", w, i, got[w][i], want[i])
			}
		}
	}
}

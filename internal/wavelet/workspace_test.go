package wavelet

import (
	"math"
	"testing"
)

func workspaceTestSignal(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(0.05*float64(i)) + 0.3*math.Cos(0.7*float64(i))
		if i == n/2 {
			x[i] += 4 // a transient for the detail bands to catch
		}
	}
	return x
}

// TestWorkspaceMatchesDecompose guards workspace reuse: one workspace fed
// different frames in interleaved order must return, for each, bit for bit
// what a fresh one-shot Decompose returns, including the energy map — no
// coefficient or band energy of the previous frame survives.
func TestWorkspaceMatchesDecompose(t *testing.T) {
	const n = 512
	impulse := make([]float64, n)
	impulse[n/3] = -5
	ramp := make([]float64, n)
	for i := range ramp {
		ramp[i] = float64(i) / n
	}
	frames := [][]float64{
		workspaceTestSignal(n),
		make([]float64, n), // zero energy right after a live frame
		impulse,
		ramp,
	}
	for _, k := range []Kind{Haar, Daubechies4} {
		for _, levels := range []int{0, 1, 3} {
			w, err := NewWorkspace(k, n, levels)
			if err != nil {
				t.Fatalf("%v levels=%d: NewWorkspace: %v", k, levels, err)
			}
			for step, fi := range []int{0, 1, 2, 0, 3, 3, 1, 0} {
				x := frames[fi]
				want, err := Decompose(k, x, levels)
				if err != nil {
					t.Fatalf("%v levels=%d: Decompose: %v", k, levels, err)
				}
				got, err := w.Decompose(x)
				if err != nil {
					t.Fatalf("%v levels=%d step %d: %v", k, levels, step, err)
				}
				if len(got.Details) != len(want.Details) {
					t.Fatalf("%v levels=%d: %d levels, want %d", k, levels, len(got.Details), len(want.Details))
				}
				for l := range want.Details {
					for i := range want.Details[l] {
						if got.Details[l][i] != want.Details[l][i] {
							t.Fatalf("%v step %d level %d detail %d: %v != %v", k, step, l, i, got.Details[l][i], want.Details[l][i])
						}
					}
				}
				for i := range want.Approx {
					if got.Approx[i] != want.Approx[i] {
						t.Fatalf("%v step %d approx %d: %v != %v", k, step, i, got.Approx[i], want.Approx[i])
					}
				}
				wantE := want.EnergyMap()
				gotE := w.EnergyMap()
				if len(gotE) != len(wantE) {
					t.Fatalf("%v: energy map of %d bands, want %d", k, len(gotE), len(wantE))
				}
				for i := range wantE {
					if gotE[i] != wantE[i] {
						t.Fatalf("%v step %d energy band %d: %v != %v", k, step, i, gotE[i], wantE[i])
					}
				}
			}
		}
	}
}

func TestWorkspaceRejects(t *testing.T) {
	if _, err := NewWorkspace(Haar, 1, 0); err == nil {
		t.Error("too-short frame accepted")
	}
	w, err := NewWorkspace(Haar, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Decompose(make([]float64, 32)); err == nil {
		t.Error("wrong-length frame accepted")
	}
}

// TestWorkspaceZeroAlloc is the hot-path budget for the per-tick wavelet
// features: zero heap allocations per Decompose + EnergyMap.
func TestWorkspaceZeroAlloc(t *testing.T) {
	x := workspaceTestSignal(512)
	w, err := NewWorkspace(Daubechies4, len(x), 0)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := w.Decompose(x); err != nil {
			t.Fatal(err)
		}
		w.EnergyMap()
	})
	if allocs != 0 {
		t.Errorf("Decompose+EnergyMap allocates %.1f times per frame, want 0", allocs)
	}
}

package sbfr

import "testing"

// deltaSource accumulates rises and counts falls, so both its local and its
// status register depend on every tick's delta.
const deltaSource = `
machine Edges
  locals 1
  state Watch
    when delta.x > 0.5 do local.0 = local.0 + delta.x goto Watch
    when delta.x < -0.5 do status.self = status.self + 1 goto Watch
`

// TestCycleReusedSystemMatchesFresh guards the system-owned tick buffers:
// a system that ran one input sequence and was Reset must tick a different
// sequence exactly as a fresh system does — no baseline or delta survives.
func TestCycleReusedSystemMatchesFresh(t *testing.T) {
	mk := func() *System {
		sys, err := NewSystemFromSource(deltaSource, []string{"x"})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	seqs := [][]float64{
		{9, 10, 3, 4.2, 4.3, 0},
		{0, 1, 2, 0, 5, 5, 4},
		{-3, 7},
	}
	reused := mk()
	for si, seq := range seqs {
		fresh := mk()
		for i, v := range seq {
			if err := fresh.Cycle([]float64{v}); err != nil {
				t.Fatalf("seq %d tick %d: fresh: %v", si, i, err)
			}
			if err := reused.Cycle([]float64{v}); err != nil {
				t.Fatalf("seq %d tick %d: reused: %v", si, i, err)
			}
			fl, _ := fresh.LocalOf("Edges", 0)
			rl, _ := reused.LocalOf("Edges", 0)
			fs, _ := fresh.Status("Edges")
			rs, _ := reused.Status("Edges")
			if fl != rl || fs != rs {
				t.Fatalf("seq %d tick %d: reused (local %v, status %v) != fresh (local %v, status %v)",
					si, i, rl, rs, fl, fs)
			}
		}
		reused.Reset()
	}
}

// TestCycleZeroAlloc is the hot-path budget for the rule-machine tick on the
// embedded cycle: zero heap allocations per Cycle.
func TestCycleZeroAlloc(t *testing.T) {
	sys, err := NewSystemFromSource(counterSource, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]float64, 1)
	allocs := testing.AllocsPerRun(200, func() {
		inputs[0] = 1 - inputs[0]
		if err := sys.Cycle(inputs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Cycle allocates %.1f times per tick, want 0", allocs)
	}
}

package sbfr

import (
	"strings"
	"testing"
)

// counter is a trivial one-machine source used across tests.
const counterSource = `
machine Counter
  locals 1
  state Run
    when in.x > 0.5 do local.0 = local.0 + 1 goto Run
    when local.0 > 2 do status.self = 1 goto Done
  state Done
    when status.self == 0 do local.0 = 0 goto Run
`

func TestAssembleAndRunCounter(t *testing.T) {
	sys, err := NewSystemFromSource(counterSource, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	// Three pulses, then a quiet tick to let the count check fire.
	seq := []float64{1, 1, 1, 0, 0}
	for _, v := range seq {
		if err := sys.Cycle([]float64{v}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := sys.Status("Counter")
	if err != nil {
		t.Fatal(err)
	}
	if st != 1 {
		t.Fatalf("status %g, want 1", st)
	}
	name, _ := sys.StateOf("Counter")
	if name != "Done" {
		t.Fatalf("state %q", name)
	}
	// External agent resets the status; the machine returns to Run and
	// clears its local.
	if err := sys.SetStatus("Counter", 0); err != nil {
		t.Fatal(err)
	}
	if err := sys.Cycle([]float64{0}); err != nil {
		t.Fatal(err)
	}
	name, _ = sys.StateOf("Counter")
	if name != "Run" {
		t.Fatalf("state after reset %q", name)
	}
	if v, _ := sys.LocalOf("Counter", 0); v != 0 {
		t.Fatalf("local not cleared: %g", v)
	}
}

func TestElapsedSemantics(t *testing.T) {
	src := `
machine Timer
  state Wait
    when elapsed >= 3 goto Fired
  state Fired
    when 0 goto Fired
`
	sys, err := NewSystemFromSource(src, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	// Elapsed increments on each non-firing tick; fires on the 4th cycle.
	for i := 0; i < 3; i++ {
		if err := sys.Cycle([]float64{0}); err != nil {
			t.Fatal(err)
		}
		if st, _ := sys.StateOf("Timer"); st != "Wait" {
			t.Fatalf("cycle %d: state %s", i, st)
		}
	}
	if err := sys.Cycle([]float64{0}); err != nil {
		t.Fatal(err)
	}
	if st, _ := sys.StateOf("Timer"); st != "Fired" {
		t.Fatal("timer did not fire at elapsed>=3")
	}
}

func TestDeltaSemantics(t *testing.T) {
	src := `
machine Rise
  state Wait
    when delta.x > 0.5 goto Hit
  state Hit
    when 0 goto Hit
`
	sys, err := NewSystemFromSource(src, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	// First cycle establishes baseline: a high initial value is NOT a rise.
	if err := sys.Cycle([]float64{10}); err != nil {
		t.Fatal(err)
	}
	if st, _ := sys.StateOf("Rise"); st != "Wait" {
		t.Fatal("baseline tick must not trigger delta")
	}
	if err := sys.Cycle([]float64{10.1}); err != nil {
		t.Fatal(err)
	}
	if st, _ := sys.StateOf("Rise"); st != "Wait" {
		t.Fatal("small delta must not trigger")
	}
	if err := sys.Cycle([]float64{11}); err != nil {
		t.Fatal(err)
	}
	if st, _ := sys.StateOf("Rise"); st != "Hit" {
		t.Fatal("0.9 delta should trigger")
	}
}

func TestCrossMachineStatus(t *testing.T) {
	src := `
machine Producer
  state S
    when in.x > 0 do status.self = 5 goto S

machine Consumer
  locals 1
  state S
    when status.Producer == 5 do local.0 = 1; status.Producer = 0 goto S
`
	sys, err := NewSystemFromSource(src, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Cycle([]float64{1}); err != nil {
		t.Fatal(err)
	}
	// Producer runs first and sets status; Consumer sees it the same cycle
	// (in-order scheduling) and resets it.
	if v, _ := sys.LocalOf("Consumer", 0); v != 1 {
		t.Fatal("consumer did not observe producer status")
	}
	if st, _ := sys.Status("Producer"); st != 0 {
		t.Fatal("consumer did not reset producer status")
	}
}

func TestTransitionPriorityOrder(t *testing.T) {
	src := `
machine P
  locals 1
  state S
    when in.x > 0 do local.0 = 1 goto S
    when in.x > 0 do local.0 = 2 goto S
`
	sys, err := NewSystemFromSource(src, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Cycle([]float64{1}); err != nil {
		t.Fatal(err)
	}
	if v, _ := sys.LocalOf("P", 0); v != 1 {
		t.Fatalf("first transition must win, local=%g", v)
	}
}

func TestSelfTransitionResetsElapsed(t *testing.T) {
	src := `
machine P
  locals 1
  state S
    when in.x > 0 goto S
    when elapsed >= 2 do local.0 = 1 goto S
`
	sys, err := NewSystemFromSource(src, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	// Keep x high: elapsed never accumulates because the self-transition
	// fires every cycle.
	for i := 0; i < 10; i++ {
		if err := sys.Cycle([]float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	if v, _ := sys.LocalOf("P", 0); v != 0 {
		t.Fatal("elapsed should have been reset by self-transitions")
	}
}

func TestExpressionOperators(t *testing.T) {
	// Exercise each operator through a machine that computes into locals.
	src := `
machine Ops
  locals 8
  state S
    when 1 do local.0 = 2 + 3; local.1 = 10 - 4; local.2 = 6 * 7; \
      local.3 = (1 | 4) + (2 | 2); local.4 = !0 + !5; \
      local.5 = (3 >= 3) + (3 <= 2) + (1 == 1) + (1 != 1); \
      local.6 = (2 > 1 && 1 > 2) + (2 > 1 || 1 > 2); \
      local.7 = -3 * -2 goto S
`
	sys, err := NewSystemFromSource(src, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Cycle([]float64{0}); err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 6, 42, 7, 1, 2, 1, 6}
	for i, w := range want {
		if v, _ := sys.LocalOf("Ops", i); v != w {
			t.Errorf("local.%d = %g, want %g", i, v, w)
		}
	}
}

func TestAssemblerErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"empty", ""},
		{"no machine", "state S\n"},
		{"machine two names", "machine A B\n state S\n when 1 goto S"},
		{"no states", "machine A\n locals 1"},
		{"dup state", "machine A\n state S\n state S"},
		{"dup machine", "machine A\n state S\n when 1 goto S\nmachine A\n state S\n when 1 goto S"},
		{"bad target", "machine A\n state S\n when 1 goto Ghost"},
		{"missing goto", "machine A\n state S\n when 1"},
		{"empty cond", "machine A\n state S\n when  goto S"},
		{"bad channel", "machine A\n state S\n when in.ghost > 0 goto S"},
		{"bad delta channel", "machine A\n state S\n when delta.ghost > 0 goto S"},
		{"bad status machine", "machine A\n state S\n when status.Ghost > 0 goto S"},
		{"local out of range", "machine A\n locals 1\n state S\n when local.5 > 0 goto S"},
		{"action local oob", "machine A\n locals 1\n state S\n when 1 do local.7 = 1 goto S"},
		{"action no equals", "machine A\n state S\n when 1 do local.0 goto S"},
		{"action bad target", "machine A\n state S\n when 1 do bogus = 1 goto S"},
		{"single equals expr", "machine A\n state S\n when in.x = 1 goto S"},
		{"stray amp", "machine A\n state S\n when 1 & 1 goto S"},
		{"unbalanced paren", "machine A\n state S\n when (1 goto S"},
		{"trailing token", "machine A\n state S\n when 1 2 goto S"},
		{"bad locals", "machine A\n locals x\n state S\n when 1 goto S"},
		{"transition outside state", "machine A\n when 1 goto S\n state S"},
		{"unknown stmt", "machine A\n state S\n bogus"},
		{"unknown ident", "machine A\n state S\n when frobnicate > 0 goto S"},
		{"action status ghost", "machine A\n state S\n when 1 do status.Ghost = 1 goto S"},
	}
	for _, c := range cases {
		if _, err := AssembleSystem(c.src, []string{"x"}); err == nil {
			t.Errorf("%s: expected assembly error", c.name)
		}
	}
	if _, err := AssembleSystem("machine A\n state S\n when 1 goto S", []string{"x", "x"}); err == nil {
		t.Error("duplicate channel should error")
	}
}

func TestSystemErrors(t *testing.T) {
	sys, err := NewSystemFromSource(counterSource, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Cycle([]float64{1, 2}); err == nil {
		t.Error("wrong input width should error")
	}
	if _, err := sys.Status("Ghost"); err == nil {
		t.Error("unknown machine status")
	}
	if err := sys.SetStatus("Ghost", 1); err == nil {
		t.Error("unknown machine set status")
	}
	if _, err := sys.StateOf("Ghost"); err == nil {
		t.Error("unknown machine state")
	}
	if _, err := sys.LocalOf("Ghost", 0); err == nil {
		t.Error("unknown machine local")
	}
	if _, err := NewSystem([]string{"x"}, nil); err == nil {
		t.Error("empty system should error")
	}
	// Programs must be assembled together (self index contiguity).
	progs, _ := AssembleSystem(counterSource, []string{"x"})
	if _, err := NewSystem([]string{"x"}, []*Program{progs[0], progs[0]}); err == nil {
		t.Error("mis-indexed programs should error")
	}
}

func TestResetAndTicks(t *testing.T) {
	sys, err := NewSystemFromSource(counterSource, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := sys.Cycle([]float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	if sys.Ticks() != 5 {
		t.Errorf("ticks %d", sys.Ticks())
	}
	sys.Reset()
	if sys.Ticks() != 0 {
		t.Error("ticks after reset")
	}
	if st, _ := sys.StateOf("Counter"); st != "Run" {
		t.Error("state after reset")
	}
	if v, _ := sys.Status("Counter"); v != 0 {
		t.Error("status after reset")
	}
}

func TestMachineNamesAndFootprint(t *testing.T) {
	sys, err := NewEMASystem()
	if err != nil {
		t.Fatal(err)
	}
	names := sys.MachineNames()
	if len(names) != 2 || names[0] != "Spike" || names[1] != "Stiction" {
		t.Fatalf("names %v", names)
	}
	if sys.FootprintBytes() <= 0 || sys.FootprintBytes() > 1024 {
		t.Errorf("EMA system footprint %d bytes, expected small", sys.FootprintBytes())
	}
	if sys.RuntimeBytes() <= 0 {
		t.Error("runtime bytes")
	}
}

// TestFigure3MachineSizes pins the compiled sizes of the Figure 3 machines
// to the same order of magnitude the paper reports (229 and 93 bytes).
func TestFigure3MachineSizes(t *testing.T) {
	progs, err := AssembleSystem(EMASource, EMAChannels)
	if err != nil {
		t.Fatal(err)
	}
	spike, stiction := progs[0], progs[1]
	if spike.Size() < 50 || spike.Size() > 500 {
		t.Errorf("spike machine %d bytes, paper reports 229", spike.Size())
	}
	if stiction.Size() < 50 || stiction.Size() > 500 {
		t.Errorf("stiction machine %d bytes, paper reports 93", stiction.Size())
	}
	t.Logf("spike=%dB stiction=%dB (paper: 229B, 93B)", spike.Size(), stiction.Size())
	if spike.NumStates() != 4 {
		t.Errorf("spike machine has %d states, Figure 3 shows 4", spike.NumStates())
	}
	if stiction.NumStates() != 2 {
		t.Errorf("stiction machine has %d states, Figure 3 shows 2", stiction.NumStates())
	}
}

func TestDisassembleRoundTrip(t *testing.T) {
	progs, err := AssembleSystem(EMASource, EMAChannels)
	if err != nil {
		t.Fatal(err)
	}
	env := Env{Channels: map[string]int{"current": 0, "cpos": 1},
		Machines: map[string]int{"Spike": 0, "Stiction": 1}}
	for _, p := range progs {
		text, err := Disassemble(p, &env)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if !strings.Contains(text, "machine "+p.Name) {
			t.Errorf("missing header in %q", text)
		}
		for _, s := range p.StateNames {
			if !strings.Contains(text, "state "+s) {
				t.Errorf("missing state %s", s)
			}
		}
	}
	// The disassembly re-assembles to semantically identical machines.
	var combined strings.Builder
	for _, p := range progs {
		text, _ := Disassemble(p, &env)
		// Strip the "; N bytes" comment — the assembler ignores comments anyway.
		combined.WriteString(text)
	}
	reprogs, err := AssembleSystem(combined.String(), EMAChannels)
	if err != nil {
		t.Fatalf("reassemble: %v\nsource:\n%s", err, combined.String())
	}
	if len(reprogs) != len(progs) {
		t.Fatal("machine count changed through round trip")
	}
	for i := range progs {
		if reprogs[i].NumStates() != progs[i].NumStates() {
			t.Errorf("machine %d state count changed", i)
		}
	}
}

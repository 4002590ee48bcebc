package sbfr

import (
	"strings"
	"testing"
)

// These tests exercise the defensive paths of the bytecode machinery:
// corrupted programs must be rejected at load or fail cleanly at run time,
// never panic — the DC downloads machines into long-running processes.

func validProgram(t *testing.T) *Program {
	t.Helper()
	progs, err := AssembleSystem(counterSource, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	return progs[0]
}

func corrupt(p *Program, mutate func(code []byte)) *Program {
	code := append([]byte(nil), p.Code...)
	mutate(code)
	return &Program{Name: p.Name, StateNames: p.StateNames, Code: code, SelfIndex: p.SelfIndex}
}

func TestNewRuntimeRejectsCorruptBytecode(t *testing.T) {
	good := validProgram(t)
	if _, err := newRuntime(good); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
	cases := []struct {
		name string
		prog *Program
	}{
		{"empty", &Program{Name: "e", StateNames: []string{"s"}, Code: nil}},
		{"truncated", corrupt(good, func(c []byte) {})},
	}
	// Truncated: chop the code.
	cases[1].prog.Code = cases[1].prog.Code[:len(cases[1].prog.Code)/2]
	for _, c := range cases {
		if _, err := newRuntime(c.prog); err == nil {
			t.Errorf("%s: corrupt program accepted", c.name)
		}
	}
	// Trailing garbage.
	trailing := corrupt(good, func([]byte) {})
	trailing.Code = append(trailing.Code, 0x00, 0x00)
	if _, err := newRuntime(trailing); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestRuntimeErrorsSurfaceThroughCycle(t *testing.T) {
	// A machine whose condition reads a sensor index that the system does
	// not provide: assemble against a 2-channel env, run with 1 channel.
	progs, err := AssembleSystem(`
machine M
  state S
    when in.y > 0 goto S
`, []string{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem([]string{"x"}, progs)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Cycle([]float64{1}); err == nil {
		t.Fatal("out-of-range sensor read should error, not panic")
	}
}

func TestDisassembleCorruptProgram(t *testing.T) {
	good := validProgram(t)
	// Unknown opcode in the condition stream.
	bad := corrupt(good, func(c []byte) {
		// First state header is at offset 2; transition header is 2 bytes;
		// the condition expression starts at offset 5.
		c[5] = 0xEE
	})
	if _, err := Disassemble(bad, nil); err == nil {
		t.Error("unknown opcode disassembled")
	}
	// Nil env prints raw indices and still works on valid programs.
	text, err := Disassemble(good, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "machine Counter") {
		t.Errorf("disassembly: %s", text)
	}
}

func TestStackDepthGuard(t *testing.T) {
	// Build an expression deeper than the VM stack: 40 nested additions of
	// constants pushes >32 values before reducing only with left-assoc...
	// left-associative addition reduces eagerly, so force depth with
	// parentheses nesting on the right.
	expr := "1"
	for i := 0; i < maxStack+4; i++ {
		expr = "1 + (" + expr + ")"
	}
	src := "machine M\n  state S\n    when " + expr + " > 0 goto S\n"
	progs, err := AssembleSystem(src, []string{"x"})
	if err != nil {
		t.Fatal(err) // assembly is fine; the VM guards at run time
	}
	sys, err := NewSystem([]string{"x"}, progs)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Cycle([]float64{0}); err == nil {
		t.Fatal("stack overflow not caught")
	} else if !strings.Contains(err.Error(), "stack") {
		t.Fatalf("unexpected error: %v", err)
	}
}

package dempster_test

import (
	"fmt"

	"repro/internal/dempster"
)

// ExampleCombineInto reproduces the §5.3 worked example from the paper: a
// 40% belief in A combined with a 75% belief in B∨C.
func ExampleCombineInto() {
	frame := dempster.MustFrame("A", "B", "C")
	a, _ := frame.Hypothesis("A")
	bc, _ := frame.SetOf("B", "C")
	var m1, m2, combined dempster.Mass
	if err := m1.SetSimpleSupport(frame, a, 0.40); err != nil {
		panic(err)
	}
	if err := m2.SetSimpleSupport(frame, bc, 0.75); err != nil {
		panic(err)
	}
	conflict, err := dempster.CombineInto(&combined, &m1, &m2)
	if err != nil {
		panic(err)
	}
	fmt.Printf("m(A)    = %.1f%%\n", 100*combined.Get(a))
	fmt.Printf("m(B∨C)  = %.1f%%\n", 100*combined.Get(bc))
	fmt.Printf("m(Θ)    = %.1f%%\n", 100*combined.Unknown())
	fmt.Printf("conflict = %.2f\n", conflict)
	// Output:
	// m(A)    = 14.3%
	// m(B∨C)  = 64.3%
	// m(Θ)    = 21.4%
	// conflict = 0.30
}

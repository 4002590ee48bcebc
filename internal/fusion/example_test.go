package fusion_test

import (
	"fmt"
	"time"

	"repro/internal/fusion"
	"repro/internal/proto"
)

// ExampleFuseConservative reproduces the paper's §5.4 worked example: a
// weaker report is ignored, a stronger one dominates.
func ExampleFuseConservative() {
	const month = 30 * 86400.0
	base := proto.PrognosticVector{
		{Probability: 0.01, HorizonSeconds: 3 * month},
		{Probability: 0.5, HorizonSeconds: 4 * month},
		{Probability: 0.99, HorizonSeconds: 5 * month},
	}
	strong := proto.PrognosticVector{{Probability: 0.95, HorizonSeconds: 4.5 * month}}
	fused, err := fusion.FuseConservative(base, strong)
	if err != nil {
		panic(err)
	}
	at := func(months float64) float64 {
		return fused.ProbabilityAt(time.Duration(months * month * float64(time.Second)))
	}
	fmt.Printf("P(fail by 4.0 months) = %.2f\n", at(4))
	fmt.Printf("P(fail by 4.5 months) = %.2f\n", at(4.5))
	// Output:
	// P(fail by 4.0 months) = 0.50
	// P(fail by 4.5 months) = 0.95
}

// ExampleDiagnosticFuser shows grouped Dempster-Shafer fusion: reinforcing
// reports raise belief, and independent groups do not compete.
func ExampleDiagnosticFuser() {
	groups := fusion.Groups{
		"structural": {"motor imbalance", "motor misalignment"},
		"electrical": {"stator electrical unbalance"},
	}
	df, err := fusion.NewDiagnosticFuser(groups)
	if err != nil {
		panic(err)
	}
	// Two sources agree on imbalance.
	if _, err := df.AddReportFrom("motor/1", "motor imbalance", "dc-1", time.Time{}, 0.6); err != nil {
		panic(err)
	}
	if _, err := df.AddReportFrom("motor/1", "motor imbalance", "dc-2", time.Time{}, 0.5); err != nil {
		panic(err)
	}
	// An electrical fault is independent evidence in its own group.
	if _, err := df.AddReport("motor/1", "stator electrical unbalance", 0.9); err != nil {
		panic(err)
	}
	bi, _ := df.Belief("motor/1", "motor imbalance")
	be, _ := df.Belief("motor/1", "stator electrical unbalance")
	unknown, _ := df.Unknown("motor/1", "structural")
	fmt.Printf("Bel(imbalance) = %.2f\n", bi)
	fmt.Printf("Bel(electrical) = %.2f\n", be)
	fmt.Printf("unknown (structural group) = %.2f\n", unknown)
	// Output:
	// Bel(imbalance) = 0.80
	// Bel(electrical) = 0.90
	// unknown (structural group) = 0.20
}

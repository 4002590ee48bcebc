package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/dempster"
	"repro/internal/fusion"
	"repro/internal/proto"
)

// E1DempsterWorkedExample reproduces the §5.3 worked example: "given a
// belief of 40% that A will occur and another belief of 75% that B or C
// will occur, it will [be] concluded that A is 14% likely, 'B or C' is 64%
// likely and there is 22% of belief assigned to unknown possibilities."
func E1DempsterWorkedExample(seed int64) (*Result, error) {
	frame := dempster.MustFrame("A", "B", "C")
	a, err := frame.Hypothesis("A")
	if err != nil {
		return nil, err
	}
	bc, err := frame.SetOf("B", "C")
	if err != nil {
		return nil, err
	}
	var m1, m2, comb dempster.Mass
	if err := m1.SetSimpleSupport(frame, a, 0.40); err != nil {
		return nil, err
	}
	if err := m2.SetSimpleSupport(frame, bc, 0.75); err != nil {
		return nil, err
	}
	conflict, err := dempster.CombineInto(&comb, &m1, &m2)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:         "E1",
		Title:      "Dempster-Shafer combination, §5.3 worked example",
		PaperClaim: "Bel(A)=0.40 ⊕ Bel(B∨C)=0.75 → A 14%, B∨C 64%, unknown 22%",
		Header:     []string{"hypothesis", "paper", "measured", "exact"},
		Rows: [][]string{
			{"A", "14%", pct(comb.Get(a)), "0.10/0.70"},
			{"B∨C", "64%", pct(comb.Get(bc)), "0.45/0.70"},
			{"unknown (Θ)", "22%", pct(comb.Unknown()), "0.15/0.70"},
			{"conflict K", "—", pct(conflict), "0.40×0.75"},
		},
		Notes: []string{
			"exact masses: 14.29%, 64.29%, 21.43%; the paper rounds its three numbers to sum to 100.",
		},
	}
	return res, nil
}

const monthSeconds = 30 * 86400.0

// E2PrognosticFusion reproduces both §5.4 worked examples of conservative
// prognostic fusion.
func E2PrognosticFusion(seed int64) (*Result, error) {
	base := proto.PrognosticVector{
		{Probability: 0.01, HorizonSeconds: 3 * monthSeconds},
		{Probability: 0.5, HorizonSeconds: 4 * monthSeconds},
		{Probability: 0.99, HorizonSeconds: 5 * monthSeconds},
	}
	weak := proto.PrognosticVector{{Probability: 0.12, HorizonSeconds: 4.5 * monthSeconds}}
	strong := proto.PrognosticVector{{Probability: 0.95, HorizonSeconds: 4.5 * monthSeconds}}

	fusedWeak, err := fusion.FuseConservative(base, weak)
	if err != nil {
		return nil, err
	}
	fusedStrong, err := fusion.FuseConservative(base, strong)
	if err != nil {
		return nil, err
	}
	at := func(v proto.PrognosticVector, months float64) float64 {
		return v.ProbabilityAt(time.Duration(months * monthSeconds * float64(time.Second)))
	}
	res := &Result{
		ID:         "E2",
		Title:      "Conservative prognostic fusion, §5.4 worked examples",
		PaperClaim: "((3mo,.01)(4mo,.5)(5mo,.99)) + ((4.5mo,.12)) → ignore second; + ((4.5mo,.95)) → second dominates, earlier demise",
		Header:     []string{"months", "base curve", "+weak(0.12@4.5)", "+strong(0.95@4.5)"},
	}
	for _, m := range []float64{3, 3.5, 4, 4.5, 5} {
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%.1f", m), f3(at(base, m)), f3(at(fusedWeak, m)), f3(at(fusedStrong, m)),
		})
	}
	// Demise times (time to 99% failure probability).
	maxH := time.Duration(8 * monthSeconds * float64(time.Second))
	tBase, _ := base.TimeToProbability(0.99, maxH)
	tStrong, _ := fusedStrong.TimeToProbability(0.99, maxH)
	identical := true
	for m := 3.0; m <= 5.0; m += 0.125 {
		if math.Abs(at(base, m)-at(fusedWeak, m)) > 1e-9 {
			identical = false
			break
		}
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("weak report ignored (fused curve identical to base): %v", identical),
		fmt.Sprintf("time to P=0.99: base %.2f months, with dominating report %.2f months (earlier demise: %v)",
			tBase.Hours()/24/30, tStrong.Hours()/24/30, tStrong < tBase),
	)
	return res, nil
}

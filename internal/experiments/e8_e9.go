package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/bayes"
	"repro/internal/chiller"
	"repro/internal/dempster"
	"repro/internal/fusion"
)

// E8GroupAblation reproduces the §5.3 design argument for logical failure
// groups: plain single-frame Dempster-Shafer "assumes that any one failure
// precludes any other failures. However this is not the case in CBM, there
// can, in fact, be several failures at one time." Three genuinely
// concurrent independent faults are reported; grouped fusion keeps all
// three believed while the naive global frame forces them to compete.
func E8GroupAblation(seed int64) (*Result, error) {
	groups := fusion.Groups{}
	for name, faults := range chiller.FaultGroups() {
		for _, f := range faults {
			groups[name] = append(groups[name], f.String())
		}
	}
	grouped, err := fusion.NewDiagnosticFuser(groups)
	if err != nil {
		return nil, err
	}
	var all []string
	for _, conds := range groups {
		all = append(all, conds...)
	}
	naive, err := fusion.NewNaiveFuser(all)
	if err != nil {
		return nil, err
	}
	// Concurrent independent faults from three different groups, each
	// reported three times with belief 0.9 (reinforcing sources).
	concurrent := []string{
		chiller.MotorRotorBar.String(),  // electrical
		chiller.MotorImbalance.String(), // rotating-structural
		chiller.GearToothWear.String(),  // gearing
	}
	for _, cond := range concurrent {
		for i := 0; i < 3; i++ {
			if _, err := grouped.AddReport("chiller/1", cond, 0.9); err != nil {
				return nil, err
			}
			if _, err := naive.AddReport("chiller/1", cond, 0.9); err != nil {
				return nil, err
			}
		}
	}
	res := &Result{
		ID:         "E8",
		Title:      "Logical failure groups vs naive single-frame DS (ablation)",
		PaperClaim: "groups avoid assuming mutual exclusivity; several concurrent failures stay concurrently suspect",
		Header:     []string{"concurrent fault", "group", "grouped Bel", "naive Bel"},
	}
	for _, cond := range concurrent {
		g, err := grouped.GroupOf(cond)
		if err != nil {
			return nil, err
		}
		gb, err := grouped.Belief("chiller/1", cond)
		if err != nil {
			return nil, err
		}
		nb, err := naive.Belief("chiller/1", cond)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, []string{cond, g, f3(gb), f3(nb)})
	}
	// In-group behaviour is unchanged: conflicting same-group reports still
	// share probability.
	if _, err := grouped.AddReport("chiller/2", chiller.MotorImbalance.String(), 0.8); err != nil {
		return nil, err
	}
	if _, err := grouped.AddReport("chiller/2", chiller.MotorMisalignment.String(), 0.8); err != nil {
		return nil, err
	}
	bi, _ := grouped.Belief("chiller/2", chiller.MotorImbalance.String())
	res.Notes = append(res.Notes,
		fmt.Sprintf("in-group conflict still suppresses: two conflicting 0.8 reports in one group → Bel %.3f each", bi),
		"grouped fusion keeps all three independent faults near certainty; the naive frame caps each well below it.")
	return res, nil
}

// E9DSvsBayes measures the §5.3/§10.1 trade-off: Dempster-Shafer "was
// chosen over other approaches like Bayes Nets because they require prior
// estimates of the conditional probability relating two failures. The data
// is not yet available" — while §10.1 expects Bayes nets to win "when
// causal relations and a priori relationships can be teased out of
// historical data."
//
// Ground truth is a naive-Bayes causal model: a hidden fault drives three
// noisy knowledge sources. The DS fuser needs no priors (fixed source
// believability); the Bayes net estimates its CPTs from N historical
// episodes. Accuracy is plotted against N.
func E9DSvsBayes(seed int64) (*Result, error) {
	rng := rand.New(rand.NewSource(seed + 7))
	faults := []string{"imbalance", "misalignment", "bearing", "looseness"}
	const numSources = 3
	// True model: uniform fault prior; each source reports the true fault
	// with probability 0.7, otherwise a uniformly wrong one.
	const sourceAccuracy = 0.7
	sample := func() (string, []string) {
		truth := faults[rng.Intn(len(faults))]
		obs := make([]string, numSources)
		for s := range obs {
			if rng.Float64() < sourceAccuracy {
				obs[s] = truth
			} else {
				for {
					o := faults[rng.Intn(len(faults))]
					if o != truth {
						obs[s] = o
						break
					}
				}
			}
		}
		return truth, obs
	}

	// DS diagnosis: combine a simple support of belief 0.6 in obs_s per
	// source, pick the highest-belief singleton. The 0.6 is a generic
	// "sources are usually right" figure — exactly the no-priors regime.
	frame := dempster.MustFrame(faults...)
	var acc, ev, next dempster.Mass
	dsDiagnose := func(obs []string) (string, error) {
		acc.SetVacuous(frame)
		for _, o := range obs {
			h, err := frame.Hypothesis(o)
			if err != nil {
				return "", err
			}
			if err := ev.SetSimpleSupport(frame, h, 0.6); err != nil {
				return "", err
			}
			if _, err := dempster.CombineInto(&next, &acc, &ev); err != nil {
				return "", err
			}
			acc, next = next, acc
		}
		best, bestBel := "", -1.0
		for _, f := range faults {
			h, _ := frame.Hypothesis(f)
			if b := acc.Belief(h); b > bestBel {
				best, bestBel = f, b
			}
		}
		return best, nil
	}

	// Bayes diagnosis with CPTs estimated from n training episodes
	// (Laplace-smoothed), exact posterior via variable elimination.
	buildNet := func(n int) (*bayes.Network, error) {
		counts := make([]map[string]map[string]int, numSources)
		for s := range counts {
			counts[s] = map[string]map[string]int{}
			for _, f := range faults {
				counts[s][f] = map[string]int{}
			}
		}
		prior := map[string]int{}
		for i := 0; i < n; i++ {
			truth, obs := sample()
			prior[truth]++
			for s, o := range obs {
				counts[s][truth][o]++
			}
		}
		net := bayes.NewNetwork()
		if err := net.AddVariable(bayes.Variable{Name: "fault", States: faults}); err != nil {
			return nil, err
		}
		priorRow := make([]float64, len(faults))
		for i, f := range faults {
			priorRow[i] = float64(prior[f]+1) / float64(n+len(faults))
		}
		if err := net.SetCPT("fault", [][]float64{normalize(priorRow)}); err != nil {
			return nil, err
		}
		for s := 0; s < numSources; s++ {
			name := fmt.Sprintf("source%d", s)
			if err := net.AddVariable(bayes.Variable{Name: name, States: faults}, "fault"); err != nil {
				return nil, err
			}
			rows := make([][]float64, len(faults))
			for fi, f := range faults {
				row := make([]float64, len(faults))
				total := 0
				for _, c := range counts[s][f] {
					total += c
				}
				for oi, o := range faults {
					row[oi] = float64(counts[s][f][o]+1) / float64(total+len(faults))
				}
				rows[fi] = normalize(row)
			}
			if err := net.SetCPT(name, rows); err != nil {
				return nil, err
			}
		}
		if err := net.Compile(); err != nil {
			return nil, err
		}
		return net, nil
	}
	bayesDiagnose := func(net *bayes.Network, obs []string) (string, error) {
		ev := bayes.Evidence{}
		for s, o := range obs {
			ev[fmt.Sprintf("source%d", s)] = o
		}
		post, err := net.Query("fault", ev)
		if err != nil {
			return "", err
		}
		// Ties are common with few training episodes: break them in
		// fault order, not map order, so a seed repeats its table.
		best, bestP := "", -1.0
		for _, f := range faults {
			if p := post[f]; p > bestP {
				best, bestP = f, p
			}
		}
		return best, nil
	}

	const testEpisodes = 1500
	type testCase struct {
		truth string
		obs   []string
	}
	tests := make([]testCase, testEpisodes)
	for i := range tests {
		truth, obs := sample()
		tests[i] = testCase{truth, obs}
	}
	dsCorrect := 0
	for _, tc := range tests {
		got, err := dsDiagnose(tc.obs)
		if err != nil {
			return nil, err
		}
		if got == tc.truth {
			dsCorrect++
		}
	}
	dsAcc := float64(dsCorrect) / testEpisodes

	res := &Result{
		ID:         "E9",
		Title:      "Dempster-Shafer (no priors) vs Bayes net (learned priors)",
		PaperClaim: "DS chosen because conditional-probability data 'is not yet available'; Bayes nets promising once historical data exists (§10.1)",
		Header:     []string{"historical episodes", "Bayes accuracy", "DS accuracy (fixed, no priors)"},
	}
	for _, n := range []int{5, 20, 100, 1000, 10000} {
		net, err := buildNet(n)
		if err != nil {
			return nil, err
		}
		correct := 0
		for _, tc := range tests {
			got, err := bayesDiagnose(net, tc.obs)
			if err != nil {
				return nil, err
			}
			if got == tc.truth {
				correct++
			}
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", n), pct(float64(correct) / testEpisodes), pct(dsAcc),
		})
	}
	res.Notes = append(res.Notes,
		"with scarce history the learned Bayes net is no better than prior-free DS; with ample history it matches or exceeds it — the crossover the paper's phasing anticipates.")
	return res, nil
}

func normalize(row []float64) []float64 {
	var sum float64
	for _, v := range row {
		sum += v
	}
	if sum == 0 {
		return row
	}
	for i := range row {
		row[i] /= sum
	}
	return row
}

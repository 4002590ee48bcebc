package experiments

import (
	"fmt"
	"math/rand"
	"time"

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
	// reported with belief 0.9 by three reinforcing sources: three DCs.
	concurrent := []string{
		chiller.MotorRotorBar.String(),  // electrical
		chiller.MotorImbalance.String(), // rotating-structural
		chiller.GearToothWear.String(),  // gearing
	}
	for _, cond := range concurrent {
		for _, dc := range []string{"dc-1", "dc-2", "dc-3"} {
			if _, err := grouped.AddReportFrom("chiller/1", cond, dc, time.Time{}, 0.9); err != nil {
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
	const numFaults, numSources = 4, 3
	faults := [numFaults]string{"imbalance", "misalignment", "bearing", "looseness"}
	// An episode: the true fault and each source's report, as indices into
	// faults.
	type episode struct {
		truth int
		obs   [numSources]int
	}
	// True model: uniform fault prior; each source reports the true fault
	// with probability 0.7, otherwise a uniformly wrong one.
	const sourceAccuracy = 0.7
	sample := func() episode {
		e := episode{truth: rng.Intn(numFaults)}
		for s := range e.obs {
			if rng.Float64() < sourceAccuracy {
				e.obs[s] = e.truth
			} else {
				for {
					o := rng.Intn(numFaults)
					if o != e.truth {
						e.obs[s] = o
						break
					}
				}
			}
		}
		return e
	}

	// DS diagnosis: combine a simple support of belief 0.6 in obs_s per
	// source, pick the highest-belief singleton. The 0.6 is a generic
	// "sources are usually right" figure — exactly the no-priors regime.
	frame := dempster.MustFrame(faults[:]...)
	var acc, ev, next dempster.Mass
	dsDiagnose := func(obs [numSources]int) (int, error) {
		acc.SetVacuous(frame)
		for _, o := range obs {
			h, err := frame.Hypothesis(faults[o])
			if err != nil {
				return 0, err
			}
			if err := ev.SetSimpleSupport(frame, h, 0.6); err != nil {
				return 0, err
			}
			if _, err := dempster.CombineInto(&next, &acc, &ev); err != nil {
				return 0, err
			}
			acc, next = next, acc
		}
		best, bestBel := 0, -1.0
		for f, name := range faults {
			h, _ := frame.Hypothesis(name)
			if b := acc.Belief(h); b > bestBel {
				best, bestBel = f, b
			}
		}
		return best, nil
	}

	// Bayes diagnosis with CPTs estimated from n training episodes
	// (Laplace-smoothed). The net is naive Bayes — the fault is every
	// source's one parent — and every source is observed, so the exact
	// posterior is the prior times one CPT entry per source, normalized.
	type naiveBayes struct {
		prior [numFaults]float64
		cpt   [numSources][numFaults][numFaults]float64 // [source][fault][report]
	}
	buildNet := func(n int) *naiveBayes {
		var prior [numFaults]int
		var counts [numSources][numFaults][numFaults]int
		for i := 0; i < n; i++ {
			e := sample()
			prior[e.truth]++
			for s, o := range e.obs {
				counts[s][e.truth][o]++
			}
		}
		net := &naiveBayes{}
		for f, c := range prior {
			net.prior[f] = float64(c+1) / float64(n+numFaults)
		}
		normalize(net.prior[:])
		for s := range counts {
			for f, row := range counts[s] {
				total := 0
				for _, c := range row {
					total += c
				}
				for o, c := range row {
					net.cpt[s][f][o] = float64(c+1) / float64(total+numFaults)
				}
				normalize(net.cpt[s][f][:])
			}
		}
		return net
	}
	bayesDiagnose := func(net *naiveBayes, obs [numSources]int) int {
		var p [numFaults]float64
		var z float64
		for f := range p {
			p[f] = net.prior[f]
			for s, o := range obs {
				p[f] *= net.cpt[s][f][o]
			}
			z += p[f]
		}
		// Ties are common with few training episodes: break them in fault
		// order, and on the normalized posterior, so that values equal only
		// after dividing by z tie too.
		best, bestP := 0, -1.0
		for f := range p {
			if post := p[f] / z; post > bestP {
				best, bestP = f, post
			}
		}
		return best
	}

	const testEpisodes = 1500
	tests := make([]episode, testEpisodes)
	for i := range tests {
		tests[i] = sample()
	}
	dsCorrect := 0
	for _, e := range tests {
		got, err := dsDiagnose(e.obs)
		if err != nil {
			return nil, err
		}
		if got == e.truth {
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
		net := buildNet(n)
		correct := 0
		for _, e := range tests {
			if bayesDiagnose(net, e.obs) == e.truth {
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

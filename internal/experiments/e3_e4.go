package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/ema"
	"repro/internal/sbfr"
)

// E3StictionDetect reproduces Figure 3: the two-machine SBFR system that
// "counts the spikes that are not associated with a commanded position
// change (CPOS). When the count is greater than 4, a stiction condition is
// flagged."
func E3StictionDetect(seed int64) (*Result, error) {
	progs, err := sbfr.AssembleSystem(sbfr.EMASource, sbfr.EMAChannels)
	if err != nil {
		return nil, err
	}
	scenarios := []struct {
		name   string
		events []ema.Event
		ticks  int
		expect bool
	}{
		{"healthy: 12 commanded moves", ema.HealthyScenario(10, 12, 20), 300, false},
		{"4 uncommanded spikes (at threshold)", ema.StictionScenario(10, 4, 20), 200, false},
		{"6 uncommanded spikes", ema.StictionScenario(10, 6, 20), 200, true},
		{"mixed: 5 commands + 6 stiction spikes",
			ema.MergeEvents(ema.HealthyScenario(10, 5, 50), ema.StictionScenario(30, 6, 50)), 400, true},
	}
	res := &Result{
		ID:         "E3",
		Title:      "Figure 3 EMA stiction detection (spike + stiction machines)",
		PaperClaim: "stiction flagged after >4 uncommanded current spikes; machine sizes 229 B and 93 B",
		Header:     []string{"scenario", "spikes counted", "stiction flagged", "expected"},
	}
	for _, sc := range scenarios {
		sys, err := sbfr.NewSystem(sbfr.EMAChannels, progs)
		if err != nil {
			return nil, err
		}
		cfg := ema.DefaultConfig()
		cfg.Seed = seed
		sim, err := ema.NewSimulator(cfg, sc.events)
		if err != nil {
			return nil, err
		}
		flagged := false
		for i := 0; i < sc.ticks; i++ {
			s := sim.Step()
			if err := sys.Cycle([]float64{s.Current, s.CPOS}); err != nil {
				return nil, err
			}
			if st, _ := sys.Status("Stiction"); st != 0 {
				flagged = true
			}
		}
		count, _ := sys.LocalOf("Stiction", 0)
		res.Rows = append(res.Rows, []string{
			sc.name, fmt.Sprintf("%.0f", count), fmt.Sprintf("%v", flagged), fmt.Sprintf("%v", sc.expect),
		})
		if flagged != sc.expect {
			res.Notes = append(res.Notes, fmt.Sprintf("MISMATCH in scenario %q", sc.name))
		}
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"compiled sizes: Spike=%d B (paper 229 B), Stiction=%d B (paper 93 B)",
		progs[0].Size(), progs[1].Size()))
	return res, nil
}

// E4SBFRFootprintAndCycle reproduces the §6.3 embedded-footprint claims:
// "100 state machines operating in parallel and their interpreter can fit
// in less than 32K bytes" and "can cycle with a period of less than 4
// milliseconds"; "the interpreter that executes the SBFR system in the DCs
// is about 2000 bytes long."
func E4SBFRFootprintAndCycle(seed int64) (*Result, error) {
	// Build 100 machines: 50 copies of the Figure 3 pair, renamed.
	var src strings.Builder
	for i := 0; i < 50; i++ {
		pair := strings.ReplaceAll(sbfr.EMASource, "machine Spike", fmt.Sprintf("machine Spike%d", i))
		pair = strings.ReplaceAll(pair, "machine Stiction", fmt.Sprintf("machine Stiction%d", i))
		pair = strings.ReplaceAll(pair, "status.Spike", fmt.Sprintf("status.Spike%d", i))
		src.WriteString(pair)
		src.WriteByte('\n')
	}
	sys, err := sbfr.NewSystemFromSource(src.String(), sbfr.EMAChannels)
	if err != nil {
		return nil, err
	}
	if got := len(sys.MachineNames()); got != 100 {
		return nil, fmt.Errorf("expected 100 machines, assembled %d", got)
	}
	code := sys.FootprintBytes()
	ram := sys.RuntimeBytes()

	// Cycle-time measurement over a realistic input stream.
	cfg := ema.DefaultConfig()
	cfg.Seed = seed
	sim, err := ema.NewSimulator(cfg, ema.StictionScenario(5, 50, 11))
	if err != nil {
		return nil, err
	}
	const cycles = 20000
	in := make([]float64, 2)
	start := stopwatch()
	for i := 0; i < cycles; i++ {
		s := sim.Step()
		in[0], in[1] = s.Current, s.CPOS
		if err := sys.Cycle(in); err != nil {
			return nil, err
		}
	}
	perCycle := lap(start) / cycles

	res := &Result{
		ID:         "E4",
		Title:      "SBFR footprint and cycle period, 100 parallel machines",
		PaperClaim: "100 machines + interpreter < 32 KB; cycle period < 4 ms; interpreter ≈2000 B",
		Header:     []string{"metric", "paper bound", "measured"},
		Rows: [][]string{
			{"compiled bytecode, 100 machines", "(part of 32 KB)", fmt.Sprintf("%d B", code)},
			{"runtime state (locals+status)", "(part of 32 KB)", fmt.Sprintf("%d B", ram)},
			{"bytecode + runtime state", "< 32768 B", fmt.Sprintf("%d B (within bound: %v)", code+ram, code+ram < 32768)},
			{"cycle period, 100 machines", "< 4 ms", fmt.Sprintf("%v (within bound: %v)", perCycle, perCycle < 4*time.Millisecond)},
		},
		Notes: []string{
			"the paper's ≈2000 B interpreter is 68HC11-class machine code; the Go interpreter's code size is not comparable, so the footprint row counts the artifacts that scale with machine count (bytecode + runtime state), which is the quantity the 32 KB bound governs.",
		},
	}
	return res, nil
}

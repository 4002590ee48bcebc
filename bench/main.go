// Command bench is the MPROS frame→ranked benchmark: one single-process
// harness that builds the real topology from the packages' public
// constructors (loopback TCP, spool and journal files on disk), drives one
// of four workloads from seeded inputs, checks the outputs, and prints every
// metric by name and unit. See README.md for the glossary and BENCHMARK.json
// (repository root) for the contract the driver holds it to.
//
//	go run -C bench . --workload dc_tick --seed 1 --seconds 10 --trace 0
//	go run -C bench .                 # every workload, untraced then traced
//	go run -C bench . -repeat 2       # A/A: the suite twice, compared
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
)

// workloads maps each workload name to its runner, in suite order.
var workloads = []struct {
	name string
	why  string
	run  func(runConfig) (*result, error)
}{
	{wlDCTick, "algorithm suites only: no wire, journal or PDME", runDCTick},
	{wlIngest, "wire, dedup, spool, journal, OOSM and fusion: DC compute bypassed", runIngest},
	{wlConsole, "read path with writes beside it: no wire, journal or DC", runConsole},
	{wlFleet, "the whole pipeline, DC frame to aggregator ranking", runFleet},
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload to run (empty: all four, untraced then traced)")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", runSeconds, "length of the timed phase; scales the fixed operation counts")
	trace := flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes out/trace-<workload>.json")
	repeat := flag.Int("repeat", 1, "run the whole suite this many times and compare the end-to-end metrics (A/A)")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1}
	fmt.Printf("host: %s\n", hostFacts())

	if *workload == "" {
		return runSuite(cfg, *repeat)
	}
	for _, w := range workloads {
		if w.name != *workload {
			continue
		}
		res, err := w.run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		defs := endToEnd
		if cfg.trace {
			defs = perLayer
		}
		fmt.Printf("%s seed=%d seconds=%g trace=%d\n", w.name, cfg.seed, cfg.seconds, *trace)
		res.printTable(os.Stdout, defs)
		if err := writeResultLine(os.Stdout, res.line(defs)); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	}
	fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
	return 2
}

// runSuite runs every workload untraced, then every workload traced, in
// this one process. With repeat > 1 it runs the untraced suite that many
// times on the same build and seed (A/A) and reports 3 when any end-to-end
// metric of a later repeat differs from the first by more than its bound.
func runSuite(cfg runConfig, repeat int) int {
	runAll := func(trace bool) (map[string]*result, bool) {
		c := cfg
		c.trace = trace
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		out, ok := map[string]*result{}, true
		for _, w := range workloads {
			res, err := w.run(c)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				return nil, false
			}
			fmt.Printf("%s (%s) seed=%d seconds=%g traced=%v attempted=%d failed=%d\n",
				w.name, w.why, c.seed, c.seconds, trace, res.Attempted, res.Failed)
			res.printTable(os.Stdout, defs)
			ok = ok && res.correct() && res.Failed == 0
			out[w.name] = res
		}
		return out, ok
	}
	first, ok := runAll(false)
	if first == nil {
		return 1
	}
	code := 0
	for rep := 2; rep <= repeat; rep++ {
		fmt.Printf("repeat %d of %d\n", rep, repeat)
		again, okAgain := runAll(false)
		if again == nil {
			return 1
		}
		ok = ok && okAgain
		for _, w := range workloads {
			for _, d := range endToEnd {
				a, b := first[w.name].Values[d.Name], again[w.name].Values[d.Name]
				if diff := math.Abs(b-a) / a; diff > d.Bound {
					fmt.Printf("A/A: %s %s read %.6g, then %.6g: %.1f %% apart (bound %.0f %%)\n",
						w.name, d.Name, a, b, 100*diff, 100*d.Bound)
					code = 3
				}
			}
		}
	}
	if _, okTraced := runAll(true); !okTraced {
		ok = false
	}
	if !ok {
		fmt.Println("bench: an output check failed or an operation failed")
		return 1
	}
	return code
}

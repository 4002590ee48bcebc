// Command mproslint runs the MPROS domain-invariant analyzers (noclock,
// floateq, errwrap, maporder, atomicfield, lockdiscipline, waldiscipline)
// plus the interprocedural call-graph analyzers (hotalloc, goroleak,
// sendblock) and the //lint:allow directive police (lintallow) over the
// repository:
//
//	mproslint ./...
//
// loads the named packages (test units included) via `go list -export`, runs
// every analyzer over the whole module at once — the interprocedural ones
// need that — and prints findings to stdout; exit 1 if any.
//
// Suppress an intentional finding with a reasoned directive on (or
// immediately above) the offending line:
//
//	//lint:allow noclock wall-clock benchmark timing, not simulated time
//
// Reasonless, unknown-analyzer, or unused directives are findings
// themselves and cannot be suppressed.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/atomicfield"
	"repro/internal/analysis/driver"
	"repro/internal/analysis/errwrap"
	"repro/internal/analysis/floateq"
	"repro/internal/analysis/goroleak"
	"repro/internal/analysis/hotalloc"
	"repro/internal/analysis/lockdiscipline"
	"repro/internal/analysis/maporder"
	"repro/internal/analysis/noclock"
	"repro/internal/analysis/sendblock"
	"repro/internal/analysis/waldiscipline"
)

var analyzers = []*analysis.Analyzer{
	noclock.Analyzer,
	floateq.Analyzer,
	errwrap.Analyzer,
	maporder.Analyzer,
	atomicfield.Analyzer,
	lockdiscipline.Analyzer,
	waldiscipline.Analyzer,
	hotalloc.Analyzer,
	goroleak.Analyzer,
	sendblock.Analyzer,
}

func main() {
	dir := flag.String("C", "", "change to this directory before loading packages")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mproslint [-C dir] packages...\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-10s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", analysis.AllowName,
			"lint:allow directives must name a known analyzer, carry a reason, and suppress something")
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := driver.LoadAndRun(*dir, patterns, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mproslint:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "mproslint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

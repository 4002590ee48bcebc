// Command mproslint runs the MPROS domain-invariant analyzers (noclock,
// floateq, errwrap, masscheck, maporder, atomicfield, lockdiscipline,
// waldiscipline, snapshotparity) plus the interprocedural call-graph
// analyzers (hotalloc, goroleak, sendblock) and the //lint:allow directive
// police (lintallow) over the repository:
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
//
// With -json, findings are emitted as a JSON array of
// {file, line, column, analyzer, message, suppressed} objects — suppressed
// findings included, marked — for CI artifacts and editor integration. The
// exit status still reflects only unsuppressed findings.
package main

import (
	"encoding/json"
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
	"repro/internal/analysis/masscheck"
	"repro/internal/analysis/noclock"
	"repro/internal/analysis/sendblock"
	"repro/internal/analysis/snapshotparity"
	"repro/internal/analysis/waldiscipline"
)

var analyzers = []*analysis.Analyzer{
	noclock.Analyzer,
	floateq.Analyzer,
	errwrap.Analyzer,
	masscheck.Analyzer,
	maporder.Analyzer,
	atomicfield.Analyzer,
	lockdiscipline.Analyzer,
	waldiscipline.Analyzer,
	snapshotparity.Analyzer,
	hotalloc.Analyzer,
	goroleak.Analyzer,
	sendblock.Analyzer,
}

// jsonFinding is the machine-readable finding shape for -json output.
type jsonFinding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Column     int    `json:"column"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

func main() {
	dir := flag.String("C", "", "change to this directory before loading packages")
	asJSON := flag.Bool("json", false,
		"emit findings as JSON (suppressed ones included, marked) instead of text")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mproslint [-C dir] [-json] packages...\n\nAnalyzers:\n")
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
	findings, err := driver.LoadAndRunOpts(*dir, patterns, analyzers,
		driver.Options{IncludeSuppressed: *asJSON})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mproslint:", err)
		os.Exit(2)
	}

	failing := 0
	for _, f := range findings {
		if !f.Suppressed {
			failing++
		}
	}

	if *asJSON {
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				File:       f.Pos.Filename,
				Line:       f.Pos.Line,
				Column:     f.Pos.Column,
				Analyzer:   f.Analyzer,
				Message:    f.Message,
				Suppressed: f.Suppressed,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "mproslint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}

	if failing > 0 {
		fmt.Fprintf(os.Stderr, "mproslint: %d finding(s)\n", failing)
		os.Exit(1)
	}
}

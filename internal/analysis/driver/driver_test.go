package driver_test

import (
	"testing"

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

var all = []*analysis.Analyzer{
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

// TestRepoIsClean is the clean-sweep guarantee: the whole module (test units
// included) must carry zero mproslint findings, and every //lint:allow must
// be reasoned and live. CI enforces the same via cmd/mproslint; this test
// keeps `go test ./...` sufficient locally.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	findings, err := driver.LoadAndRun("", []string{"repro/..."}, all)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

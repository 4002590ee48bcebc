package experiments

import (
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestAllExperimentsRun executes every registered experiment twice from the
// same seed, validates basic table structure — the smoke layer below the
// claim-specific checks — and requires the two tables to be equal apart from
// the wall-clock cells named in timingRows and timingNotes.
func TestAllExperimentsRun(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			run := Registry()[id]
			res, err := run(1)
			if err != nil {
				t.Fatal(err)
			}
			if res.ID != id {
				t.Errorf("result id %q", res.ID)
			}
			if res.Title == "" || len(res.Header) == 0 || len(res.Rows) == 0 {
				t.Errorf("incomplete result: %+v", res)
			}
			text := res.Render()
			if !strings.Contains(text, id) {
				t.Error("render missing id")
			}
			again, err := run(1)
			if err != nil {
				t.Fatal(err)
			}
			requireRepeat(t, res, again)
		})
	}
	if len(IDs()) != 13 {
		t.Errorf("registry has %d experiments, want 13", len(IDs()))
	}
}

// timingRows names, by the prefix of their first cell, the rows that hold a
// wall-clock measurement or a figure derived from one; timingNotes does the
// same for notes. Everything else an experiment prints is a function of its
// seed.
var (
	timingRows = map[string][]string{
		"E4":  {"cycle period"},
		"E7":  {"elapsed", "throughput", "headroom", "DCs for"},
		"E11": {"end-to-end latency"},
		"E13": {"scalar ingest", "rollup query", "raw range scan"},
	}
	timingNotes = map[string][]string{
		"E13": {"ingest elapsed"},
	}
)

func isTiming(prefixes []string, s string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// requireRepeat fails the test where two runs of one experiment from the
// same seed differ outside the named timing cells.
func requireRepeat(t *testing.T, a, b *Result) {
	t.Helper()
	if a.Title != b.Title || a.PaperClaim != b.PaperClaim || !slices.Equal(a.Header, b.Header) {
		t.Errorf("title, claim or header differ between runs")
	}
	if len(a.Rows) != len(b.Rows) || len(a.Notes) != len(b.Notes) {
		t.Fatalf("%d rows and %d notes, then %d rows and %d notes",
			len(a.Rows), len(a.Notes), len(b.Rows), len(b.Notes))
	}
	for i, row := range a.Rows {
		if len(row) > 0 && isTiming(timingRows[a.ID], row[0]) {
			continue
		}
		if !slices.Equal(row, b.Rows[i]) {
			t.Errorf("row %d differs between runs: %q, then %q", i, row, b.Rows[i])
		}
	}
	for i, note := range a.Notes {
		if !isTiming(timingNotes[a.ID], note) && note != b.Notes[i] {
			t.Errorf("note %d differs between runs: %q, then %q", i, note, b.Notes[i])
		}
	}
}

func cell(t *testing.T, res *Result, rowPrefix string, col int) string {
	t.Helper()
	for _, row := range res.Rows {
		if strings.HasPrefix(row[0], rowPrefix) {
			return row[col]
		}
	}
	t.Fatalf("no row with prefix %q in %v", rowPrefix, res.Rows)
	return ""
}

func TestE1MatchesPaperNumbers(t *testing.T) {
	res, err := E1DempsterWorkedExample(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := cell(t, res, "A", 2); got != "14.3%" {
		t.Errorf("A measured %q", got)
	}
	if got := cell(t, res, "B∨C", 2); got != "64.3%" {
		t.Errorf("B∨C measured %q", got)
	}
	if got := cell(t, res, "unknown", 2); got != "21.4%" {
		t.Errorf("unknown measured %q", got)
	}
}

func TestE2NotesConfirmBothExamples(t *testing.T) {
	res, err := E2PrognosticFusion(1)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(res.Notes, "\n")
	if !strings.Contains(joined, "identical to base): true") {
		t.Errorf("weak-report example not confirmed: %s", joined)
	}
	if !strings.Contains(joined, "earlier demise: true") {
		t.Errorf("dominating-report example not confirmed: %s", joined)
	}
}

func TestE3AllScenariosMatch(t *testing.T) {
	res, err := E3StictionDetect(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row[2] != row[3] {
			t.Errorf("scenario %q: flagged=%s expected=%s", row[0], row[2], row[3])
		}
	}
	for _, n := range res.Notes {
		if strings.Contains(n, "MISMATCH") {
			t.Error(n)
		}
	}
}

func TestE4WithinPaperBounds(t *testing.T) {
	res, err := E4SBFRFootprintAndCycle(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if strings.Contains(row[0], "bytecode + runtime") || strings.Contains(row[0], "cycle period") {
			if !strings.Contains(row[2], "within bound: true") {
				t.Errorf("%s: %s", row[0], row[2])
			}
		}
	}
}

func TestE5AgreementAboveNinety(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus generation is slow")
	}
	res, err := E5ExpertAgreement(1)
	if err != nil {
		t.Fatal(err)
	}
	raw := cell(t, res, "top-call agreement", 1)
	v, err := strconv.ParseFloat(strings.TrimSuffix(raw, "%"), 64)
	if err != nil {
		t.Fatal(err)
	}
	if v < 90 {
		t.Errorf("agreement %.1f%% (paper claims >95%%)", v)
	}
}

func TestE7MeetsHardwareRate(t *testing.T) {
	res, err := E7IngestThroughput(1)
	if err != nil {
		t.Fatal(err)
	}
	raw := cell(t, res, "headroom", 1)
	v, err := strconv.ParseFloat(strings.TrimSuffix(raw, "×"), 64)
	if err != nil {
		t.Fatal(err)
	}
	if v < 1 {
		t.Errorf("ingest path below the 4×40kHz hardware requirement (headroom %s)", raw)
	}
}

func TestE8GroupedBeatsNaive(t *testing.T) {
	res, err := E8GroupAblation(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		grouped, err1 := strconv.ParseFloat(row[2], 64)
		naive, err2 := strconv.ParseFloat(row[3], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("bad row %v", row)
		}
		if grouped < 0.99 {
			t.Errorf("%s: grouped belief %g should stay near 1", row[0], grouped)
		}
		if naive >= grouped {
			t.Errorf("%s: naive %g should be below grouped %g", row[0], naive, grouped)
		}
	}
}

func TestE9BayesImprovesWithData(t *testing.T) {
	if testing.Short() {
		t.Skip("episode generation is slow")
	}
	res, err := E9DSvsBayes(1)
	if err != nil {
		t.Fatal(err)
	}
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	first := parse(res.Rows[0][1])
	last := parse(res.Rows[len(res.Rows)-1][1])
	ds := parse(res.Rows[0][2])
	if last <= first {
		t.Errorf("Bayes accuracy did not improve with data: %g -> %g", first, last)
	}
	if last < ds-2 {
		t.Errorf("well-trained Bayes (%g%%) should at least match DS (%g%%)", last, ds)
	}
}

func TestE10RendersFigure2State(t *testing.T) {
	res, err := E10Figure2Browser(1)
	if err != nil {
		t.Fatal(err)
	}
	var all strings.Builder
	for _, row := range res.Rows {
		all.WriteString(row[0])
		all.WriteByte('\n')
	}
	if !strings.Contains(all.String(), "6 condition reports from 4 knowledge sources") {
		t.Errorf("browser state wrong:\n%s", all.String())
	}
}

func TestE11OneFusionPerReport(t *testing.T) {
	res, err := E11EventLatency(1)
	if err != nil {
		t.Fatal(err)
	}
	if got := cell(t, res, "events per report", 1); got != "1.00" {
		t.Errorf("events per report %s, want exactly 1.00 (no polling, no double fusion)", got)
	}
}

// TestE10MatchesGolden pins E10's Figure 2 rendering byte for byte to
// testdata/e10_figure2.golden: every report row, fused prediction and
// unknown line, not only the header the substring check above reads.
func TestE10MatchesGolden(t *testing.T) {
	res, err := E10Figure2Browser(1)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, row := range res.Rows {
		got.WriteString(row[0])
		got.WriteByte('\n')
	}
	want, err := os.ReadFile("testdata/e10_figure2.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("E10 rendering differs from the golden\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestE11OneConclusionUpdatePerReport: E11 observes exactly one conclusion
// event per report delivered — a count, not a ratio rounded to two places.
func TestE11OneConclusionUpdatePerReport(t *testing.T) {
	res, err := E11EventLatency(1)
	if err != nil {
		t.Fatal(err)
	}
	delivered := cell(t, res, "reports delivered", 1)
	if got := cell(t, res, "conclusion events observed", 1); got != delivered || delivered != "2000" {
		t.Errorf("%s conclusion events for %s reports, want one per report", got, delivered)
	}
}

func TestE12RefinementImproves(t *testing.T) {
	res, err := E12HazardRefinement(1)
	if err != nil {
		t.Fatal(err)
	}
	base, err := strconv.ParseFloat(cell(t, res, "Brier score, worst-case", 1), 64)
	if err != nil {
		t.Fatal(err)
	}
	refined, err := strconv.ParseFloat(cell(t, res, "Brier score, hazard-refined", 1), 64)
	if err != nil {
		t.Fatal(err)
	}
	if refined >= base {
		t.Errorf("refined Brier %g not better than baseline %g", refined, base)
	}
}

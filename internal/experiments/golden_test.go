package experiments

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/seed1.golden from this build")

// seed1Golden holds every experiment's table at seed 1 but for its timing
// cells: one line per header, row and note, the line's key ("E9 row 2")
// then its cells, tab-separated.
const seed1Golden = "testdata/seed1.golden"

// goldenLines returns res as golden lines. A timing row keeps only its
// first cell and a timing note only the prefix that names it, so the lines
// are a function of the seed alone.
func goldenLines(res *Result) []string {
	line := func(key string, cells ...string) string {
		return res.ID + " " + key + "\t" + strings.Join(cells, "\t")
	}
	out := []string{line("header", res.Header...)}
	for i, row := range res.Rows {
		if len(row) > 0 && isTiming(timingRows[res.ID], row[0]) {
			row = row[:1]
		}
		out = append(out, line(fmt.Sprintf("row %d", i), row...))
	}
	for i, note := range res.Notes {
		for _, p := range timingNotes[res.ID] {
			if strings.HasPrefix(note, p) {
				note = p
			}
		}
		out = append(out, line(fmt.Sprintf("note %d", i), note))
	}
	return out
}

// readGolden returns the golden's lines by experiment id, or an empty map
// when the file does not exist.
func readGolden(t *testing.T) map[string][]string {
	t.Helper()
	blocks := map[string][]string{}
	f, err := os.Open(seed1Golden)
	if os.IsNotExist(err) {
		return blocks
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		id, _, _ := strings.Cut(sc.Text(), " ")
		blocks[id] = append(blocks[id], sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return blocks
}

// writeGolden rewrites the golden in registry order from blocks.
func writeGolden(t *testing.T, blocks map[string][]string) {
	t.Helper()
	var b strings.Builder
	for _, id := range IDs() {
		for _, l := range blocks[id] {
			b.WriteString(l)
			b.WriteByte('\n')
		}
	}
	if err := os.WriteFile(seed1Golden, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// requireGolden fails the test for every cell of got that differs from the
// golden's, naming the experiment, the row or note and the column.
func requireGolden(t *testing.T, header []string, got, want []string) {
	t.Helper()
	if len(want) == 0 {
		t.Fatalf("%s has no lines for this experiment; rewrite it with -update", seed1Golden)
	}
	for i := range max(len(got), len(want)) {
		switch {
		case i >= len(want):
			t.Errorf("extra line %q, not in the golden", got[i])
			continue
		case i >= len(got):
			t.Errorf("missing line %q of the golden", want[i])
			continue
		}
		key, gcells, _ := strings.Cut(got[i], "\t")
		wkey, wcells, _ := strings.Cut(want[i], "\t")
		if key != wkey {
			t.Errorf("line %q where the golden has %q", got[i], want[i])
			continue
		}
		g, w := strings.Split(gcells, "\t"), strings.Split(wcells, "\t")
		for c := range max(len(g), len(w)) {
			gc, wc := "(none)", "(none)"
			if c < len(g) {
				gc = strconv.Quote(g[c])
			}
			if c < len(w) {
				wc = strconv.Quote(w[c])
			}
			if gc == wc {
				continue
			}
			column := fmt.Sprint(c)
			if strings.Contains(key, " row ") && c < len(header) {
				column = fmt.Sprintf("%d (%s)", c, header[c])
			}
			t.Errorf("%s column %s: got %s, golden %s", key, column, gc, wc)
		}
	}
}

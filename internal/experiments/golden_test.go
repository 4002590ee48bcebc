package experiments

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// seed1Golden holds every experiment's table at seed 1 but for its timing
// cells: one line per header, row and note, the line's key ("E9 row 2")
// then its cells, tab-separated.
const seed1Golden = "testdata/seed1.golden"

// experimentsDoc holds, between marker lines, each experiment's result table
// as docTable renders it.
const experimentsDoc = "../../EXPERIMENTS.md"

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

// cellDiff describes how a golden line differs by its first differing cell,
// naming a row's column by the header.
func cellDiff(header []string) func(got, want string) string {
	return func(got, want string) string {
		key, gcells, _ := strings.Cut(got, "\t")
		wkey, wcells, _ := strings.Cut(want, "\t")
		if key != wkey {
			return fmt.Sprintf("line %q where the golden has %q", got, want)
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
			return fmt.Sprintf("%s column %s: got %s, golden %s", key, column, gc, wc)
		}
		return "same cells, different text"
	}
}

// docTable renders res's header and non-timing rows as EXPERIMENTS.md shows
// them: a table, or a text block when the experiment prints one column. It
// is nil when every row is a timing row, whose figures the prose gives.
func docTable(res *Result) []string {
	line := func(cells []string) string { return "| " + strings.Join(cells, " | ") + " |" }
	if len(res.Header) == 1 {
		line = func(cells []string) string { return cells[0] }
	}
	var rows []string
	for _, row := range res.Rows {
		if !isTiming(timingRows[res.ID], row[0]) {
			rows = append(rows, line(row))
		}
	}
	switch {
	case len(rows) == 0:
		return nil
	case len(res.Header) == 1:
		return slices.Concat([]string{"```text"}, rows, []string{"```"})
	}
	return slices.Concat([]string{line(res.Header), strings.Repeat("|---", len(res.Header)) + "|"}, rows)
}

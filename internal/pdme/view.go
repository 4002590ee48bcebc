package pdme

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/proto"
)

// RenderBrowser produces the textual equivalent of the Figure 2 MPROS user
// interface for one machine: each knowledge source's current report on each
// of its conditions (the repository keeps no older ones, fuse), then
// "the predictions of failure for each machine condition group ... at the
// bottom of the screen". The display is rebuilt
// from the OOSM, which "serves as a repository of diagnostic conclusions —
// both those of the individual algorithms and those reached by KF" (§3.1).
func (p *PDME) RenderBrowser(component string) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "=== MPROS — machine %s ===\n", component)

	// Individual algorithm reports, from the OOSM repository.
	reportIDs, err := p.model.FindByProp(ReportClass, "sensed", component)
	if err != nil {
		return "", err
	}
	type row struct {
		ts       time.Time
		ks, cond string
		sev, bel float64
	}
	rows := make([]row, 0, len(reportIDs))
	sources := map[string]bool{}
	for _, id := range reportIDs {
		props, err := p.model.Get(id)
		if err != nil {
			return "", err
		}
		r := row{}
		r.ts, _ = props["timestamp"].(time.Time)
		r.ks, _ = props["ks_id"].(string)
		r.cond, _ = props["condition"].(string)
		r.sev, _ = props["severity"].(float64)
		r.bel, _ = props["belief"].(float64)
		rows = append(rows, r)
		sources[r.ks] = true
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ts.Before(rows[j].ts) })
	fmt.Fprintf(&b, "%d condition reports from %d knowledge sources\n\n", len(rows), len(sources))
	fmt.Fprintf(&b, "%-20s %-10s %-38s %-9s %-7s %s\n",
		"TIME", "SOURCE", "CONDITION", "SEVERITY", "BELIEF", "GRADE")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %-10s %-38s %-9.2f %-7.2f %s\n",
			r.ts.Format("2006-01-02 15:04"), r.ks, r.cond, r.sev, r.bel,
			proto.GradeSeverity(r.sev))
	}

	// Fused predictions per condition group: this machine's blocks only, in
	// the prioritized list's order (RankKey.Before is total, so the global
	// order restricted to one component is the same relative order).
	b.WriteString("\n--- fused predictions (knowledge fusion) ---\n")
	var items []MaintenanceItem
	unknown := map[string]float64{}
	for _, blk := range p.Blocks() {
		if blk[0] != component {
			continue
		}
		gr, err := p.GroupRead(component, blk[1])
		if err != nil {
			continue // evidence that cannot be combined shows no prediction
		}
		items = append(items, gr.Items...)
		unknown[blk[1]] = gr.Members[0].Unknown
	}
	sortItems(items)
	for _, it := range items {
		fmt.Fprintf(&b, "%-38s group=%-22s Bel=%.3f Pl=%.3f",
			it.Condition, it.Group, it.Belief, it.Plausibility)
		if it.HasPrognostic {
			fmt.Fprintf(&b, "  t(P=0.5)=%s", formatDuration(it.TimeToHalf))
		}
		b.WriteByte('\n')
	}
	if len(items) == 0 {
		b.WriteString("(no fused conclusions)\n")
	}
	// Residual unknowns per group with any evidence, in order of appearance.
	for _, it := range items {
		if u, ok := unknown[it.Group]; ok {
			delete(unknown, it.Group)
			fmt.Fprintf(&b, "unknown possibilities in %-22s %.3f\n", it.Group+":", u)
		}
	}
	return b.String(), nil
}

// formatDuration renders maintenance-scale horizons as days/weeks/months.
func formatDuration(d time.Duration) string {
	days := d.Hours() / 24
	switch {
	case days < 1:
		return fmt.Sprintf("%.0fh", d.Hours())
	case days < 14:
		return fmt.Sprintf("%.1fd", days)
	case days < 60:
		return fmt.Sprintf("%.1fw", days/7)
	default:
		return fmt.Sprintf("%.1fmo", days/30)
	}
}

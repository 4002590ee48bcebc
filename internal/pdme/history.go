package pdme

import (
	"time"

	"repro/internal/historian"
)

// This file is the PDME's use of the historian (§4.6 data management):
// fused severities stream into per-pair channels.

// SeverityRollupTier is the rollup width SeverityRollups reads severity
// channels at: one min/max/mean bucket per day of reports, enough for
// month-scale trend displays.
const SeverityRollupTier = 24 * time.Hour

func severityChannel(component, condition string) string {
	return "severity/" + component + "|" + condition
}

// observeSeverity appends one fused-report severity to the pair's channel,
// creating it on first sight.
func (p *PDME) observeSeverity(component, condition string, at time.Time, severity float64) error {
	name := severityChannel(component, condition)
	if err := p.hist.EnsureChannel(historian.ChannelConfig{Name: name}); err != nil {
		return err
	}
	return p.hist.Append(name, at, severity)
}

// SeverityRollups returns the per-day severity envelope for a pair
// (min/max/mean per SeverityRollupTier bucket), oldest first.
func (p *PDME) SeverityRollups(component, condition string) []historian.Rollup {
	rolls, err := p.hist.QueryRollup(severityChannel(component, condition),
		SeverityRollupTier, time.Time{}, time.Time{})
	if err != nil {
		return nil
	}
	return rolls
}

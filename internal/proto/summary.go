package proto

import (
	"fmt"
	"math"
	"time"
)

// FusedSummary is the PDME→PDME envelope of the hierarchical fleet tier: a
// shard PDME's fused read-side state for one (component, condition) pair,
// forwarded upward to an aggregator PDME. It is the paper's §5.1 step-4
// conclusion re-expressed as wire evidence for the next fusion level —
// Palem's ship→regional→global CBM hierarchy with the shard standing in for
// the ship.
//
// Summaries travel as reports do — a Delivery from the uplink spool, in runs,
// through Client.SendRun and the server's one accept body to a BatchSink:
// the shard id plays the DC id's role on the wire (it keys the spool file,
// the aggregator-side dedup window, and the aggregator's health registry),
// and the boot-epoch/sequence-watermark contract gives the aggregator the
// same exactly-once effect over an at-least-once link. The aggregator keeps
// the latest summary per pair (UpdatedAt-ordered), so replays and restarts
// converge to the same global state.
type FusedSummary struct {
	// ShardID names the forwarding shard PDME (the sender identity).
	ShardID string `json:"shard_id"`
	// Component is the sensed object the conclusion is about.
	Component string `json:"component"`
	// Condition is the machine condition concluded on.
	Condition string `json:"condition"`
	// Group is the condition's logical failure group.
	Group string `json:"group,omitempty"`
	// Belief, Plausibility, and Unknown are the shard's fused
	// Dempster-Shafer state for the pair: lower bound, upper bound, and the
	// residual Θ mass of the pair's whole group frame.
	Belief       float64 `json:"belief"`
	Plausibility float64 `json:"plausibility"`
	Unknown      float64 `json:"unknown"`
	// Reports counts the reports the shard fused into this conclusion.
	Reports int `json:"reports,omitempty"`
	// Reliability and Degraded carry the shard's own source-level discount
	// state (1/false when every contributing DC was fresh).
	Reliability float64 `json:"reliability"`
	Degraded    bool    `json:"degraded,omitempty"`
	// Prognostics is the shard's fused §7.3 vector for the pair.
	Prognostics PrognosticVector `json:"prognostics,omitempty"`
	// UpdatedAt is the event time of the newest evidence folded into this
	// summary (the conclusion object's updated_at). The aggregator orders
	// summaries per pair by it and feeds it to staleness discounting.
	UpdatedAt time.Time `json:"updated_at"`
}

// Validate checks the summary's required fields and numeric ranges.
func (s *FusedSummary) Validate() error {
	if s.ShardID == "" {
		return fmt.Errorf("proto: summary missing shard id")
	}
	if s.Component == "" {
		return fmt.Errorf("proto: summary missing component")
	}
	if s.Condition == "" {
		return fmt.Errorf("proto: summary missing condition")
	}
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"belief", s.Belief}, {"plausibility", s.Plausibility},
		{"unknown", s.Unknown}, {"reliability", s.Reliability}} {
		if math.IsNaN(f.v) || f.v < 0 || f.v > 1 {
			return fmt.Errorf("proto: summary %s %g outside [0,1]", f.name, f.v)
		}
	}
	if s.Belief > s.Plausibility+1e-9 {
		return fmt.Errorf("proto: summary belief %g exceeds plausibility %g",
			s.Belief, s.Plausibility)
	}
	if s.Reports < 0 {
		return fmt.Errorf("proto: summary report count %d negative", s.Reports)
	}
	if s.UpdatedAt.IsZero() {
		return fmt.Errorf("proto: summary missing updated_at")
	}
	return s.Prognostics.Validate()
}

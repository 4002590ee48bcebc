package shard

import (
	"errors"
	"sort"
	"sync"
	"time"

	"repro/internal/fusion"
	"repro/internal/health"
	"repro/internal/pdme"
	"repro/internal/proto"
)

// DefaultDedupWindow bounds the aggregator's per-shard duplicate window.
const DefaultDedupWindow = 4096

// AggregatorConfig parametrizes the global tier.
type AggregatorConfig struct {
	// Ring supplies membership for coverage accounting (optional: without
	// it coverage is computed over observed shards only).
	Ring *Ring
	// Health parametrizes the per-shard liveness registry. Leave Clock nil
	// to run on event time (deterministic simulations); point it at
	// time.Now for wall-clock operation. FreshFor/StalenessHorizon set how
	// fast a silent shard's contribution decays toward Unknown.
	Health health.Config
	// DedupWindow bounds the per-shard duplicate-suppression window
	// (0: DefaultDedupWindow).
	DedupWindow int
}

// heldSummary is the newest accepted summary for one pair with its wire tag.
type heldSummary struct {
	s         proto.FusedSummary
	shard     string
	boot, seq uint64
}

// Aggregator is the global PDME tier: it accepts FusedSummary envelopes
// from shard PDMEs (latest-wins per (component, condition), ordered by
// event time), tracks per-shard liveness with the same health registry the
// shards use for DCs, and serves a globally ranked maintenance view in
// which a lost shard's contributions are Shafer-discounted toward Unknown
// — monotone graceful degradation, never an error and never a lie about
// freshness.
//
// Acceptance is arrival-order independent: replays, redeliveries after
// failover, and interleavings across shards all converge to the same held
// state, because the ordering key (UpdatedAt, then shard id, then
// boot/seq) rides the data, not the clock.
type Aggregator struct {
	mu    sync.Mutex
	ring  *Ring
	reg   *health.Registry
	dedup *proto.Dedup
	// held maps component → condition → newest summary.
	held map[string]map[string]*heldSummary
	// accepted/stale count DeliverSummary outcomes; rejectedReports counts
	// raw report frames refused (aggregators speak summary only).
	accepted        int64
	stale           int64
	rejectedReports int64
}

// NewAggregator builds the global tier.
func NewAggregator(cfg AggregatorConfig) (*Aggregator, error) {
	reg, err := health.NewRegistry(cfg.Health)
	if err != nil {
		return nil, err
	}
	window := cfg.DedupWindow
	if window <= 0 {
		window = DefaultDedupWindow
	}
	return &Aggregator{
		ring:  cfg.Ring,
		reg:   reg,
		dedup: proto.NewDedup(window),
		held:  make(map[string]map[string]*heldSummary),
	}, nil
}

// DeliverBatch implements proto.BatchSink, the way the server reaches the
// aggregator: each summary of the run goes to DeliverSummary, a report is
// refused by Deliver.
func (a *Aggregator) DeliverBatch(run []proto.Delivery) {
	for i := range run {
		if d := &run[i]; d.Summary != nil {
			d.Err = a.DeliverSummary(d.Summary, d.DCID, d.Boot, d.Seq)
		} else {
			d.Err = a.Deliver(d.Report)
		}
	}
}

// DeliverSummary accepts one summary with its delivery tag: newest summary
// per pair wins, with (UpdatedAt, shard id, boot/seq) as the deterministic
// order. Older frames are counted stale and acked — the sender must retire
// them, and accepting them would reorder history.
func (a *Aggregator) DeliverSummary(s *proto.FusedSummary, shardID string, boot, seq uint64) error {
	if shardID == "" {
		shardID = s.ShardID
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	// Any summary is liveness evidence, stale or not; the registry runs on
	// the summary's event time, so replays never advance the watermark
	// beyond what the evidence supports.
	a.reg.ObserveReport(shardID, "", s.UpdatedAt)
	byCond := a.held[s.Component]
	if byCond == nil {
		byCond = make(map[string]*heldSummary)
		a.held[s.Component] = byCond
	}
	cur := byCond[s.Condition]
	if cur != nil && !a.newer(s, shardID, boot, seq, cur) {
		a.stale++
		return nil
	}
	byCond[s.Condition] = &heldSummary{s: *s, shard: shardID, boot: boot, seq: seq}
	a.accepted++
	return nil
}

// newer reports whether the incoming summary supersedes the held one.
func (a *Aggregator) newer(s *proto.FusedSummary, shardID string, boot, seq uint64, cur *heldSummary) bool {
	switch {
	case s.UpdatedAt.After(cur.s.UpdatedAt):
		return true
	case cur.s.UpdatedAt.After(s.UpdatedAt):
		return false
	case shardID != cur.shard:
		// Same event time from two shards (a failover handed the pair's
		// final state to a successor that re-fused identically): pick the
		// lexicographically larger shard so every arrival order converges.
		return shardID > cur.shard
	default:
		// Same shard, same event time: a later spool write (or a new boot)
		// re-asserts the same state; keep the newest tag.
		return boot != cur.boot || seq >= cur.seq
	}
}

// Deliver implements proto.Sink by refusing: pointing a DC uplink at an
// aggregator is a topology error that must fail loudly, not fuse raw
// reports at the wrong tier.
func (a *Aggregator) Deliver(*proto.Report) error {
	a.mu.Lock()
	a.rejectedReports++
	a.mu.Unlock()
	return errors.New("shard: aggregator accepts fused summaries, not raw reports (route the DC to a shard PDME)")
}

// ObserveHeartbeat implements proto.HeartbeatSink for shard heartbeats.
func (a *Aggregator) ObserveHeartbeat(hb *proto.Heartbeat) error {
	return a.reg.ObserveHeartbeat(hb)
}

// Serve starts a summary server for shard uplinks: dedup window and
// heartbeat sink wired; raw reports rejected.
func (a *Aggregator) Serve(addr string) (string, *proto.Server, error) {
	srv := proto.NewServer(a)
	srv.SetDedup(a.dedup)
	srv.SetHeartbeatSink(a)
	bound, err := srv.Start(addr)
	if err != nil {
		return "", nil, err
	}
	return bound, srv, nil
}

// Health exposes the per-shard liveness registry.
func (a *Aggregator) Health() *health.Registry { return a.reg }

// DedupHits returns how many duplicate summary deliveries the window
// suppressed.
func (a *Aggregator) DedupHits() int64 { return a.dedup.Hits() }

// SetRing installs a new ring generation for coverage accounting.
func (a *Aggregator) SetRing(r *Ring) {
	a.mu.Lock()
	a.ring = r
	a.mu.Unlock()
}

// GlobalItem is one row of the aggregator's global prioritized list: the
// owning shard's fused state, Shafer-discounted by that shard's current
// liveness, with provenance and degradation made explicit.
type GlobalItem struct {
	Component    string
	Condition    string
	Group        string
	Belief       float64
	Plausibility float64
	Unknown      float64
	Reports      int
	// Shard names the contributing shard; ShardState is its liveness at
	// query time.
	Shard      string
	ShardState string
	// Reliability is the shard-level discount α times the shard's own
	// source-level reliability; Degraded is true when either tier
	// discounted.
	Reliability float64
	Degraded    bool
	// TimeToHalf is the fused time to 50% failure probability
	// (HasPrognostic false when the pair has no vector).
	TimeToHalf    time.Duration
	HasPrognostic bool
	UpdatedAt     time.Time
}

func (it GlobalItem) rankKey() pdme.RankKey {
	return pdme.RankKey{Belief: it.Belief, HasPrognostic: it.HasPrognostic, TimeToHalf: it.TimeToHalf,
		Component: it.Component, Condition: it.Condition}
}

// globalItemLocked builds one discounted row. Caller holds a.mu.
func (a *Aggregator) globalItemLocked(h *heldSummary) GlobalItem {
	alpha := a.reg.Reliability(h.shard, h.s.UpdatedAt)
	b, pl, u := fusion.DiscountSummary(h.s.Belief, h.s.Plausibility, h.s.Unknown, alpha)
	item := GlobalItem{
		Component:    h.s.Component,
		Condition:    h.s.Condition,
		Group:        h.s.Group,
		Belief:       b,
		Plausibility: pl,
		Unknown:      u,
		Reports:      h.s.Reports,
		Shard:        h.shard,
		ShardState:   a.reg.StateOf(h.shard).String(),
		Reliability:  alpha * h.s.Reliability,
		Degraded:     h.s.Degraded || alpha < 1-1e-9,
		UpdatedAt:    h.s.UpdatedAt,
	}
	if d, ok := h.s.Prognostics.TimeToProbability(0.5, pdme.PrognosticHorizon); ok {
		item.TimeToHalf = d
		item.HasPrognostic = true
	}
	return item
}

// GlobalRanked returns every held pair, discounted, ranked most-urgent
// first by the order pdme.PrioritizedList uses (pdme.RankKey.Before) — so a
// one-shard fleet's global list is bit-identical to that shard's own list
// when the shard is fresh.
func (a *Aggregator) GlobalRanked() []GlobalItem {
	a.mu.Lock()
	defer a.mu.Unlock()
	components := make([]string, 0, len(a.held))
	//lint:allow maporder component names are sorted before the list is assembled
	for component := range a.held {
		components = append(components, component)
	}
	sort.Strings(components)
	var out []GlobalItem
	for _, component := range components {
		byCond := a.held[component]
		conds := make([]string, 0, len(byCond))
		//lint:allow maporder condition names are sorted before the list is assembled
		for cond := range byCond {
			conds = append(conds, cond)
		}
		sort.Strings(conds)
		for _, cond := range conds {
			out = append(out, a.globalItemLocked(byCond[cond]))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].rankKey().Before(out[j].rankKey()) })
	return out
}

// GlobalBelief returns one pair's discounted global state. Unknown pairs
// return a vacuous row with covered false — a partial answer, never an
// error: the caller learns "no shard has concluded on this" plus current
// coverage, exactly the graceful-degradation contract.
func (a *Aggregator) GlobalBelief(component, condition string) (GlobalItem, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if byCond := a.held[component]; byCond != nil {
		if h := byCond[condition]; h != nil {
			return a.globalItemLocked(h), true
		}
	}
	return GlobalItem{
		Component:    component,
		Condition:    condition,
		Plausibility: 1,
		Unknown:      1,
	}, false
}

// ShardCoverage is one shard's slice of the coverage report.
type ShardCoverage struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// InRing is false for shards still reporting after being removed from
	// the ring (drain in progress).
	InRing bool `json:"in_ring"`
	// Components counts distinct components whose newest summary this
	// shard owns.
	Components int `json:"components"`
	// Reliability is the shard-level discount α at its newest evidence.
	Reliability float64   `json:"reliability"`
	LastUpdated time.Time `json:"last_updated,omitempty"`
}

// CoverageReport is the aggregator's per-shard metadata, attached to every
// serving response so partial views are labeled, not silent.
type CoverageReport struct {
	RingVersion  uint64          `json:"ring_version,omitempty"`
	ShardsTotal  int             `json:"shards_total"`
	ShardsLive   int             `json:"shards_live"`
	Degraded     bool            `json:"degraded"`
	Shards       []ShardCoverage `json:"shards"`
	HeldPairs    int             `json:"held_pairs"`
	StaleDropped int64           `json:"stale_dropped"`
}

// Coverage reports per-shard liveness and ownership, sorted by shard id.
func (a *Aggregator) Coverage() CoverageReport {
	a.mu.Lock()
	defer a.mu.Unlock()
	inRing := make(map[string]bool)
	if a.ring != nil {
		for _, m := range a.ring.Members() {
			inRing[m.ID] = true
		}
	}
	// Per shard: components owned and newest update.
	type shardAgg struct {
		components map[string]bool
		newest     time.Time
	}
	byShard := make(map[string]*shardAgg)
	pairs := 0
	//lint:allow maporder aggregation only; output is sorted below
	for component, byCond := range a.held {
		//lint:allow maporder aggregation only; output is sorted below
		for _, h := range byCond {
			pairs++
			sa := byShard[h.shard]
			if sa == nil {
				sa = &shardAgg{components: make(map[string]bool)}
				byShard[h.shard] = sa
			}
			sa.components[component] = true
			if h.s.UpdatedAt.After(sa.newest) {
				sa.newest = h.s.UpdatedAt
			}
		}
	}
	ids := make(map[string]bool, len(byShard)+len(inRing))
	//lint:allow maporder id set union; sorted below
	for id := range byShard {
		ids[id] = true
	}
	//lint:allow maporder id set union; sorted below
	for id := range inRing {
		ids[id] = true
	}
	sorted := make([]string, 0, len(ids))
	//lint:allow maporder collected then sorted
	for id := range ids {
		sorted = append(sorted, id)
	}
	sort.Strings(sorted)
	rep := CoverageReport{ShardsTotal: len(sorted), StaleDropped: a.stale, HeldPairs: pairs}
	if a.ring != nil {
		rep.RingVersion = a.ring.Version()
	}
	for _, id := range sorted {
		sc := ShardCoverage{ID: id, State: a.reg.StateOf(id).String(), InRing: inRing[id], Reliability: 1}
		if sa := byShard[id]; sa != nil {
			sc.Components = len(sa.components)
			sc.LastUpdated = sa.newest
			sc.Reliability = a.reg.Reliability(id, sa.newest)
		}
		if sc.State == "alive" {
			rep.ShardsLive++
		} else {
			rep.Degraded = true
		}
		if sc.Reliability < 1-1e-9 {
			rep.Degraded = true
		}
		rep.Shards = append(rep.Shards, sc)
	}
	return rep
}

// Accepted returns how many summaries were accepted as newest-so-far.
func (a *Aggregator) Accepted() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.accepted
}

// StaleDropped returns how many delivered summaries were older than the
// held state and discarded (acked but not applied).
func (a *Aggregator) StaleDropped() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stale
}

// RejectedReports returns how many raw report frames were refused.
func (a *Aggregator) RejectedReports() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rejectedReports
}

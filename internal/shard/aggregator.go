package shard

import (
	"errors"
	"maps"
	"slices"
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
// A newer summary for the pair is written over it in place.
type heldSummary struct {
	s         proto.FusedSummary
	shard     string
	boot, seq uint64
	// timeToHalf and hasPrognostic are the summary's fused time to 50 %
	// failure probability, read off its vector once, when it was accepted.
	timeToHalf    time.Duration
	hasPrognostic bool
}

// heldBlock is one (component, failure group) block of the held state: its
// pairs' newest summaries in condition order.
type heldBlock struct {
	group string
	pairs []*heldSummary
}

// shardHolding is what one shard owns of the held state, kept where
// DeliverSummary accepts so that Coverage need not walk the pairs.
type shardHolding struct {
	// components counts, per component, the pairs whose newest summary the
	// shard owns; newest is the latest UpdatedAt among them.
	components map[string]int
	newest     time.Time
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
	// held indexes the newest summary per pair by (component, failure
	// group): component → its blocks in group order, each block's pairs in
	// condition order. A block read walks exactly its block's pairs; a pair
	// lookup searches its component's few blocks.
	held map[string][]heldBlock
	// pairs counts the held summaries and holdings says which shard owns
	// what of them.
	pairs    int
	holdings map[string]*shardHolding
	// inv is the read tier's write-window hook (nil: no tier attached).
	inv pdme.Invalidator
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
		ring:     cfg.Ring,
		reg:      reg,
		dedup:    proto.NewDedup(window),
		held:     make(map[string][]heldBlock),
		holdings: make(map[string]*shardHolding),
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

// SetInvalidator installs (or, with nil, removes) the read tier's
// write-window hook: every accepted replacement is bracketed with
// BeginMutation/EndMutation on the block — (component, the summary's failure
// group) — it changes. One tier per aggregator: a second hook is refused
// while the first is installed. Install before traffic.
func (a *Aggregator) SetInvalidator(inv pdme.Invalidator) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if inv != nil && a.inv != nil {
		return errors.New("shard: a read tier is already attached to the aggregator")
	}
	a.inv = inv
	return nil
}

// find returns where condition sits, or belongs, among a block's pairs.
func find(pairs []*heldSummary, condition string) (int, bool) {
	i := sort.Search(len(pairs), func(i int) bool { return pairs[i].s.Condition >= condition })
	return i, i < len(pairs) && pairs[i].s.Condition == condition
}

// findBlock returns where group sits, or belongs, among a component's blocks.
func findBlock(blocks []heldBlock, group string) (int, bool) {
	i := sort.Search(len(blocks), func(i int) bool { return blocks[i].group >= group })
	return i, i < len(blocks) && blocks[i].group == group
}

// lookup returns the held summary of a pair, nil when nobody holds it.
// Callers hold a.mu.
func (a *Aggregator) lookup(component, condition string) *heldSummary {
	for _, b := range a.held[component] {
		if i, found := find(b.pairs, condition); found {
			return b.pairs[i]
		}
	}
	return nil
}

// pairsOf returns one block's pairs in condition order, nil when the block
// holds none. Callers hold a.mu.
func (a *Aggregator) pairsOf(component, group string) []*heldSummary {
	blocks := a.held[component]
	if bi, found := findBlock(blocks, group); found {
		return blocks[bi].pairs
	}
	return nil
}

// insert places h in its block, creating the block when it is new. Callers
// hold a.mu.
func (a *Aggregator) insert(h *heldSummary) {
	blocks := a.held[h.s.Component]
	bi, found := findBlock(blocks, h.s.Group)
	if !found {
		blocks = slices.Insert(blocks, bi, heldBlock{group: h.s.Group})
		a.held[h.s.Component] = blocks
	}
	b := &blocks[bi]
	i, _ := find(b.pairs, h.s.Condition)
	b.pairs = slices.Insert(b.pairs, i, h)
}

// remove takes h out of the block of group, dropping the block when it
// empties. Callers hold a.mu.
func (a *Aggregator) remove(h *heldSummary, group string) {
	blocks := a.held[h.s.Component]
	bi, _ := findBlock(blocks, group)
	b := &blocks[bi]
	i, _ := find(b.pairs, h.s.Condition)
	if b.pairs = slices.Delete(b.pairs, i, i+1); len(b.pairs) == 0 {
		a.held[h.s.Component] = slices.Delete(blocks, bi, bi+1)
	}
}

// DeliverSummary accepts one summary with its delivery tag: newest summary
// per pair wins, with (UpdatedAt, shard id, boot/seq) as the deterministic
// order. Older frames are counted stale and acked — the sender must retire
// them, and accepting them would reorder history — and dirty nothing in the
// read tier.
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
	h := a.lookup(s.Component, s.Condition)
	if h != nil && !a.newer(s, shardID, boot, seq, h) {
		a.stale++
		return nil
	}
	// What the replacement overwrites: the pair's owner, its event time and
	// the block it sits in.
	found := h != nil
	var old overwritten
	if found {
		old = overwritten{shard: h.shard, group: h.s.Group, at: h.s.UpdatedAt}
	}
	// The write window: the pair's block, and the block it leaves when the
	// replacement names another group. The hooks take the tier's lock and
	// nothing else; block reads wait on a.mu, so none sees the window open.
	moved := found && old.group != s.Group
	if a.inv != nil {
		a.inv.BeginMutation(s.Component, s.Group, s.Condition)
		if moved {
			a.inv.BeginMutation(s.Component, old.group, s.Condition)
		}
	}
	if !found {
		h = new(heldSummary)
	}
	h.s, h.shard, h.boot, h.seq = *s, shardID, boot, seq
	h.timeToHalf, h.hasPrognostic = s.Prognostics.TimeToProbability(0.5, pdme.PrognosticHorizon)
	switch {
	case !found:
		a.insert(h)
	case moved:
		a.remove(h, old.group)
		a.insert(h)
	}
	a.account(found, old, h)
	a.accepted++
	if a.inv != nil {
		a.inv.EndMutation(s.Component, s.Group, s.Condition)
		if moved {
			a.inv.EndMutation(s.Component, old.group, s.Condition)
		}
	}
	return nil
}

// overwritten is what an accepted replacement overwrote of a pair's summary.
type overwritten struct {
	shard, group string
	at           time.Time
}

// account moves a pair's place in the holdings from old (found false: the
// pair is new) to h, which already sits in a.held. A shard's newest is a
// maximum, and a removal can lower it only when another shard takes the pair
// over (a failover hand-off — a shard's own replacement is never older): only
// then, and only if the pair was the shard's newest, are its remaining pairs
// walked.
func (a *Aggregator) account(found bool, old overwritten, h *heldSummary) {
	handoff := found && old.shard != h.shard
	if handoff {
		lost := a.holdings[old.shard]
		if lost.components[h.s.Component]--; lost.components[h.s.Component] == 0 {
			delete(lost.components, h.s.Component)
		}
		if len(lost.components) == 0 {
			delete(a.holdings, old.shard)
		} else if !old.at.Before(lost.newest) {
			lost.newest = time.Time{}
			//lint:allow maporder a maximum does not depend on visiting order
			for _, blocks := range a.held {
				for _, b := range blocks {
					for _, o := range b.pairs {
						if o.shard == old.shard && o.s.UpdatedAt.After(lost.newest) {
							lost.newest = o.s.UpdatedAt
						}
					}
				}
			}
		}
	}
	sh := a.holdings[h.shard]
	if sh == nil {
		sh = &shardHolding{components: make(map[string]int)}
		a.holdings[h.shard] = sh
	}
	if !found || handoff {
		sh.components[h.s.Component]++
	}
	if !found {
		a.pairs++
	}
	if h.s.UpdatedAt.After(sh.newest) {
		sh.newest = h.s.UpdatedAt
	}
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

// discount asks the registry for the two things a held summary's row takes
// from it: the owning shard's discount α at the summary's event time, and the
// shard's liveness state. Both are printed in the row, so together they are
// the row's discount factors. Caller holds a.mu.
func (a *Aggregator) discount(h *heldSummary) (alpha float64, state health.State) {
	return a.reg.Reliability(h.shard, h.s.UpdatedAt), a.reg.StateOf(h.shard)
}

// globalItem builds one row under the given factors.
func (h *heldSummary) globalItem(alpha float64, state health.State) GlobalItem {
	b, pl, u := fusion.DiscountSummary(h.s.Belief, h.s.Plausibility, h.s.Unknown, alpha)
	return GlobalItem{
		Component:     h.s.Component,
		Condition:     h.s.Condition,
		Group:         h.s.Group,
		Belief:        b,
		Plausibility:  pl,
		Unknown:       u,
		Reports:       h.s.Reports,
		Shard:         h.shard,
		ShardState:    state.String(),
		Reliability:   alpha * h.s.Reliability,
		Degraded:      h.s.Degraded || alpha < 1-1e-9,
		TimeToHalf:    h.timeToHalf,
		HasPrognostic: h.hasPrognostic,
		UpdatedAt:     h.s.UpdatedAt,
	}
}

// GlobalRanked returns every held pair, discounted, ranked most-urgent
// first by the order pdme.PrioritizedList uses (pdme.RankKey.Before) — so a
// one-shard fleet's global list is bit-identical to that shard's own list
// when the shard is fresh. It is the fresh reference: every row is
// discounted and the whole list sorted per call; the read tier
// (serving.AggregatorHandler) keeps the same rows per block.
func (a *Aggregator) GlobalRanked() []GlobalItem {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []GlobalItem
	if a.pairs > 0 {
		out = make([]GlobalItem, 0, a.pairs)
	}
	for _, component := range slices.Sorted(maps.Keys(a.held)) {
		for _, b := range a.held[component] {
			for _, h := range b.pairs {
				out = append(out, h.globalItem(a.discount(h)))
			}
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
	if h := a.lookup(component, condition); h != nil {
		return h.globalItem(a.discount(h)), true
	}
	return GlobalItem{
		Component:    component,
		Condition:    condition,
		Plausibility: 1,
		Unknown:      1,
	}, false
}

// The four methods below are what the read tier needs of the aggregator
// beyond GlobalRanked (its fresh fallback): the block — one component's held
// pairs of one failure group, the unit the shard's own tier serves — as the
// unit of enumeration, lookup, read and re-validation.

// Blocks returns every (component, failure group) holding a summary, sorted.
func (a *Aggregator) Blocks() [][2]string {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out [][2]string
	for _, component := range slices.Sorted(maps.Keys(a.held)) {
		for _, b := range a.held[component] {
			out = append(out, [2]string{component, b.group})
		}
	}
	return out
}

// GroupOf returns the failure group the pair's held summary names — with the
// component, its block — and false when no shard has concluded on the pair.
func (a *Aggregator) GroupOf(component, condition string) (string, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if h := a.lookup(component, condition); h != nil {
		return h.s.Group, true
	}
	return "", false
}

// appendFactors appends the factors of a block's pairs to dst: per pair, in
// condition order, the owning shard's α at the summary's event time and the
// shard's state, asked once per run of pairs of one shard. Callers hold a.mu.
func (a *Aggregator) appendFactors(dst []float64, pairs []*heldSummary) []float64 {
	var shard string
	var state health.State
	for i, h := range pairs {
		if i == 0 || h.shard != shard {
			shard, state = h.shard, a.reg.StateOf(h.shard)
		}
		dst = append(dst, a.reg.Reliability(h.shard, h.s.UpdatedAt), float64(state))
	}
	return dst
}

// BlockRead returns one block's rows in condition order — each exactly the
// row GlobalRanked holds for the pair at the same instant — and the discount
// factors they were built under: per row, the shard's α and its state.
func (a *Aggregator) BlockRead(component, group string) (items []GlobalItem, factors []float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	pairs := a.pairsOf(component, group)
	factors = a.appendFactors(make([]float64, 0, 2*len(pairs)), pairs)
	items = make([]GlobalItem, len(pairs))
	for i, h := range pairs {
		items[i] = h.globalItem(factors[2*i], health.State(factors[2*i+1]))
	}
	return items, factors
}

// AppendBlockFactors appends to dst the factors a BlockRead of the block
// would be built under right now, without building a row, and returns the
// extended slice: bit-equal factors and no accepted summary for the block
// since mean an equal read. Into a buffer with room it allocates nothing.
func (a *Aggregator) AppendBlockFactors(dst []float64, component, group string) []float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.appendFactors(dst, a.pairsOf(component, group))
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
	LastUpdated time.Time `json:"last_updated,omitzero"`
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

// Coverage reports per-shard liveness and ownership, sorted by shard id: the
// shards holding pairs and the ring's members. It reads the holdings kept by
// DeliverSummary, so it costs the shards, not the pairs.
func (a *Aggregator) Coverage() CoverageReport {
	a.mu.Lock()
	defer a.mu.Unlock()
	rep := CoverageReport{StaleDropped: a.stale, HeldPairs: a.pairs}
	ids := make([]string, 0, len(a.holdings))
	//lint:allow maporder collected then sorted
	for id := range a.holdings {
		ids = append(ids, id)
	}
	var members []Member // sorted by id
	if a.ring != nil {
		rep.RingVersion = a.ring.Version()
		members = a.ring.Members()
		for _, m := range members {
			if a.holdings[m.ID] == nil {
				ids = append(ids, m.ID)
			}
		}
	}
	inRing := func(id string) bool {
		i := sort.Search(len(members), func(i int) bool { return members[i].ID >= id })
		return i < len(members) && members[i].ID == id
	}
	sort.Strings(ids)
	rep.ShardsTotal = len(ids)
	for _, id := range ids {
		sc := ShardCoverage{ID: id, State: a.reg.StateOf(id).String(), InRing: inRing(id), Reliability: 1}
		if sh := a.holdings[id]; sh != nil {
			sc.Components = len(sh.components)
			sc.LastUpdated = sh.newest
			sc.Reliability = a.reg.Reliability(id, sh.newest)
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

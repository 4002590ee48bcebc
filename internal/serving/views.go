// Package serving is the MPROS read-side serving tier: event-invalidated
// materialized views over the PDME, so operator dashboards and APIs read
// cached fused conclusions instead of recomputing Dempster fusion on every
// query.
//
// The paper's PDME serves one console; the ROADMAP's north star serves
// millions of readers against live ingest. The tier's coherence rule is
//
//	OOSM event ⇒ invalidate ⇒ bit-identical refuse
//
// a cache hit is bit-identical to a freshly recomputed fusion, including the
// health-discounted Reliability/Degraded fields.
//
// The unit of everything is the block: one logical failure group on one
// component. §5.3's grouping heuristic says what one report can change — the
// beliefs of its own group on its own component (evidence for any member
// reweights every other member and the group's unknown mass), and nothing
// else — so a block is what a write invalidates, what a read fuses
// (pdme.GroupRead, one Dempster combination), and what is kept: its members'
// belief views and its reported members' rows of the prioritized list, each
// row with its JSON already encoded. /belief reads a member out of its
// block; /ranked reads an ordered slice of every block's rows. Three
// mechanisms keep a kept block honest:
//
//  1. Event invalidation, never polling: the tier subscribes to the ship
//     model's conclusion post/update events (§4.5's "without the need to
//     poll"); every event bumps the generation of the one block it names.
//  2. A write window: the PDME brackets each delivery's fusion mutation with
//     BeginMutation/EndMutation (pdme.Invalidator). While a block's window
//     is open, reads needing it fuse it afresh and nothing fused across the
//     window is ever stored — the seqlock discipline that keeps
//     half-updated fusion state out of the cache.
//  3. A discount-factor guard: staleness discounting makes fused values
//     depend on the health registry as well as on deliveries, and heartbeats
//     reach the registry without touching the OOSM. A block's fused output
//     is a pure function of its evidence and the discount factors of its
//     sources, so a block records the factors it was fused under and is
//     current iff no window touched it since and the factors are bit-equal.
//     The registry's observation version is only the trigger: when it has
//     moved since a block was last checked, the factors are asked again
//     (pdme.GroupFactors — no combination) and the block is re-fused only
//     if they differ. Under an injected wall clock factors drift between
//     observations, so there a block is instead re-fused once the version
//     moves or Options.WallClockTolerance runs out.
package serving

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/health"
	"repro/internal/historian"
	"repro/internal/oosm"
	"repro/internal/pdme"
	"repro/internal/proto"
	"repro/internal/trend"
)

// Options tunes the tier.
type Options struct {
	// WallClockTolerance bounds the age of health-discounted blocks when
	// the PDME's health registry runs on an injected wall clock (whose
	// discount factors drift between observations, outside the factor
	// guard). Zero — the default — disables caching of discounted values
	// under a wall-clocked registry entirely: every read recomputes. In
	// event-time mode (no injected clock) the option is ignored and hits
	// stay bit-exact indefinitely.
	WallClockTolerance time.Duration
	// WatchBuffer is the default per-subscription notice buffer (0: 16).
	WatchBuffer int
}

const defaultWatchBuffer = 16

// blockKey names one block: a logical failure group on a component. The zero
// key names no block (components are never empty) and keys the ranking's
// flight.
type blockKey struct{ component, group string }

// row is one line of the prioritized list, immutable once built: the item
// and its wire form, encoded when the row's block was fused.
type row struct {
	item pdme.MaintenanceItem
	// wire is a comma followed by the row's JSON object, so a response body
	// is the rows' wire bytes back to back minus the first byte.
	wire []byte
}

func (r *row) rankKey() pdme.RankKey {
	return pdme.RankKey{Belief: r.item.Belief, HasPrognostic: r.item.HasPrognostic,
		TimeToHalf: r.item.TimeToHalf, Component: r.item.Component, Condition: r.item.Condition}
}

// fused is one materialization of a block — everything /belief, /ranked and
// /watch serve of it. Immutable once built and shared between readers.
type fused struct {
	members []BeliefView // every member's view, serve metadata unset
	rows    []*row       // the reported members' rows
	factors []float64    // the discount factors it was fused under
	err     error        // the group read failed: no rows, /belief answers err
}

// block is the invalidation state and the materialization of one block.
// Guarded by Views.mu.
type block struct {
	key blockKey
	// gen is bumped by every write-window edge and invalidation event on the
	// block; active counts its open windows.
	gen    uint64
	active int
	// mat is what was last fused (nil before the first read and after
	// InvalidateAll) and matGen the generation it was fused under: the block
	// is clean — servable, and absent from Views.dirty — iff mat is set,
	// matGen == gen and no window is open.
	mat    *fused
	matGen uint64
	// ver and at are the registry version and (wall-clock mode) time mat's
	// factors were last known to hold at; epoch changes with every store and
	// every such check.
	ver   uint64
	at    time.Time
	epoch uint64
}

func (b *block) clean() bool { return b.mat != nil && b.matGen == b.gen && b.active == 0 }

// Stats are the tier's cumulative counters.
type Stats struct {
	// Hits were served without fusing any block.
	Hits uint64 `json:"hits"`
	// Misses fused at least one block because it was invalid or its discount
	// factors had changed.
	Misses uint64 `json:"misses"`
	// Bypasses fused a block whose write window was open (nothing stored).
	Bypasses uint64 `json:"bypasses"`
	// Coalesced reads joined another reader's in-flight fuse instead of
	// fusing again (thundering-herd protection after an invalidation).
	Coalesced uint64 `json:"coalesced"`
	// Stores counts fused blocks accepted into the cache.
	Stores uint64 `json:"stores"`
	// Invalidations counts invalidation events: write windows and OOSM
	// conclusion events, each touching one block, and InvalidateAll.
	Invalidations uint64 `json:"invalidations"`
	// Notices counts watch notices delivered to subscribers.
	Notices uint64 `json:"notices"`
	// NoticeDrops counts notices dropped on slow subscribers' full buffers.
	NoticeDrops uint64 `json:"notice_drops"`
	// Watchers is the current subscription count.
	Watchers int `json:"watchers"`
}

// HitRatio returns the fraction of reads served without running a fuse of
// their own: hits / (hits + misses + bypasses + coalesced), 0 before any
// read.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses + s.Bypasses + s.Coalesced
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Views is the read-side serving tier over one PDME. Safe for concurrent
// use by any number of readers while deliveries run at full rate.
type Views struct {
	engine *pdme.PDME
	opts   Options

	mu     sync.RWMutex
	blocks map[blockKey]*block
	// dirty is the set of blocks that are not clean; the ranking is whole
	// only while it is empty. A set, not a list: a tier nobody reads must not
	// grow with the writes it sees.
	dirty map[*block]struct{}
	// conclusions remembers which block each conclusion object belongs to
	// (one object per pair, rewritten in place), so a conclusion event costs
	// a map lookup instead of a model read.
	conclusions map[oosm.ObjectID]*block
	// order is every materialized block's rows, most urgent first (a dirty
	// block's stay until it is fused again). Copy-on-write: a published
	// slice is never edited, so readers keep it without copying.
	order []*row
	// reg is the registry everything materialized was fused under; a
	// replaced registry (ConfigureHealth) flushes it all.
	reg *health.Registry
	// listed says the engine's blocks have been adopted since the last
	// InvalidateAll; flushes counts the times everything materialized was
	// dropped, so a refresh can tell that one ran under it.
	listed  bool
	flushes uint64
	// gen counts window edges and invalidation events tier-wide.
	gen uint64
	// The ranking's own stamp: rankedOK says every block is clean and its
	// factors held at registry version rankedVer (under a wall clock: no
	// earlier than rankedAt); any touch, store or flush clears it.
	rankedOK    bool
	rankedVer   uint64
	rankedAt    time.Time
	rankedEpoch uint64
	// seq is the epoch source: drawn from on every store and factor check.
	seq    uint64
	closed bool

	subMu sync.Mutex
	subs  map[*Subscription]struct{}

	flightMu sync.Mutex
	flights  map[blockKey]*flight

	hits          atomic.Uint64
	misses        atomic.Uint64
	bypasses      atomic.Uint64
	coalesced     atomic.Uint64
	stores        atomic.Uint64
	invalidations atomic.Uint64
	notices       atomic.Uint64
	noticeDrops   atomic.Uint64

	oosmCreated *oosm.Subscription
	oosmUpdated *oosm.Subscription
}

// Open attaches a serving tier to the engine: it installs the write-window
// hook (one tier per PDME — a second Open replaces the first's hook) and
// subscribes to the ship model's conclusion post/update events. Close
// detaches both.
func Open(engine *pdme.PDME, opts Options) (*Views, error) {
	if engine == nil {
		return nil, fmt.Errorf("serving: nil engine")
	}
	if opts.WatchBuffer <= 0 {
		opts.WatchBuffer = defaultWatchBuffer
	}
	v := &Views{
		engine:      engine,
		opts:        opts,
		reg:         engine.Health(),
		blocks:      make(map[blockKey]*block),
		dirty:       make(map[*block]struct{}),
		conclusions: make(map[oosm.ObjectID]*block),
		subs:        make(map[*Subscription]struct{}),
		flights:     make(map[blockKey]*flight),
	}
	// §4.5 event model, not polling: conclusion posts (first report for a
	// pair) and updates (every refuse) invalidate the pair's block. The
	// handlers run synchronously on the delivering goroutine, inside the
	// write window the Invalidator hook opens — and are the only
	// invalidation for a report posted into the model without Deliver.
	model := engine.Model()
	v.oosmCreated = model.SubscribeClass(pdme.ConclusionClass, oosm.ObjectCreated, v.onConclusionEvent)
	v.oosmUpdated = model.SubscribeClass(pdme.ConclusionClass, oosm.ObjectUpdated, v.onConclusionEvent)
	engine.SetInvalidator(v)
	return v, nil
}

// Close detaches the tier from the engine and closes every subscription.
// Everything materialized is dropped; reads after Close recompute fresh.
func (v *Views) Close() {
	v.engine.SetInvalidator(nil)
	v.oosmCreated.Cancel()
	v.oosmUpdated.Cancel()
	v.mu.Lock()
	v.closed = true
	v.blocks = make(map[blockKey]*block)
	v.dirty = make(map[*block]struct{})
	v.conclusions = make(map[oosm.ObjectID]*block)
	v.order, v.rankedOK = nil, false
	v.mu.Unlock()
	v.subMu.Lock()
	subs := make([]*Subscription, 0, len(v.subs))
	//lint:allow maporder subscriptions are closed independently; close order is unobservable from any one channel
	for s := range v.subs {
		subs = append(subs, s)
	}
	v.subMu.Unlock()
	for _, s := range subs {
		s.Close()
	}
}

// Engine returns the PDME the tier serves.
func (v *Views) Engine() *pdme.PDME { return v.engine }

// Stats returns the tier's cumulative counters.
func (v *Views) Stats() Stats {
	v.subMu.Lock()
	watchers := len(v.subs)
	v.subMu.Unlock()
	return Stats{
		Hits:          v.hits.Load(),
		Misses:        v.misses.Load(),
		Bypasses:      v.bypasses.Load(),
		Coalesced:     v.coalesced.Load(),
		Stores:        v.stores.Load(),
		Invalidations: v.invalidations.Load(),
		Notices:       v.notices.Load(),
		NoticeDrops:   v.noticeDrops.Load(),
		Watchers:      watchers,
	}
}

// blockLocked returns (creating it dirty if absent) a key's block, nil once
// the tier is closed. Callers hold v.mu.
func (v *Views) blockLocked(key blockKey) *block {
	b, ok := v.blocks[key]
	if !ok && !v.closed {
		b = &block{key: key}
		v.blocks[key] = b
		v.dirty[b] = struct{}{}
		v.rankedOK = false
	}
	return b
}

// touchLocked invalidates one block: whatever is materialized, or being
// fused right now, no longer counts. Callers hold v.mu.
func (v *Views) touchLocked(b *block) {
	b.gen++
	v.gen++
	v.dirty[b] = struct{}{}
	v.rankedOK = false
}

// BeginMutation implements pdme.Invalidator: open the write window on the
// block before any fusion state changes.
func (v *Views) BeginMutation(component, group, _ string) {
	v.invalidations.Add(1)
	v.mu.Lock()
	if b := v.blockLocked(blockKey{component, group}); b != nil {
		b.active++
		v.touchLocked(b)
	}
	v.mu.Unlock()
}

// EndMutation implements pdme.Invalidator: close the write window (bumping
// the generation again, so a block fused across it can never be stored) and
// notify watchers of the component.
//
//mpros:ingest fusion-event invalidation fan-out; must never block the mutator
func (v *Views) EndMutation(component, group, condition string) {
	v.mu.Lock()
	if b := v.blockLocked(blockKey{component, group}); b != nil {
		if b.active > 0 {
			b.active--
		}
		v.touchLocked(b)
	}
	v.mu.Unlock()
	v.notify(component, condition)
}

// InvalidateAll is the recovery epoch bump (pdme.RecoveryInvalidator):
// every block's generation advances and everything materialized is dropped,
// so nothing fused before a crash-recovery can ever be served against the
// recovered fusion state — and the next read asks the engine which blocks
// the recovered state holds. Open write windows are preserved.
func (v *Views) InvalidateAll() {
	v.invalidations.Add(1)
	v.mu.Lock()
	v.flushLocked()
	v.listed = false
	v.mu.Unlock()
}

// adoptRegistryLocked flushes everything when the engine's registry is no
// longer the one it was fused under (ConfigureHealth replaced it, and with
// it possibly the discounter). Callers hold v.mu.
func (v *Views) adoptRegistryLocked(h healthNow) {
	if v.reg != h.reg {
		v.flushLocked()
		v.reg = h.reg
	}
}

// flushLocked drops every materialization. Callers hold v.mu.
func (v *Views) flushLocked() {
	//lint:allow maporder per-block generation bump; each block is touched exactly once, so order cannot affect the result
	for _, b := range v.blocks {
		b.mat = nil
		v.touchLocked(b)
	}
	v.order = nil
	v.flushes++
}

// onConclusionEvent is the §4.5 hook: a conclusion object was posted or
// updated in the ship model. The object's block is read back from the model
// the first time the object is seen and remembered from then on.
func (v *Views) onConclusionEvent(e oosm.Event) {
	v.mu.Lock()
	b, known := v.conclusions[e.Object]
	if known {
		v.touchLocked(b)
	}
	v.mu.Unlock()
	if !known {
		props, err := v.engine.Model().Get(e.Object)
		if err != nil {
			return // conclusion deleted between event and read: nothing to map
		}
		component, _ := props["component"].(string)
		group, _ := props["group"].(string)
		if component == "" || group == "" {
			return
		}
		v.mu.Lock()
		if b = v.blockLocked(blockKey{component, group}); b != nil {
			v.conclusions[e.Object] = b
			v.touchLocked(b)
		}
		v.mu.Unlock()
		if b == nil {
			return
		}
	}
	v.invalidations.Add(1)
}

// list adopts the blocks the engine already holds — fused before the tier
// was opened (pdmed recovers its journal first) or restored under it
// (InvalidateAll) — so the ranking covers them without having seen a write
// to them. A flush that races the enumeration leaves the tier unlisted and
// the next read asks again.
func (v *Views) list() {
	v.mu.RLock()
	flushes, done := v.flushes, v.listed || v.closed
	v.mu.RUnlock()
	if done {
		return
	}
	pairs := v.engine.Blocks()
	v.mu.Lock()
	for _, p := range pairs {
		v.blockLocked(blockKey{p[0], p[1]})
	}
	v.listed = v.listed || v.flushes == flushes
	v.mu.Unlock()
}

// healthNow is the registry state a read runs under.
type healthNow struct {
	reg  *health.Registry
	ver  uint64
	wall bool
	now  time.Time // the registry's clock (wall-clock mode only)
}

func (v *Views) healthNow() healthNow {
	reg := v.engine.Health()
	h := healthNow{reg: reg, ver: reg.Version(), wall: reg.WallClocked()}
	if h.wall {
		h.now = reg.Now()
	}
	return h
}

// holds reports whether factors last known to hold at registry version ver
// (time at) can be taken to hold under h without asking again: no
// observation since, and under a wall clock no more than the tolerance
// elapsed.
func (v *Views) holds(h healthNow, ver uint64, at time.Time) bool {
	if ver != h.ver {
		return false
	}
	if h.wall {
		return v.opts.WallClockTolerance > 0 && h.now.Sub(at) <= v.opts.WallClockTolerance
	}
	return true
}

// servable reports whether b can be served under h as it stands: clean, and
// fused under factors that still hold — or under none, which no registry
// state can change.
func (v *Views) servable(b *block, h healthNow) bool {
	return b.clean() && (len(b.mat.factors) == 0 || v.holds(h, b.ver, b.at))
}

func sameFactors(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// fuse materializes one block from the engine: one group read, the members'
// views, the reported members' rows with their JSON.
func (v *Views) fuse(key blockKey) *fused {
	gr, err := v.engine.GroupRead(key.component, key.group)
	if err != nil {
		return &fused{err: err}
	}
	m := &fused{
		members: make([]BeliefView, len(gr.Members)),
		rows:    make([]*row, len(gr.Items)),
		factors: gr.Factors,
	}
	for i, cs := range gr.Members {
		m.members[i] = BeliefView{
			Component:    key.component,
			Condition:    cs.Condition,
			Group:        cs.Group,
			Belief:       cs.Belief,
			Plausibility: cs.Plausibility,
			Unknown:      cs.Unknown,
			Reports:      cs.Reports,
			Reliability:  cs.Reliability,
			Degraded:     cs.Degraded,
			Prognostic:   gr.Prognostics[i],
		}
	}
	for i, it := range gr.Items {
		if m.rows[i], err = newRow(it); err != nil {
			return &fused{err: err}
		}
	}
	return m
}

// swapRows removes old's rows from order and inserts new's, each found by
// binary search (RankKey.Before is a total order and a pair has one row).
// order is edited in place: pass a private copy. A sorted slice is enough
// at the sizes a station ranks — a move is one short memmove — so there is
// no tree.
func swapRows(order []*row, old, new []*row) []*row {
	position := func(r *row) int {
		k := r.rankKey()
		return sort.Search(len(order), func(i int) bool { return !order[i].rankKey().Before(k) })
	}
	for _, r := range old {
		if i := position(r); i < len(order) && order[i] == r {
			order = append(order[:i], order[i+1:]...)
		}
	}
	for _, r := range new {
		i := position(r)
		order = append(order, nil)
		copy(order[i+1:], order[i:])
		order[i] = r
	}
	return order
}

// job is one block a read has to look at again before it can serve it.
type job struct {
	key blockKey
	b   *block // nil: the tier holds no such block, and a read adopts none
	// gen and active are b's generation and open windows as planned.
	gen    uint64
	active int
	// check is the materialization whose factors are asked again (nil: fuse
	// the block). mat is what the job found: check itself when its factors
	// still hold, a fresh fuse otherwise.
	check, mat *fused
	// kept: b now holds mat, under a new epoch. done: the job has been run
	// and settled.
	kept, done bool
}

// planLocked says what b needs before it can be served under h: nothing, its
// factors asked again, or a fuse. Under a wall clock factors drift without
// any observation, so there asking settles nothing. Callers hold v.mu.
func (v *Views) planLocked(b *block, h healthNow) (j job, needed bool) {
	j = job{key: b.key, b: b, gen: b.gen, active: b.active}
	if v.servable(b, h) {
		return j, false
	}
	if b.clean() && !h.wall {
		j.check = b.mat
	}
	return j, true
}

// run does a job's work — one factors-only call, or one fuse — outside the
// tier's lock.
func (v *Views) run(j *job) {
	if j.check != nil && sameFactors(v.engine.GroupFactors(j.key.component, j.key.group), j.check.factors) {
		j.mat = j.check
		return
	}
	j.mat = v.fuse(j.key)
}

// settleLocked keeps what a job found, unless an invalidation, a write
// window, another reader's store or a registry swap reached the block since
// the plan: a fresh fuse replaces the block's materialization and moves its
// rows in the order, factors that held restamp the block under a new epoch
// (an epoch must not span a health observation: a silent-then-alive
// heartbeat pair restores old factors around a fresh fuse taken in
// between). owned says v.order is already a private copy, editable in place
// until the lock is released. Callers hold v.mu.
func (v *Views) settleLocked(j *job, h healthNow, owned *bool) {
	b := j.b
	if b == nil || v.closed || b.gen != j.gen || b.active != 0 || v.reg != h.reg {
		return
	}
	if j.mat == j.check {
		if b.mat != j.check {
			return
		}
	} else {
		var old []*row
		if b.mat != nil {
			old = b.mat.rows
		}
		if !*owned {
			v.order = append(make([]*row, 0, len(v.order)+len(j.mat.rows)), v.order...)
			*owned = true
		}
		v.order = swapRows(v.order, old, j.mat.rows)
		b.mat, b.matGen = j.mat, j.gen
		delete(v.dirty, b)
		v.rankedOK = false
		v.stores.Add(1)
	}
	v.seq++
	b.ver, b.at, b.epoch = h.ver, h.now, v.seq
	j.kept = true
}

// refreshed is what one refresh served.
type refreshed struct {
	// fused: at least one block was fused for it; windowOpen: one of them
	// inside its write window.
	fused, windowOpen bool
	// gen is the block's generation as fused or kept (the tier's, for the
	// ranking); epoch is non-zero when what is served is what the tier now
	// holds and nothing was fused.
	gen, epoch uint64
	mat        *fused // one block's refresh
	rows       []*row // the ranking's
}

// refresh is the slow path of every read: it brings one block — or, for the
// zero key, every block and with them the ranking — up to date under h. Plan
// under the lock, ask factors and fuse outside it (the mutation hooks take
// the lock, and must never wait on a fuse), settle under it again; what
// cannot be kept is still served to the caller.
func (v *Views) refresh(h healthNow, key blockKey) (r refreshed) {
	v.list() // the engine may hold blocks from before the tier was opened
	ranking := key == blockKey{}
	var jobs []job
	v.mu.Lock()
	v.adoptRegistryLocked(h)
	flushes := v.flushes
	if ranking {
		//lint:allow maporder blocks are checked and fused independently and their rows placed by rank key; job order cannot reach the result
		for _, b := range v.blocks {
			if j, needed := v.planLocked(b, h); needed {
				jobs = append(jobs, j)
			}
		}
	} else if b := v.blocks[key]; b == nil {
		// A block the engine holds no evidence for is not adopted by a read:
		// its vacuous view costs no combination, and readers must not be able
		// to grow the tier by asking about machines that do not exist.
		jobs = []job{{key: key}}
	} else if j, needed := v.planLocked(b, h); needed {
		jobs = []job{j}
	} else {
		r.mat, r.gen, r.epoch = b.mat, b.gen, b.epoch // another reader just did it
	}
	// A check that loses a race with a write is run again as a fuse: what the
	// block held then matches no instant of this call. Two rounds at most.
	for again := len(jobs) > 0; again; {
		v.mu.Unlock()
		for i := range jobs {
			if !jobs[i].done {
				v.run(&jobs[i])
			}
		}
		v.mu.Lock()
		again = false
		owned := false
		for i := range jobs {
			j := &jobs[i]
			if j.done {
				continue
			}
			j.done = true
			if v.settleLocked(j, h, &owned); !j.kept && j.mat == j.check {
				*j = job{key: j.key, b: j.b, gen: j.b.gen, active: j.b.active}
				again = true
			}
		}
	}
	// unkept are the fuses this call serves but the tier could not keep.
	type swap struct{ old, new []*row }
	var unkept []swap
	for i := range jobs {
		j := &jobs[i]
		if j.mat != j.check {
			r.fused = true
			r.windowOpen = r.windowOpen || j.active > 0
		}
		switch {
		case !ranking:
			r.mat, r.gen = j.mat, j.gen
			if j.kept && !r.fused {
				r.epoch = j.b.epoch
			}
		case !j.kept && j.b.mat != nil:
			unkept = append(unkept, swap{j.b.mat.rows, j.mat.rows})
		case !j.kept:
			unkept = append(unkept, swap{nil, j.mat.rows})
		}
	}
	// whole: no flush (InvalidateAll, a registry swap) and no Close emptied
	// the order under this refresh.
	whole := !v.closed && v.flushes == flushes
	if ranking {
		r.gen, r.rows = v.gen, v.order
		if whole && v.listed && len(v.dirty) == 0 && len(unkept) == 0 {
			// Every block is clean and its factors held at h. Under a wall
			// clock the ranking is as old as its oldest discounted block.
			v.rankedOK, v.rankedVer, v.rankedAt = true, h.ver, h.now
			if h.wall {
				//lint:allow maporder a minimum does not depend on visiting order
				for _, b := range v.blocks {
					if len(b.mat.factors) > 0 && b.at.Before(v.rankedAt) {
						v.rankedAt = b.at
					}
				}
			}
			v.seq++
			v.rankedEpoch = v.seq
			if !r.fused {
				r.epoch = v.rankedEpoch
			}
		}
	}
	v.mu.Unlock()
	switch {
	case r.windowOpen:
		v.bypasses.Add(1)
	case r.fused || ranking && !whole:
		v.misses.Add(1)
	default:
		v.hits.Add(1)
	}
	switch {
	case !ranking:
	case !whole:
		r.rows, r.fused, r.epoch = v.freshRows(), true, 0
	case len(unkept) > 0:
		r.rows = append(make([]*row, 0, len(r.rows)+len(unkept)), r.rows...)
		for _, s := range unkept {
			r.rows = swapRows(r.rows, s.old, s.new)
		}
	}
	return r
}

// freshRows builds the ranking straight from the engine, keeping nothing:
// what a closed tier, or a refresh that a flush ran under, serves.
func (v *Views) freshRows() []*row {
	items := v.engine.PrioritizedList()
	rows := make([]*row, 0, len(items))
	for _, it := range items {
		if r, err := newRow(it); err == nil {
			rows = append(rows, r)
		}
	}
	return rows
}

// flight is one in-progress refresh that concurrent readers of the same
// block (or of the ranking) share instead of running their own. Without it,
// every reader arriving while a block is invalid (or inside a write window)
// runs its own fuse — a thundering herd that can keep the CPU so busy the
// write window never closes. A coalesced read returns the leader's result,
// marked Cached=false with no Epoch: it reflects a fuse that was in flight
// during the call, so it may lag the very newest delivery by at most one
// fuse.
type flight struct {
	done chan struct{}
	res  refreshed
}

// shared runs refresh for key as the leader of the key's flight, or waits
// for the leader already running it and returns that result.
func (v *Views) shared(h healthNow, key blockKey) refreshed {
	v.flightMu.Lock()
	f, joined := v.flights[key]
	if !joined {
		f = &flight{done: make(chan struct{})}
		v.flights[key] = f
	}
	v.flightMu.Unlock()
	if joined {
		<-f.done
		v.coalesced.Add(1)
		r := f.res
		r.fused, r.epoch = true, 0
		return r
	}
	f.res = v.refresh(h, key)
	v.flightMu.Lock()
	delete(v.flights, key)
	v.flightMu.Unlock()
	close(f.done)
	return f.res
}

// RankedView is the materialized prioritized maintenance list.
type RankedView struct {
	// rows is the order at serve time, shared with other readers.
	rows []*row
	// Gen counts the write-window edges and invalidation events the tier
	// had seen at serve time.
	Gen uint64
	// Cached reports whether the view was served without fusing any block
	// (true) or at least one block was fused for this call (false).
	Cached bool
	// Epoch identifies what a hit served (0 when a block was fused for the
	// call). Two hits with equal non-zero Epoch served the identical rows,
	// with no write and no health observation in between — the handle
	// coherence checkers use to compare a hit against a fresh fuse without
	// racing ingest. A check that finds every block's factors unchanged
	// serves the same rows under a new Epoch.
	Epoch uint64
}

// Items returns the list most-urgent-first, exactly pdme.PrioritizedList. It
// is assembled per call; the view itself holds only the shared rows.
func (rv RankedView) Items() []pdme.MaintenanceItem {
	if len(rv.rows) == 0 {
		return nil
	}
	items := make([]pdme.MaintenanceItem, len(rv.rows))
	for i, r := range rv.rows {
		items[i] = r.item
	}
	return items
}

// Ranked serves the prioritized maintenance list. When no block has been
// touched and no health observation made since the last read it is O(1);
// otherwise only the touched blocks are re-fused (and, when the registry
// moved, the discounted blocks' factors asked again) and their rows moved in
// the order. What is served is bit-identical to what
// engine.PrioritizedList() would return at the same instant.
func (v *Views) Ranked() RankedView {
	h := v.healthNow()
	v.mu.RLock()
	ok := v.rankedOK && v.reg == h.reg && v.holds(h, v.rankedVer, v.rankedAt)
	rv := RankedView{rows: v.order, Gen: v.gen, Cached: true, Epoch: v.rankedEpoch}
	v.mu.RUnlock()
	if ok {
		v.hits.Add(1)
		return rv
	}
	r := v.shared(h, blockKey{})
	return RankedView{rows: r.rows, Gen: r.gen, Cached: !r.fused, Epoch: r.epoch}
}

// BeliefView is the materialized per-pair belief state: the full fused
// diagnostic read (belief, plausibility, group unknown, health-discounted
// reliability) plus the fused prognostic vector.
type BeliefView struct {
	Component    string                 `json:"component"`
	Condition    string                 `json:"condition"`
	Group        string                 `json:"group"`
	Belief       float64                `json:"belief"`
	Plausibility float64                `json:"plausibility"`
	Unknown      float64                `json:"unknown"`
	Reports      int                    `json:"reports"`
	Reliability  float64                `json:"reliability"`
	Degraded     bool                   `json:"degraded"`
	Prognostic   proto.PrognosticVector `json:"prognostics,omitempty"`
	// Gen is the block's generation at serve time; Cached and Epoch mirror
	// RankedView's serve metadata, for the pair's block. A block fused under
	// no discount factors depends on no health observation, and keeps its
	// epoch across them.
	Gen    uint64 `json:"gen"`
	Cached bool   `json:"cached"`
	Epoch  uint64 `json:"epoch,omitempty"`
}

// view reads one condition's view out of a materialized block and stamps it
// with the serve metadata.
func (m *fused) view(condition string, gen uint64, cached bool, epoch uint64) (BeliefView, error) {
	if m.err != nil {
		return BeliefView{}, m.err
	}
	for _, bv := range m.members {
		if bv.Condition == condition {
			bv.Gen, bv.Cached, bv.Epoch = gen, cached, epoch
			return bv, nil
		}
	}
	return BeliefView{}, fmt.Errorf("serving: condition %q missing from its group's read", condition)
}

// Belief serves one pair's fused state out of its block: fused when the
// block was touched by a write to any condition of the pair's failure group
// on that component, or when its sources' discount factors changed, and
// served as kept otherwise — whatever was reported about other machines.
func (v *Views) Belief(component, condition string) (BeliefView, error) {
	if component == "" {
		return BeliefView{}, fmt.Errorf("serving: empty component")
	}
	group, err := v.engine.GroupOf(condition)
	if err != nil {
		return BeliefView{}, err
	}
	key := blockKey{component, group}
	h := v.healthNow()
	var s block // a copy: the block as this read finds it
	v.mu.RLock()
	if b := v.blocks[key]; b != nil {
		s = *b
	}
	sameReg := v.reg == h.reg
	v.mu.RUnlock()
	if sameReg && v.servable(&s, h) {
		v.hits.Add(1)
		return s.mat.view(condition, s.gen, true, s.epoch)
	}
	r := v.shared(h, key)
	return r.mat.view(condition, r.gen, !r.fused, r.epoch)
}

// TrendView is a snapshot-isolated severity-history read: the raw points,
// the per-day rollup envelope, and (when three or more points exist) the
// fitted projection to the severity threshold.
type TrendView struct {
	Component string             `json:"component"`
	Condition string             `json:"condition"`
	Threshold float64            `json:"threshold"`
	History   []trend.Point      `json:"history,omitempty"`
	Rollups   []historian.Rollup `json:"rollups,omitempty"`
	// Projection is nil when the pair has too few points to fit.
	Projection *trend.Projection `json:"projection,omitempty"`
	// ProjectionError explains a nil Projection.
	ProjectionError string `json:"projection_error,omitempty"`
}

// Trend reads a pair's severity history, rollup envelope, and threshold
// projection from the historian. The read is snapshot-isolated (sealed
// segments are shared immutably, the head is copied under a read lock), so
// arbitrarily long range reads never block ingest — and are never cached,
// since the snapshot is already consistent by construction.
func (v *Views) Trend(component, condition string, threshold float64) TrendView {
	tv := TrendView{
		Component: component,
		Condition: condition,
		Threshold: threshold,
		History:   v.engine.SeverityHistory(component, condition),
		Rollups:   v.engine.SeverityRollups(component, condition),
	}
	proj, err := trend.ProjectPoints(tv.History, threshold)
	if err != nil {
		tv.ProjectionError = err.Error()
		return tv
	}
	tv.Projection = &proj
	return tv
}

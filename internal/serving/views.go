// Package serving is the MPROS read-side serving tier: write-invalidated
// materialized views over a PDME — and, through the same Views, over a
// fleet's aggregator — so operator dashboards and APIs read cached fused
// conclusions instead of recomputing Dempster fusion, or re-discounting and
// re-sorting the global list, on every query.
//
// The paper's PDME serves one console; the ROADMAP's north star serves
// millions of readers against live ingest. The tier's coherence rule is
//
//	write ⇒ invalidate ⇒ bit-identical refuse
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
// block; /ranked reads an ordered slice of every block's rows. Two
// mechanisms keep a kept block honest:
//
//  1. A write window, never polling (§4.5's "without the need to poll"): the
//     source brackets every change to a block with BeginMutation/EndMutation
//     (pdme.Invalidator) — the PDME's one fuse body around every report it
//     fuses, whichever door it came by; the aggregator around every accepted
//     summary. Each edge bumps the generation of the one block it names.
//     While a block's window is open, reads needing it fuse it afresh and
//     nothing fused across the window is ever stored — the seqlock
//     discipline that keeps half-updated fusion state out of the cache.
//  2. A discount-factor guard: staleness discounting makes fused values
//     depend on the health registry as well as on deliveries, and heartbeats
//     reach the registry without a window. A block's fused output
//     is a pure function of its evidence and the discount factors of its
//     sources, so a block records the factors it was fused under and is
//     current iff no window touched it since and the factors are bit-equal.
//     The registry's observation version is only the trigger: when it has
//     moved since a block was last checked, the factors are asked again
//     (pdme.AppendGroupFactors — no combination) and the block is re-fused only
//     if they differ. An injected wall clock is one more observation source
//     (health.ClockQuantum): the same rule holds on either clock.
//
// This file is the tier itself and names no engine: it reaches the one it
// serves through the source interface below. station.go is the PDME as a
// source, with what only a station has (belief views, trends, watches);
// aggregate.go is the aggregator as one — the same block, as the owning shard
// last summarised it, dirtied by an accepted summary (1.) and guarded by the
// owning shard's discount and state (2.).
package serving

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/health"
	"repro/internal/pdme"
)

// Options is the tier's configuration. It has no fields: the tier has no
// setting a caller varies.
type Options struct{}

// defaultWatchBuffer is a subscription's notice buffer when Watch is given
// none.
const defaultWatchBuffer = 16

// blockKey names one block: a logical failure group on a component. The zero
// key names no block (components are never empty) and keys the ranking's
// flight.
type blockKey struct{ component, group string }

// row is one line of a ranked list, immutable once built: what it is ranked
// by, the source's item and its wire form, encoded when the row's block was
// read.
type row struct {
	key pdme.RankKey
	// item is the source's own row type — pdme.MaintenanceItem at a station,
	// shard.GlobalItem at an aggregator — boxed once, here, never per read.
	item any
	// wire is a comma followed by the row's JSON object, so a response body
	// is the rows' wire bytes back to back minus the first byte.
	wire []byte
}

// newRow makes a list row of an item, encoding shape — its wire form — once:
// every response that carries the row afterwards copies these bytes.
func newRow(key pdme.RankKey, item, shape any) (*row, error) {
	body, err := json.Marshal(shape)
	if err != nil {
		return nil, fmt.Errorf("serving: encode row %s/%s: %w", key.Component, key.Condition, err)
	}
	return &row{key: key, item: item, wire: append([]byte{','}, body...)}, nil
}

// fused is one materialization of a block — everything /belief, /ranked and
// /watch serve of it. Immutable once built and shared between readers.
type fused struct {
	// members are every member's view at a station, serve metadata unset (an
	// aggregator holds no member without a row: its views are its rows).
	members []BeliefView
	rows    []*row    // the reported members' rows
	factors []float64 // the discount factors it was read under
	err     error     // the block read failed: no rows, /belief answers err
}

// block is the invalidation state and the materialization of one block.
// Guarded by Views.mu.
type block struct {
	key blockKey
	// gen is bumped by every write-window edge on the block; active counts
	// its open windows.
	gen    uint64
	active int
	// mat is what was last fused (nil before the first read) and matGen the
	// generation it was fused under: the block is clean — servable, and
	// absent from Views.dirty — iff mat is set, matGen == gen and no window
	// is open.
	mat    *fused
	matGen uint64
	// ver is the registry version mat's factors were last known to hold at;
	// epoch changes with every store and every such check.
	ver   uint64
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
	// Invalidations counts write windows, each touching one block.
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

// source is what the tier asks of the engine it serves; the tier knows the
// engine through nothing else. Two sources exist: a station's PDME
// (pdmeSource, station.go), whose block is a failure group's fused frame on a
// component, and a fleet's aggregator (aggregatorSource, aggregate.go), whose
// block is the same unit as the owning shard summarised it.
type source interface {
	// Health is the registry the source discounts by, which the source keeps
	// once a hook is installed: its Version is the trigger for asking factors
	// again.
	Health() *health.Registry
	// SetInvalidator installs the tier as the source's write-window hook —
	// every change to a block is bracketed with BeginMutation/EndMutation —
	// and refuses while another tier's is installed; nil removes it.
	SetInvalidator(pdme.Invalidator) error
	// Blocks enumerates the blocks the source holds, as (component, group).
	Blocks() [][2]string
	// read is one consistent read of a block: its rows (rank key, item,
	// encoded JSON), its members' views and the discount factors all of it
	// was read under. A block the source does not hold reads empty.
	read(key blockKey) *fused
	// factors appends to dst only the factors a read would run under right
	// now — no fusion, no row: bit-equal factors and no write since mean an
	// equal read.
	factors(dst []float64, key blockKey) []float64
	// fresh builds the whole list straight from the source, keeping nothing.
	fresh() []*row
}

// Views is the read-side serving tier over one source. Safe for concurrent
// use by any number of readers while deliveries run at full rate.
type Views struct {
	src source

	mu     sync.RWMutex
	blocks map[blockKey]*block
	// dirty is the set of blocks that are not clean; the ranking is whole
	// only while it is empty. A set, not a list: a tier nobody reads must not
	// grow with the writes it sees.
	dirty map[*block]struct{}
	// order is every materialized block's rows, most urgent first (a dirty
	// block's stay until it is fused again). Copy-on-write: a published
	// slice is never edited, so readers keep it without copying.
	order []*row
	// reg is the source's registry, which it keeps once the tier is attached
	// (source.Health).
	reg *health.Registry
	// gen counts window edges tier-wide.
	gen uint64
	// The ranking's own stamp: rankedOK says every block is clean and its
	// factors held at registry version rankedVer; any touch or store clears
	// it.
	rankedOK    bool
	rankedVer   uint64
	rankedEpoch uint64
	// seq is the epoch source: drawn from on every store and factor check.
	seq    uint64
	closed bool

	subMu sync.Mutex
	subs  map[*Subscription]struct{}

	flightMu sync.Mutex
	flights  map[blockKey]*flight
	// rankJobs is the ranking refresh's job list, kept between refreshes with
	// each slot's factor buffer: once a health observation has been made
	// every discounted block is a job, on every read, and its factors are
	// asked into the buffer its slot kept. Touched only by the leader of the
	// ranking's flight, of which there is one at a time.
	rankJobs []job

	hits          atomic.Uint64
	misses        atomic.Uint64
	bypasses      atomic.Uint64
	coalesced     atomic.Uint64
	stores        atomic.Uint64
	invalidations atomic.Uint64
	notices       atomic.Uint64
	noticeDrops   atomic.Uint64

	// engine is the PDME itself on a station's tier (station.go: /belief's
	// group lookup, /trend). Nil on a tier opened over an aggregator, which
	// never leaves this package.
	engine *pdme.PDME
}

// open attaches a tier to a source by installing it as the source's
// write-window hook — one tier per source: a second open is refused — and
// adopts the blocks the source already holds (pdmed recovers its journal
// first), so the ranking covers them without having seen a write to them.
// Close detaches it.
func open(src source) (*Views, error) {
	v := &Views{
		src:     src,
		blocks:  make(map[blockKey]*block),
		dirty:   make(map[*block]struct{}),
		subs:    make(map[*Subscription]struct{}),
		flights: make(map[blockKey]*flight),
	}
	if err := src.SetInvalidator(v); err != nil {
		return nil, err
	}
	v.reg = src.Health()
	pairs := src.Blocks()
	v.mu.Lock()
	for _, p := range pairs {
		v.blockLocked(blockKey{p[0], p[1]})
	}
	v.mu.Unlock()
	return v, nil
}

// Close detaches the tier from its source, once, and closes every
// subscription. Everything materialized is dropped; reads after Close
// recompute fresh.
func (v *Views) Close() {
	v.mu.Lock()
	attached := !v.closed
	v.closed = true
	v.blocks = make(map[blockKey]*block)
	v.dirty = make(map[*block]struct{})
	v.order, v.rankedOK = nil, false
	v.mu.Unlock()
	if !attached {
		return
	}
	_ = v.src.SetInvalidator(nil) // removing a hook is never refused
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

// healthNow is the registry version a read runs under: factors last known to
// hold at it hold without asking again — no observation since, on either
// clock.
func (v *Views) healthNow() uint64 { return v.reg.Version() }

// servable reports whether b can be served at registry version ver as it
// stands: clean, and fused under factors that still hold — or under none,
// which no registry state can change.
func (b *block) servable(ver uint64) bool {
	return b.clean() && (len(b.mat.factors) == 0 || b.ver == ver)
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

// swapRows removes old's rows from order and inserts new's, each found by
// binary search: RankKey.Before is a total order and a pair has one row —
// except while an aggregator's pair moves between two blocks (its summary
// names a new group), when the row that leaves may tie with the row that has
// arrived, so a removal steps over ties to the row itself. order is edited in
// place: pass a private copy. A sorted slice is enough at the sizes a
// station ranks — a move is one short memmove — so there is no tree.
func swapRows(order []*row, old, new []*row) []*row {
	position := func(r *row) int {
		return sort.Search(len(order), func(i int) bool { return !order[i].key.Before(r.key) })
	}
	for _, r := range old {
		for i := position(r); i < len(order) && !r.key.Before(order[i].key); i++ {
			if order[i] == r {
				order = append(order[:i], order[i+1:]...)
				break
			}
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
	// factors is the buffer check's factors are asked into, kept with a
	// rankJobs slot across refreshes.
	factors []float64
}

// plan says what b needs before it can be served at registry version ver:
// nothing, its factors asked again, or a fuse. Callers hold Views.mu.
func (b *block) plan(ver uint64) (j job, needed bool) {
	j = job{key: b.key, b: b, gen: b.gen, active: b.active}
	if b.servable(ver) {
		return j, false
	}
	if b.clean() {
		j.check = b.mat
	}
	return j, true
}

// run does a job's work — one factors-only call, or one fuse — outside the
// tier's lock.
func (v *Views) run(j *job) {
	if j.check != nil {
		j.factors = v.src.factors(j.factors[:0], j.key)
		if sameFactors(j.factors, j.check.factors) {
			j.mat = j.check
			return
		}
	}
	j.mat = v.src.read(j.key)
}

// settleLocked keeps what a job found, unless an invalidation, a write
// window or another reader's store reached the block since the plan: a fresh
// fuse replaces the block's materialization and moves its rows in the order,
// factors that held restamp the block under a new epoch (an epoch must not
// span a health observation: a silent-then-alive heartbeat pair restores old
// factors around a fresh fuse taken in between). owned says v.order is
// already a private copy, editable in place until the lock is released.
// Callers hold v.mu.
func (v *Views) settleLocked(j *job, ver uint64, owned *bool) {
	b := j.b
	if b == nil || v.closed || b.gen != j.gen || b.active != 0 {
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
	b.ver, b.epoch = ver, v.seq
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
// zero key, every block and with them the ranking — up to date at registry
// version ver. Plan under the lock, ask factors and fuse outside it (the
// mutation hooks take the lock, and must never wait on a fuse), settle under
// it again; what cannot be kept is still served to the caller.
func (v *Views) refresh(ver uint64, key blockKey) (r refreshed) {
	ranking := key == blockKey{}
	var jobs []job
	v.mu.Lock()
	if ranking {
		jobs = v.rankJobs[:0]
		//lint:allow maporder blocks are checked and fused independently and their rows placed by rank key; job order cannot reach the result
		for _, b := range v.blocks {
			if j, needed := b.plan(ver); needed {
				if n := len(jobs); n < cap(jobs) {
					j.factors = jobs[:n+1][n].factors // the slot's buffer
				}
				jobs = append(jobs, j)
			}
		}
	} else if b := v.blocks[key]; b == nil {
		// A block the engine holds no evidence for is not adopted by a read:
		// its vacuous view costs no combination, and readers must not be able
		// to grow the tier by asking about machines that do not exist.
		jobs = []job{{key: key}}
	} else if j, needed := b.plan(ver); needed {
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
			if v.settleLocked(j, ver, &owned); !j.kept && j.mat == j.check {
				*j = job{key: j.key, b: j.b, gen: j.b.gen, active: j.b.active, factors: j.factors}
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
	// whole: no Close emptied the order under this refresh.
	whole := !v.closed
	if ranking {
		for i := range jobs { // the kept list must not keep materializations alive
			jobs[i] = job{factors: jobs[i].factors}
		}
		v.rankJobs = jobs[:0]
		r.gen, r.rows = v.gen, v.order
		if whole && len(v.dirty) == 0 && len(unkept) == 0 {
			// Every block is clean and its factors held at ver.
			v.rankedOK, v.rankedVer = true, ver
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
		r.rows, r.fused, r.epoch = v.src.fresh(), true, 0
	case len(unkept) > 0:
		r.rows = append(make([]*row, 0, len(r.rows)+len(unkept)), r.rows...)
		for _, s := range unkept {
			r.rows = swapRows(r.rows, s.old, s.new)
		}
	}
	return r
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
func (v *Views) shared(ver uint64, key blockKey) refreshed {
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
	f.res = v.refresh(ver, key)
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
	// Gen counts the write-window edges the tier had seen at serve time.
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

// Ranked serves the prioritized maintenance list. When no block has been
// touched and no health observation made since the last read it is O(1);
// otherwise only the touched blocks are re-fused (and, when the registry
// moved, the discounted blocks' factors asked again) and their rows moved in
// the order. What is served is bit-identical to what the source's fresh list
// (PrioritizedList, GlobalRanked) would return at the same instant.
func (v *Views) Ranked() RankedView {
	ver := v.healthNow()
	v.mu.RLock()
	ok := v.rankedOK && v.rankedVer == ver
	rv := RankedView{rows: v.order, Gen: v.gen, Cached: true, Epoch: v.rankedEpoch}
	v.mu.RUnlock()
	if ok {
		v.hits.Add(1)
		return rv
	}
	r := v.shared(ver, blockKey{})
	return RankedView{rows: r.rows, Gen: r.gen, Cached: !r.fused, Epoch: r.epoch}
}

// served is one block as a read found it, under the serve metadata of
// RankedView — for the block.
type served struct {
	mat    *fused
	gen    uint64
	cached bool
	epoch  uint64
}

// block serves one block: as kept while no write has touched it and its
// factors hold, through a refresh otherwise. A block fused under no discount
// factors depends on no health observation, and keeps its epoch across them.
func (v *Views) block(key blockKey) served {
	ver := v.healthNow()
	var s block // a copy: the block as this read finds it
	v.mu.RLock()
	if b := v.blocks[key]; b != nil {
		s = *b
	}
	v.mu.RUnlock()
	if s.servable(ver) {
		v.hits.Add(1)
		return served{s.mat, s.gen, true, s.epoch}
	}
	r := v.shared(ver, key)
	return served{r.mat, r.gen, !r.fused, r.epoch}
}

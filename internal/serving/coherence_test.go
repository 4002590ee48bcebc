package serving

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/health"
	"repro/internal/proto"
	"repro/internal/shard"
)

// These tests pin the tier's one non-negotiable property: a cached response
// is bit-identical to a fresh fuse at the same instant, including the
// health-discounted Degraded/Reliability fields. The sequential test drives
// random interleavings of deliveries, heartbeats, and reads and compares
// every read against a recompute; the concurrent test runs readers against
// live ingest under -race and uses the Epoch guard to compare without racing.
// Both run on both backends — a station's PDME, and a fleet's aggregator — and
// on both clocks: event time, where a stamp carried by a heartbeat or a report
// moves the registry, and an injected wall clock, where a step across a
// health.ClockQuantum is the observation.

// coherenceHealth is the registry configuration of every run: a short
// freshness window, so that time moving pushes evidence into the degraded
// band and the discounted fields actually vary. A nil clock is event time.
func coherenceHealth(clock func() time.Time) health.Config {
	return health.Config{FreshFor: 30 * time.Minute, StalenessHorizon: 4 * time.Hour, Clock: clock}
}

// crossesQuantum reports whether a wall clock stepped from one time to a later
// one has been seen to move by a registry.
func crossesQuantum(from, to time.Time) bool {
	return to.Truncate(health.ClockQuantum).After(from.Truncate(health.ClockQuantum))
}

// sharedClock is a wall clock one goroutine steps while others read it.
type sharedClock struct{ ns atomic.Int64 }

func (c *sharedClock) set(t time.Time) { c.ns.Store(t.UnixNano()) }
func (c *sharedClock) now() time.Time  { return time.Unix(0, c.ns.Load()).UTC() }

// concurrentHealth is coherenceHealth for a concurrent run: on a shared clock
// standing at base when wall is set, on event time (and a nil clock) otherwise.
func concurrentHealth(wall bool) (*sharedClock, health.Config) {
	if !wall {
		return nil, coherenceHealth(nil)
	}
	clock := new(sharedClock)
	clock.set(base)
	return clock, coherenceHealth(clock.now)
}

func stripBelief(bv BeliefView) BeliefView {
	bv.Gen, bv.Cached, bv.Epoch = 0, false, 0
	return bv
}

// freshBelief recomputes a pair's view without touching the cache — the
// reference value hits are compared against.
func freshBelief(v *Views, component, condition string) (BeliefView, error) {
	cs, err := v.engine.ConditionSnapshot(component, condition)
	if err != nil {
		return BeliefView{}, err
	}
	return BeliefView{
		Component:    component,
		Condition:    condition,
		Group:        cs.Group,
		Belief:       cs.Belief,
		Plausibility: cs.Plausibility,
		Unknown:      cs.Unknown,
		Reports:      cs.Reports,
		Reliability:  cs.Reliability,
		Degraded:     cs.Degraded,
		Prognostic:   cs.Prognostics,
	}, nil
}

func TestCoherenceProperty(t *testing.T) {
	for _, run := range []struct {
		name     string
		property func(t *testing.T, seed int64, wall bool)
		wall     bool
	}{
		{"", stationCoherenceProperty, false},
		{"wallclock/", stationCoherenceProperty, true},
		{"aggregator/", aggregatorCoherenceProperty, false},
		{"aggregator/wallclock/", aggregatorCoherenceProperty, true},
	} {
		for seed := int64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("%sseed=%d", run.name, seed), func(t *testing.T) { run.property(t, seed, run.wall) })
		}
	}
}

// stepWallClock is the wall-clocked runs' extra op kind: two draws in six step
// the clock and do nothing else — by minutes, or by less than a quantum — and
// every other op runs with it standing still. It returns the step, or false
// for an op of another kind.
func stepWallClock(rng *rand.Rand, minutes time.Duration) (time.Duration, bool) {
	switch rng.Intn(6) {
	case 0:
		return minutes, true
	case 1:
		return time.Duration(rng.Intn(900)+50) * time.Millisecond, true
	}
	return 0, false
}

// stationCoherenceProperty drives one seeded schedule of deliveries,
// heartbeats, clock movement and reads against a station's tier, comparing
// every read against a recompute.
func stationCoherenceProperty(t *testing.T, seed int64, wall bool) {
	const ops = 400
	components := []string{"m1", "m2", "m3"}
	conditions := []string{"inner race fault", "outer race fault", "imbalance"}
	dcs := []string{"dc-1", "dc-2", "dc-3"}
	// still is a fourth machine, reported once by a PDME-resident source (no
	// DC behind it, so never discounted) and never again: whatever the other
	// machines, the DCs and the clock do, its block must keep hitting.
	const still = "m4"

	rng := rand.New(rand.NewSource(seed))
	engine := newTestEngine(t)
	now := base
	var clock func() time.Time
	if wall {
		clock = func() time.Time { return now }
	}
	if err := engine.ConfigureHealth(coherenceHealth(clock)); err != nil {
		t.Fatal(err)
	}
	v := openTestViews(t, engine)
	handler := NewHandler(v)
	deliver(t, engine, report("", still, "imbalance", 0.6, now))
	if _, err := v.Belief(still, "imbalance"); err != nil {
		t.Fatal(err)
	}

	// observed counts deliveries, heartbeats and, under the wall clock,
	// quantum crossings. Two hits with the same non-zero Epoch must bracket
	// none of them, for the ranking and for each pair, or the Epoch-guarded
	// checkers would trust a fresh fuse taken across an observation
	// (silent-then-alive restores the factors a block was fused under: an ABA
	// on factors alone).
	type seen struct{ epoch, observed uint64 }
	var observed uint64
	// advance moves time: on event time only the stamp the next heartbeat or
	// report will carry, under the wall clock the registry's own.
	advance := func(d time.Duration) {
		if wall && crossesQuantum(now, now.Add(d)) {
			observed++
		}
		now = now.Add(d)
	}
	var lastRanked seen
	lastBelief := map[[2]string]seen{}
	checkEpoch := func(op int, what string, last *seen, epoch uint64) {
		t.Helper()
		if epoch != 0 && epoch == last.epoch && observed != last.observed {
			t.Fatalf("op %d: %s hit kept epoch %d across %d observations", op, what, epoch, observed-last.observed)
		}
		*last = seen{epoch, observed}
	}
	heartbeat := func(dc string) {
		t.Helper()
		if err := engine.ObserveHeartbeat(&proto.Heartbeat{DCID: dc, SentAt: now, Incarnation: 1}); err != nil {
			t.Fatal(err)
		}
		observed++
	}

	for op := 0; op < ops; op++ {
		step := time.Duration(rng.Intn(20)+1) * time.Minute
		if !wall {
			advance(step)
		} else if d, stepped := stepWallClock(rng, step); stepped {
			advance(d)
			continue
		}
		switch rng.Intn(8) {
		case 0, 1: // delivery
			r := report(
				dcs[rng.Intn(len(dcs))],
				components[rng.Intn(len(components))],
				conditions[rng.Intn(len(conditions))],
				0.1+0.8*rng.Float64(),
				now,
			)
			r.Severity = rng.Float64()
			if rng.Intn(4) == 0 {
				r.Prognostics = proto.PrognosticVector{{
					Probability:    0.3 + 0.6*rng.Float64(),
					HorizonSeconds: float64(rng.Intn(200)+10) * 3600,
				}}
			}
			deliver(t, engine, r)
			observed++
		case 2: // heartbeat (on event time it advances the watermark)
			heartbeat(dcs[rng.Intn(len(dcs))])
		case 3: // a DC reports, falls silent and comes back between reads
			dc := rng.Intn(len(dcs))
			deliver(t, engine, report(dcs[dc], components[rng.Intn(len(components))], "imbalance", 0.5, now))
			observed++
			v.Ranked() // materialize under the fresh, alive factors
			advance(20 * time.Minute)
			heartbeat(dcs[(dc+1)%len(dcs)]) // time leaves dc behind: silent
			if rng.Intn(2) == 0 {
				v.Ranked() // sometimes fused under the silent factors too
			}
			heartbeat(dcs[dc]) // alive again, its report still fresh: the old factors
		case 4: // ranked read through the handler vs the reference encoder over a fresh fuse
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/ranked", nil))
			got := rec.Body.Bytes()
			if want := referenceBody(t, got, engine.PrioritizedList()); !bytes.Equal(got, want) {
				t.Fatalf("op %d: /ranked body diverged from the reference encoding of a fresh fuse\n got: %s\nwant: %s", op, got, want)
			}
			var head rankedJSON
			if err := json.Unmarshal(got, &head); err != nil {
				t.Fatal(err)
			}
			checkEpoch(op, "/ranked", &lastRanked, head.Epoch)
		case 5: // ranked read vs fresh fuse
			got := v.Ranked()
			if want := engine.PrioritizedList(); !reflect.DeepEqual(got.Items(), want) {
				t.Fatalf("op %d: ranked view diverged (cached=%v)\n got: %+v\nwant: %+v",
					op, got.Cached, got.Items(), want)
			}
			checkEpoch(op, "ranked", &lastRanked, got.Epoch)
		default: // belief read vs fresh fuse
			component := append(components, still)[rng.Intn(len(components)+1)]
			condition := conditions[rng.Intn(len(conditions))]
			got, err := v.Belief(component, condition)
			if err != nil {
				t.Fatal(err)
			}
			want, err := freshBelief(v, component, condition)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(stripBelief(got), stripBelief(want)) {
				t.Fatalf("op %d: belief view diverged (cached=%v)\n got: %+v\nwant: %+v",
					op, got.Cached, got, want)
			}
			if component == still && condition == "imbalance" && !got.Cached {
				t.Fatalf("op %d: the untouched machine's block was fused again: %+v", op, got)
			}
			last := lastBelief[[2]string{component, condition}]
			checkEpoch(op, "belief", &last, got.Epoch)
			lastBelief[[2]string{component, condition}] = last
		}
	}
	st := v.Stats()
	if st.Hits == 0 {
		t.Fatal("property run never served a cache hit — the cache is not being exercised")
	}
	if st.Stores == 0 || st.Invalidations == 0 {
		t.Fatalf("degenerate run: %+v", st)
	}
}

// aggregatorCoherenceProperty is TestCoherenceProperty's schedule on the
// aggregator backend: summaries from three shards — fresh ones, stale ones,
// replays, same-time hand-offs between shards, a failure-group change —
// shard heartbeats, and jumps in time that put shards on the age ramp and
// drive them silent and back. Every read is compared against the
// aggregator's fresh answer at that instant, every body against the
// reference encoder.
func aggregatorCoherenceProperty(t *testing.T, seed int64, wall bool) {
	const ops = 400
	shards := []string{"shard-1", "shard-2", "shard-3"}
	components := []string{"m1", "m2", "m3"}
	conditions := []string{"inner race fault", "outer race fault", "imbalance"}
	groupOf := map[string]string{"inner race fault": "bearing", "outer race fault": "bearing", "imbalance": "motor"}
	// still is a fourth machine, summarised once by a shard that is never
	// heard from again. From the first summary of the run proper on, that
	// shard is silent and its evidence past the staleness horizon — factors
	// no later observation moves — so whatever the other shards do, its block
	// must keep hitting.
	const still = "m4"

	rng := rand.New(rand.NewSource(seed))
	now := base
	var clock func() time.Time
	if wall {
		clock = func() time.Time { return now }
	}
	a, err := shard.NewAggregator(shard.AggregatorConfig{Health: coherenceHealth(clock)})
	if err != nil {
		t.Fatal(err)
	}
	f := openFleetAPI(t, a)
	handler := f.handler()

	type seen struct{ epoch, observed uint64 }
	var observed, seq uint64
	advance := func(d time.Duration) {
		if wall && crossesQuantum(now, now.Add(d)) {
			observed++
		}
		now = now.Add(d)
	}
	var lastRanked seen
	lastBlock := map[blockKey]seen{}
	checkEpoch := func(op int, what string, last *seen, epoch uint64) {
		t.Helper()
		if epoch != 0 && epoch == last.epoch && observed != last.observed {
			t.Fatalf("op %d: %s hit kept epoch %d across %d observations", op, what, epoch, observed-last.observed)
		}
		*last = seen{epoch, observed}
	}
	var sent []*proto.FusedSummary
	// deliver hands one summary over. A summary the aggregator drops as stale
	// must dirty nothing in the tier.
	deliver := func(s *proto.FusedSummary) {
		t.Helper()
		seq++
		stale, invalidations := a.StaleDropped(), f.v.Stats().Invalidations
		if err := a.DeliverSummary(s, s.ShardID, 1, seq); err != nil {
			t.Fatal(err)
		}
		if !s.UpdatedAt.IsZero() { // the registry observes a summary by its event time
			observed++
		}
		if a.StaleDropped() != stale && f.v.Stats().Invalidations != invalidations {
			t.Fatalf("a stale summary invalidated: %+v", s)
		}
		sent = append(sent, s)
	}
	summarise := func(shardID, component, condition string, at time.Time) *proto.FusedSummary {
		s := testSummary(shardID, component, condition, 0.1+0.8*rng.Float64(), at)
		s.Group = groupOf[condition]
		if rng.Intn(3) == 0 {
			s.Prognostics = proto.PrognosticVector{{
				Probability:    0.3 + 0.6*rng.Float64(),
				HorizonSeconds: float64(rng.Intn(200)+10) * 3600,
			}}
		}
		return s
	}
	heartbeat := func(shardID string) {
		t.Helper()
		if err := a.ObserveHeartbeat(&proto.Heartbeat{DCID: shardID, SentAt: now, Incarnation: 1}); err != nil {
			t.Fatal(err)
		}
		observed++
	}
	checkRanked := func(op int) {
		t.Helper()
		got := f.v.Ranked()
		if want := a.GlobalRanked(); !reflect.DeepEqual(globalItems(got), want) {
			t.Fatalf("op %d: ranked view diverged (cached=%v)\n got: %+v\nwant: %+v", op, got.Cached, globalItems(got), want)
		}
		checkEpoch(op, "ranked", &lastRanked, got.Epoch)
	}
	checkBelief := func(op int, component, condition string) {
		t.Helper()
		want, covered := a.GlobalBelief(component, condition)
		group, held := a.GroupOf(component, condition)
		if held != covered {
			t.Fatalf("op %d: GroupOf says held=%v, GlobalBelief covered=%v", op, held, covered)
		}
		blocks := len(f.v.blocks)
		query := url.Values{"component": {component}, "condition": {condition}}.Encode()
		if got, want := serve(t, handler, "/belief?"+query, 200), referenceGlobalBelief(t, a, component, condition); !bytes.Equal(got, want) {
			t.Fatalf("op %d: /belief body diverged from the reference encoding of a fresh read\n got: %s\nwant: %s", op, got, want)
		}
		if !held {
			if len(f.v.blocks) != blocks {
				t.Fatalf("op %d: a read of a pair nobody holds adopted a block", op)
			}
			return
		}
		key := blockKey{component, group}
		got := f.v.block(key)
		var item any
		for _, r := range got.mat.rows {
			if r.key.Condition == condition {
				item = r.item
			}
		}
		if !reflect.DeepEqual(item, any(want)) {
			t.Fatalf("op %d: block %v diverged (cached=%v)\n got: %+v\nwant: %+v", op, key, got.cached, item, want)
		}
		if component == still && !got.cached {
			t.Fatalf("op %d: the untouched shard's block was read again: %+v", op, item)
		}
		last := lastBlock[key]
		checkEpoch(op, "block", &last, got.epoch)
		lastBlock[key] = last
	}

	deliver(summarise("shard-gone", still, "imbalance", base.Add(-48*time.Hour)))
	deliver(summarise(shards[0], components[0], conditions[0], now))
	checkBelief(-1, still, "imbalance")

	for op := 0; op < ops; op++ {
		step := time.Duration(rng.Intn(20)+1) * time.Minute
		if !wall {
			advance(step)
		} else if d, stepped := stepWallClock(rng, step); stepped {
			advance(d)
			continue
		}
		component := components[rng.Intn(len(components))]
		condition := conditions[rng.Intn(len(conditions))]
		switch rng.Intn(16) {
		case 0, 1, 2: // a fresh summary, from whichever shard: later times hand the pair over
			deliver(summarise(shards[rng.Intn(len(shards))], component, condition, now))
		case 3: // an earlier frame again: stale, or an exact replay of what is held
			deliver(sent[rng.Intn(len(sent))])
		case 4: // a same-time hand-off: another shard re-asserts the held state
			if held, covered := a.GlobalBelief(component, condition); covered {
				deliver(summarise(shards[rng.Intn(len(shards))], component, condition, held.UpdatedAt))
			}
		case 5: // the pair changes failure group: two blocks change
			s := summarise(shards[rng.Intn(len(shards))], component, condition, now)
			if s.Group = "rotor"; rng.Intn(2) == 0 {
				s.Group = ""
			}
			deliver(s)
		case 6: // a group change the registry does not see (no event time, so no observation): only the write windows say that two blocks changed
			s := summarise(shards[2], "m5", "imbalance", time.Time{})
			if rng.Intn(2) == 0 {
				s.Group = "rotor"
			}
			deliver(s)
			checkRanked(op)
		case 7: // heartbeat (on event time it advances the watermark)
			heartbeat(shards[rng.Intn(len(shards))])
		case 8: // time jumps: everybody else's evidence is on the age ramp, or past it
			advance(time.Duration(rng.Intn(150)+30) * time.Minute)
			heartbeat(shards[rng.Intn(len(shards))])
		case 9: // a shard reports, falls silent and comes back between reads
			sh := rng.Intn(len(shards))
			deliver(summarise(shards[sh], component, "imbalance", now))
			f.v.Ranked() // materialize under the fresh, alive factors
			advance(20 * time.Minute)
			heartbeat(shards[(sh+1)%len(shards)]) // time leaves sh behind: silent
			if rng.Intn(2) == 0 {
				f.v.Ranked() // sometimes read under the silent factors too
			}
			heartbeat(shards[sh]) // alive again, its summary still fresh: the old factors
		case 10: // ranked read through the handler vs the reference encoder over a fresh read
			if got, want := serve(t, handler, "/ranked", 200), referenceGlobalRanked(t, a); !bytes.Equal(got, want) {
				t.Fatalf("op %d: /ranked body diverged from the reference encoding of a fresh read\n got: %s\nwant: %s", op, got, want)
			}
			if got, want := serve(t, handler, "/coverage", 200), encodeReference(t, a.Coverage()); !bytes.Equal(got, want) {
				t.Fatalf("op %d: /coverage body diverged\n got: %s\nwant: %s", op, got, want)
			}
		case 11: // ranked read vs fresh read
			checkRanked(op)
		default: // belief read vs fresh read: a held pair, the still one, or one nobody holds
			checkBelief(op, append(components, still, "m9")[rng.Intn(len(components)+2)], condition)
		}
	}
	checkRanked(ops)
	checkBelief(ops, still, "imbalance")
	st := f.v.Stats()
	if st.Hits == 0 || st.Stores == 0 || st.Invalidations == 0 {
		t.Fatalf("degenerate run: %+v", st)
	}
}

// TestCoherenceConcurrent hammers the tier from reader goroutines while an
// ingest goroutine delivers reports and heartbeats and, under the wall clock,
// steps it. A mid-flight cached/fresh comparison would race ingest, so readers
// use the Epoch guard: two hits with the same non-zero Epoch bracket an
// interval with no invalidation and no health observation, so a fresh fuse
// taken between them must match the cached items exactly.
func TestCoherenceConcurrent(t *testing.T) {
	stationCoherenceConcurrent(t, false)
	t.Run("wallclock", func(t *testing.T) { stationCoherenceConcurrent(t, true) })
	t.Run("aggregator", func(t *testing.T) {
		aggregatorCoherenceConcurrent(t, false)
		t.Run("wallclock", func(t *testing.T) { aggregatorCoherenceConcurrent(t, true) })
	})
}

// guarded is one read of the tier in comparable form with its serve metadata;
// ok false means there was nothing to compare.
type guarded struct {
	what   any
	cached bool
	epoch  uint64
	ok     bool
}

// concurrentBackend is what the concurrent run needs of the tier under test
// and of the engine behind it.
type concurrentBackend struct {
	v *Views
	// report and heartbeat are ingest's two observations, stamped at.
	report    func(seq int, machine string, belief float64, at time.Time) error
	heartbeat func(at time.Time) error
	// ranked and block read the tier; freshRanked and freshBlock are the
	// engine's own answers to the same questions, kept nowhere.
	ranked      func() guarded
	freshRanked func() any
	block       func(machine string) guarded
	freshBlock  func(machine string) any
}

func stationCoherenceConcurrent(t *testing.T, wall bool) {
	engine := newTestEngine(t)
	clock, cfg := concurrentHealth(wall)
	if err := engine.ConfigureHealth(cfg); err != nil {
		t.Fatal(err)
	}
	v := openTestViews(t, engine)
	runCoherenceConcurrent(t, clock, concurrentBackend{
		v: v,
		report: func(_ int, machine string, belief float64, at time.Time) error {
			return engine.Deliver(report("dc-1", machine, "imbalance", belief, at))
		},
		heartbeat: func(at time.Time) error {
			return engine.ObserveHeartbeat(&proto.Heartbeat{DCID: "dc-hb", SentAt: at, Incarnation: 1})
		},
		ranked: func() guarded {
			rv := v.Ranked()
			return guarded{rv.Items(), rv.Cached, rv.Epoch, true}
		},
		freshRanked: func() any { return engine.PrioritizedList() },
		block: func(machine string) guarded {
			bv, err := v.Belief(machine, "imbalance")
			return guarded{stripBelief(bv), bv.Cached, bv.Epoch, err == nil}
		},
		freshBlock: func(machine string) any {
			bv, _ := freshBelief(v, machine, "imbalance")
			return bv
		},
	})
}

// aggregatorCoherenceConcurrent is the run on the aggregator backend:
// summaries from two shards and the heartbeats of a third arrive while readers
// Epoch-guard the global ranking and single blocks against the aggregator's
// fresh reads.
func aggregatorCoherenceConcurrent(t *testing.T, wall bool) {
	clock, cfg := concurrentHealth(wall)
	a, err := shard.NewAggregator(shard.AggregatorConfig{Health: cfg})
	if err != nil {
		t.Fatal(err)
	}
	f := openFleetAPI(t, a)
	runCoherenceConcurrent(t, clock, concurrentBackend{
		v: f.v,
		report: func(seq int, machine string, belief float64, at time.Time) error {
			s := testSummary(fmt.Sprintf("shard-%d", seq%2+1), machine, "imbalance", belief, at)
			return a.DeliverSummary(s, s.ShardID, 1, uint64(seq+1))
		},
		heartbeat: func(at time.Time) error {
			return a.ObserveHeartbeat(&proto.Heartbeat{DCID: "shard-hb", SentAt: at, Incarnation: 1})
		},
		ranked: func() guarded {
			rv := f.v.Ranked()
			return guarded{globalItems(rv), rv.Cached, rv.Epoch, true}
		},
		freshRanked: func() any { return a.GlobalRanked() },
		block: func(machine string) guarded {
			s := f.v.block(blockKey{machine, "bearing"})
			if len(s.mat.rows) != 1 {
				return guarded{}
			}
			return guarded{s.mat.rows[0].item, s.cached, s.epoch, true}
		},
		freshBlock: func(machine string) any {
			it, _ := a.GlobalBelief(machine, "imbalance")
			return it
		},
	})
}

// runCoherenceConcurrent is the run itself. Besides the Epoch-guard readers,
// a few watch subscriptions stay open for all of it and drain slowly — each
// notice is answered with a read, as a console would — so every write fans out
// to buffers that overflow: drops are counted and nothing ever blocks ingest.
// Once ingest has stopped and one read has settled what it left, the tier is
// all hits: nothing changes, so nothing is fused.
func runCoherenceConcurrent(t *testing.T, clock *sharedClock, b concurrentBackend) {
	const (
		readers    = 8
		watchers   = 3
		deliveries = 300
		reads      = 400
	)
	var (
		wg, watching sync.WaitGroup
		checks       atomic.Uint64
		written      atomic.Uint64
		violated     atomic.Value // first violation message
	)
	stop := make(chan struct{})

	subs := make([]*Subscription, watchers)
	for i := range subs {
		sub := b.v.Watch("", 1)
		subs[i] = sub
		watching.Add(1)
		go func() {
			defer watching.Done()
			for range sub.C {
				b.ranked()
			}
		}()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		rng := rand.New(rand.NewSource(42))
		now := base
		for i := 0; i < deliveries; i++ {
			now = now.Add(time.Duration(rng.Intn(10)+1) * time.Minute)
			if clock != nil {
				clock.set(now)
			}
			if rng.Intn(5) == 0 {
				_ = b.heartbeat(now)
				continue
			}
			if err := b.report(i, fmt.Sprintf("m%d", rng.Intn(3)+1), 0.2+0.7*rng.Float64(), now); err != nil {
				violated.CompareAndSwap(nil, fmt.Sprintf("deliver: %v", err))
				return
			}
			written.Add(1)
		}
	}()

	// guard is one Epoch-guarded check: conclusive only when both reads are
	// hits of one epoch.
	guard := func(w, i int, what string, read func() guarded, fresh func() any) bool {
		first := read()
		if !first.ok || !first.cached || first.epoch == 0 {
			return true
		}
		want := fresh()
		second := read()
		if !second.ok || !second.cached || second.epoch != first.epoch {
			return true // something changed mid-check: inconclusive
		}
		checks.Add(1)
		if !reflect.DeepEqual(first.what, want) {
			violated.CompareAndSwap(nil, fmt.Sprintf(
				"reader %d check %d: cached %s != fresh read inside a stable epoch\ncached: %+v\n fresh: %+v",
				w, i, what, first.what, want))
			return false
		}
		return true
	}
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < reads; i++ {
				if i%2 == 1 { // the same guard on one pair's block
					machine := fmt.Sprintf("m%d", rng.Intn(3)+1)
					if !guard(w, i, "block", func() guarded { return b.block(machine) }, func() any { return b.freshBlock(machine) }) {
						return
					}
					continue
				}
				if !guard(w, i, "ranking", b.ranked, b.freshRanked) {
					return
				}
				if rng.Intn(8) == 0 {
					select {
					case <-stop:
						return
					default:
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, sub := range subs {
		sub.Close()
	}
	watching.Wait()

	if msg := violated.Load(); msg != nil {
		t.Fatal(msg)
	}
	if checks.Load() == 0 {
		t.Fatal("no conclusive epoch-guarded checks ran — guard too strict or cache never hit")
	}
	st := b.v.Stats()
	t.Logf("%d conclusive checks; %+v", checks.Load(), st)
	if st.Watchers != 0 || st.Notices+st.NoticeDrops != watchers*written.Load() {
		t.Fatalf("%d writes under %d watchers: %d notices + %d drops, %d still subscribed",
			written.Load(), watchers, st.Notices, st.NoticeDrops, st.Watchers)
	}

	b.ranked() // settles what the last write left
	st = b.v.Stats()
	for i := 0; i < 50; i++ {
		if r := b.ranked(); !r.cached || !reflect.DeepEqual(r.what, b.freshRanked()) {
			t.Fatalf("quiescent ranking read %d: %+v", i, r)
		}
		if r := b.block(fmt.Sprintf("m%d", i%3+1)); !r.ok || !r.cached {
			t.Fatalf("quiescent block read %d: %+v", i, r)
		}
	}
	if after := b.v.Stats(); after.Hits-st.Hits != 100 || after.Stores != st.Stores {
		t.Fatalf("100 reads of a quiescent tier: %d hits, %d stores", after.Hits-st.Hits, after.Stores-st.Stores)
	}
}

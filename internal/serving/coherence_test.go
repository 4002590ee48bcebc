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
// Both run on both backends: a station's PDME, and a fleet's aggregator.

func stripBelief(bv BeliefView) BeliefView {
	bv.Gen, bv.Cached, bv.Epoch = 0, false, 0
	return bv
}

// freshBelief recomputes a pair's view without touching the cache — the
// reference value hits are compared against.
func freshBelief(v *Views, component, condition string) (BeliefView, error) {
	cs, vec, err := v.engine.ConditionSnapshot(component, condition)
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
		Prognostic:   vec,
	}, nil
}

func TestCoherenceProperty(t *testing.T) {
	const ops = 400
	components := []string{"m1", "m2", "m3"}
	conditions := []string{"inner race fault", "outer race fault", "imbalance"}
	dcs := []string{"dc-1", "dc-2", "dc-3"}
	// still is a fourth machine, reported once by a PDME-resident source (no
	// DC behind it, so never discounted) and never again: whatever the other
	// machines and the DCs do, its block must keep hitting.
	const still = "m4"

	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			engine := newTestEngine(t)
			// Short freshness window so watermark advances push evidence into
			// the degraded band and the discounted fields actually vary.
			if err := engine.ConfigureHealth(health.Config{
				FreshFor:         30 * time.Minute,
				StalenessHorizon: 4 * time.Hour,
			}); err != nil {
				t.Fatal(err)
			}
			v := openTestViews(t, engine)
			handler := NewHandler(v)
			now := base
			deliver(t, engine, report("", still, "imbalance", 0.6, now))
			if _, err := v.Belief(still, "imbalance"); err != nil {
				t.Fatal(err)
			}

			// observed counts deliveries and heartbeats. Two hits with the same
			// non-zero Epoch must bracket none of either, for the ranking and
			// for each pair, or the Epoch-guarded checkers would trust a fresh
			// fuse taken across an observation (silent-then-alive restores the
			// factors a block was fused under: an ABA on factors alone).
			type seen struct{ epoch, observed uint64 }
			var observed uint64
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
				now = now.Add(time.Duration(rng.Intn(20)+1) * time.Minute)
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
				case 2: // heartbeat (advances the event-time watermark)
					heartbeat(dcs[rng.Intn(len(dcs))])
				case 3: // a DC reports, falls silent and comes back between reads
					dc := rng.Intn(len(dcs))
					deliver(t, engine, report(dcs[dc], components[rng.Intn(len(components))], "imbalance", 0.5, now))
					observed++
					v.Ranked() // materialize under the fresh, alive factors
					now = now.Add(20 * time.Minute)
					heartbeat(dcs[(dc+1)%len(dcs)]) // the watermark leaves dc behind: silent
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
		})
	}
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("aggregator/seed=%d", seed), func(t *testing.T) { aggregatorCoherenceProperty(t, seed) })
	}
}

// aggregatorCoherenceProperty is TestCoherenceProperty's schedule on the
// aggregator backend: summaries from three shards — fresh ones, stale ones,
// replays, same-time hand-offs between shards, a failure-group change —
// shard heartbeats, and event-time jumps that put shards on the age ramp and
// drive them silent and back. Every read is compared against the
// aggregator's fresh answer at that instant, every body against the
// reference encoder.
func aggregatorCoherenceProperty(t *testing.T, seed int64) {
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
	a, err := shard.NewAggregator(shard.AggregatorConfig{Health: health.Config{
		FreshFor:         30 * time.Minute,
		StalenessHorizon: 4 * time.Hour,
	}})
	if err != nil {
		t.Fatal(err)
	}
	f := fleetAPI{open(aggregatorSource{a}, Options{}), a}
	handler := f.handler()
	now := base

	type seen struct{ epoch, observed uint64 }
	var observed, seq uint64
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
		now = now.Add(time.Duration(rng.Intn(20)+1) * time.Minute)
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
		case 7: // heartbeat (advances the event-time watermark)
			heartbeat(shards[rng.Intn(len(shards))])
		case 8: // event time jumps: everybody else's evidence is on the age ramp, or past it
			now = now.Add(time.Duration(rng.Intn(150)+30) * time.Minute)
			heartbeat(shards[rng.Intn(len(shards))])
		case 9: // a shard reports, falls silent and comes back between reads
			sh := rng.Intn(len(shards))
			deliver(summarise(shards[sh], component, "imbalance", now))
			f.v.Ranked() // materialize under the fresh, alive factors
			now = now.Add(20 * time.Minute)
			heartbeat(shards[(sh+1)%len(shards)]) // the watermark leaves sh behind: silent
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
// ingest goroutine delivers reports and heartbeats. A mid-flight cached/fresh
// comparison would race ingest, so readers use the Epoch guard: two hits with
// the same non-zero Epoch bracket an interval with no invalidation and no
// health observation, so a fresh fuse taken between them must match the
// cached items exactly.
func TestCoherenceConcurrent(t *testing.T) {
	engine := newTestEngine(t)
	if err := engine.ConfigureHealth(health.Config{
		FreshFor:         30 * time.Minute,
		StalenessHorizon: 4 * time.Hour,
	}); err != nil {
		t.Fatal(err)
	}
	v := openTestViews(t, engine)

	const (
		readers    = 8
		deliveries = 300
		reads      = 400
	)
	var (
		wg       sync.WaitGroup
		checks   atomic.Uint64
		violated atomic.Value // first violation message
	)
	stop := make(chan struct{})

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		rng := rand.New(rand.NewSource(42))
		now := base
		for i := 0; i < deliveries; i++ {
			now = now.Add(time.Duration(rng.Intn(10)+1) * time.Minute)
			if rng.Intn(5) == 0 {
				_ = engine.ObserveHeartbeat(&proto.Heartbeat{DCID: "dc-hb", SentAt: now, Incarnation: 1})
				continue
			}
			r := report("dc-1", fmt.Sprintf("m%d", rng.Intn(3)+1), "imbalance", 0.2+0.7*rng.Float64(), now)
			if err := engine.Deliver(r); err != nil {
				violated.CompareAndSwap(nil, fmt.Sprintf("deliver: %v", err))
				return
			}
		}
	}()

	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < reads; i++ {
				if i%2 == 1 { // the same guard on one pair's block
					component := fmt.Sprintf("m%d", rng.Intn(3)+1)
					first, err := v.Belief(component, "imbalance")
					if err != nil || !first.Cached || first.Epoch == 0 {
						continue
					}
					fresh, err := freshBelief(v, component, "imbalance")
					second, err2 := v.Belief(component, "imbalance")
					if err != nil || err2 != nil || !second.Cached || second.Epoch != first.Epoch {
						continue
					}
					checks.Add(1)
					if !reflect.DeepEqual(stripBelief(first), fresh) {
						violated.CompareAndSwap(nil, fmt.Sprintf(
							"reader %d check %d: cached belief != fresh fuse inside a stable epoch\ncached: %+v\n fresh: %+v",
							w, i, first, fresh))
						return
					}
					continue
				}
				first := v.Ranked()
				if !first.Cached || first.Epoch == 0 {
					continue
				}
				fresh := engine.PrioritizedList()
				second := v.Ranked()
				if !second.Cached || second.Epoch != first.Epoch {
					continue // something changed mid-check: inconclusive
				}
				checks.Add(1)
				if !reflect.DeepEqual(first.Items(), fresh) {
					violated.CompareAndSwap(nil, fmt.Sprintf(
						"reader %d check %d: cached items != fresh fuse inside a stable epoch\ncached: %+v\n fresh: %+v",
						w, i, first.Items(), fresh))
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

	if msg := violated.Load(); msg != nil {
		t.Fatal(msg)
	}
	if checks.Load() == 0 {
		t.Fatal("no conclusive epoch-guarded checks ran — guard too strict or cache never hit")
	}
	t.Run("aggregator", aggregatorCoherenceConcurrent)
}

// aggregatorCoherenceConcurrent is TestCoherenceConcurrent on the aggregator
// backend: summaries from two shards and the heartbeats of a third arrive
// while readers Epoch-guard the global ranking and single blocks against the
// aggregator's fresh reads.
func aggregatorCoherenceConcurrent(t *testing.T) {
	a, err := shard.NewAggregator(shard.AggregatorConfig{Health: health.Config{
		FreshFor:         30 * time.Minute,
		StalenessHorizon: 4 * time.Hour,
	}})
	if err != nil {
		t.Fatal(err)
	}
	f := fleetAPI{open(aggregatorSource{a}, Options{}), a}

	const (
		readers    = 8
		deliveries = 300
		reads      = 400
	)
	var (
		wg       sync.WaitGroup
		checks   atomic.Uint64
		violated atomic.Value // first violation message
	)
	stop := make(chan struct{})

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		rng := rand.New(rand.NewSource(42))
		now := base
		for i := 0; i < deliveries; i++ {
			now = now.Add(time.Duration(rng.Intn(10)+1) * time.Minute)
			if rng.Intn(5) == 0 {
				_ = a.ObserveHeartbeat(&proto.Heartbeat{DCID: "shard-hb", SentAt: now, Incarnation: 1})
				continue
			}
			s := testSummary(fmt.Sprintf("shard-%d", rng.Intn(2)+1), fmt.Sprintf("m%d", rng.Intn(3)+1), "imbalance", 0.2+0.7*rng.Float64(), now)
			if err := a.DeliverSummary(s, s.ShardID, 1, uint64(i+1)); err != nil {
				violated.CompareAndSwap(nil, fmt.Sprintf("deliver: %v", err))
				return
			}
		}
	}()

	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < reads; i++ {
				if i%2 == 1 { // the same guard on one pair's block
					key := blockKey{fmt.Sprintf("m%d", rng.Intn(3)+1), "bearing"}
					first := f.v.block(key)
					if !first.cached || first.epoch == 0 || len(first.mat.rows) != 1 {
						continue
					}
					fresh, _ := a.GlobalBelief(key.component, "imbalance")
					second := f.v.block(key)
					if !second.cached || second.epoch != first.epoch {
						continue
					}
					checks.Add(1)
					if cached := first.mat.rows[0].item; !reflect.DeepEqual(cached, any(fresh)) {
						violated.CompareAndSwap(nil, fmt.Sprintf(
							"reader %d check %d: cached block != fresh read inside a stable epoch\ncached: %+v\n fresh: %+v",
							w, i, cached, fresh))
						return
					}
					continue
				}
				first := f.v.Ranked()
				if !first.Cached || first.Epoch == 0 {
					continue
				}
				fresh := a.GlobalRanked()
				second := f.v.Ranked()
				if !second.Cached || second.Epoch != first.Epoch {
					continue // something changed mid-check: inconclusive
				}
				checks.Add(1)
				if !reflect.DeepEqual(globalItems(first), fresh) {
					violated.CompareAndSwap(nil, fmt.Sprintf(
						"reader %d check %d: cached items != fresh read inside a stable epoch\ncached: %+v\n fresh: %+v",
						w, i, globalItems(first), fresh))
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

	if msg := violated.Load(); msg != nil {
		t.Fatal(msg)
	}
	if checks.Load() == 0 {
		t.Fatal("no conclusive epoch-guarded checks ran — guard too strict or cache never hit")
	}
}

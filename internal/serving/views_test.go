package serving

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/fusion"
	"repro/internal/health"
	"repro/internal/oosm"
	"repro/internal/pdme"
	"repro/internal/proto"
	"repro/internal/relstore"
	"repro/internal/shard"
)

// base is the fixture's virtual epoch (the paper's PDME first ran 1998-08).
var base = time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC)

func testGroups() fusion.Groups {
	return fusion.Groups{
		"bearing": {"inner race fault", "outer race fault"},
		"motor":   {"imbalance"},
	}
}

func newTestEngine(t *testing.T) *pdme.PDME {
	t.Helper()
	model, err := oosm.NewModel(relstore.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	engine, err := pdme.New(model, testGroups())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(engine.Close)
	return engine
}

func openTestViews(t *testing.T, engine *pdme.PDME) *Views {
	t.Helper()
	v, err := Open(engine, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(v.Close)
	return v
}

// openFleetAPI opens the read tier over an aggregator, as AggregatorHandler
// does, and keeps the aggregator beside it.
func openFleetAPI(t testing.TB, a *shard.Aggregator) fleetAPI {
	t.Helper()
	v, err := open(aggregatorSource{a})
	if err != nil {
		t.Fatal(err)
	}
	return fleetAPI{v, a}
}

func report(dc, component, condition string, belief float64, at time.Time) *proto.Report {
	return &proto.Report{
		DCID:               dc,
		KnowledgeSourceID:  "ks-" + dc,
		SensedObjectID:     component,
		MachineConditionID: condition,
		Severity:           belief,
		Belief:             belief,
		Timestamp:          at,
	}
}

func deliver(t *testing.T, engine *pdme.PDME, r *proto.Report) {
	t.Helper()
	if err := engine.Deliver(r); err != nil {
		t.Fatalf("deliver: %v", err)
	}
}

func TestRankedCacheHitAndInvalidation(t *testing.T) {
	engine := newTestEngine(t)
	v := openTestViews(t, engine)
	deliver(t, engine, report("dc-1", "m1", "imbalance", 0.8, base))

	first := v.Ranked()
	if first.Cached {
		t.Fatal("first read should be a miss")
	}
	second := v.Ranked()
	if !second.Cached {
		t.Fatal("second read should hit the materialized view")
	}
	if len(second.Items()) != 1 || second.Items()[0].Condition != "imbalance" {
		t.Fatalf("unexpected items: %+v", second.Items())
	}
	// A delivery invalidates: the next read recomputes, then re-materializes.
	deliver(t, engine, report("dc-1", "m1", "imbalance", 0.8, base.Add(time.Minute)))
	third := v.Ranked()
	if third.Cached {
		t.Fatal("read after delivery should recompute")
	}
	if !v.Ranked().Cached {
		t.Fatal("read after recompute should hit again")
	}
	st := v.Stats()
	if st.Hits != 2 || st.Invalidations == 0 || st.Stores == 0 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

func TestBeliefGroupInvalidation(t *testing.T) {
	engine := newTestEngine(t)
	v := openTestViews(t, engine)
	deliver(t, engine, report("dc-1", "m1", "inner race fault", 0.7, base))

	inner, err := v.Belief("m1", "inner race fault")
	if err != nil {
		t.Fatal(err)
	}
	if inner.Cached {
		t.Fatal("first belief read should miss")
	}
	outer, err := v.Belief("m1", "outer race fault")
	if err != nil {
		t.Fatal(err)
	}
	if outer.Group != "bearing" || outer.Reports != 0 {
		t.Fatalf("unexpected outer view: %+v", outer)
	}
	// Evidence for the sibling condition reweights the whole group: both
	// cached views must be invalidated.
	deliver(t, engine, report("dc-1", "m1", "outer race fault", 0.6, base.Add(time.Minute)))
	inner2, err := v.Belief("m1", "inner race fault")
	if err != nil {
		t.Fatal(err)
	}
	if inner2.Cached {
		t.Fatal("sibling delivery must invalidate the cached inner view")
	}
	if inner2.Belief == inner.Belief {
		t.Fatal("conflicting sibling evidence should have reweighted inner belief")
	}
	// Invalidation granularity is the block — one failure group on one
	// machine: a delivery for a different machine leaves m1's bearing block
	// exactly as it was, and the next read of it is a hit.
	if _, err := v.Belief("m1", "inner race fault"); err != nil {
		t.Fatal(err)
	}
	deliver(t, engine, report("dc-1", "m2", "imbalance", 0.5, base.Add(2*time.Minute)))
	inner3, err := v.Belief("m1", "inner race fault")
	if err != nil {
		t.Fatal(err)
	}
	if !inner3.Cached {
		t.Fatal("a delivery for another machine must not invalidate m1's bearing block")
	}
	if inner3.Gen != inner2.Gen {
		t.Fatalf("group-unrelated delivery bumped the bearing generation: %d -> %d", inner2.Gen, inner3.Gen)
	}
	if inner3.Belief != inner2.Belief {
		t.Fatal("unrelated delivery must not change the bearing belief")
	}
	// Nor does a delivery for another group on the same machine.
	deliver(t, engine, report("dc-1", "m1", "imbalance", 0.5, base.Add(3*time.Minute)))
	if bv, err := v.Belief("m1", "inner race fault"); err != nil || !bv.Cached {
		t.Fatalf("a delivery for m1's motor group must not invalidate its bearing block (cached=%v, err %v)", bv.Cached, err)
	}
	// A sibling-condition delivery still does.
	deliver(t, engine, report("dc-1", "m1", "outer race fault", 0.6, base.Add(4*time.Minute)))
	if bv, err := v.Belief("m1", "inner race fault"); err != nil || bv.Cached {
		t.Fatalf("sibling delivery must invalidate the bearing block (cached=%v, err %v)", bv.Cached, err)
	}
}

func TestBeliefUnknownCondition(t *testing.T) {
	engine := newTestEngine(t)
	v := openTestViews(t, engine)
	if _, err := v.Belief("m1", "no such condition"); err == nil {
		t.Fatal("expected error for condition outside every group")
	}
	if _, err := v.Belief("", "imbalance"); err == nil {
		t.Fatal("expected error for empty component")
	}
}

func TestHeartbeatInvalidatesDiscountedViews(t *testing.T) {
	engine := newTestEngine(t)
	if err := engine.ConfigureHealth(health.Config{
		FreshFor:         time.Hour,
		StalenessHorizon: 10 * time.Hour,
	}); err != nil {
		t.Fatal(err)
	}
	v := openTestViews(t, engine)
	deliver(t, engine, report("dc-1", "m1", "imbalance", 0.9, base))
	fresh := v.Ranked()
	if got := v.Ranked(); !got.Cached || got.Items()[0].Degraded {
		t.Fatalf("expected cached undegraded view, got %+v", got)
	}
	// A heartbeat from another DC advances the event-time watermark far past
	// dc-1's report: its evidence is now stale, so the cached view — computed
	// under the old registry version — must not be served.
	if err := engine.ObserveHeartbeat(&proto.Heartbeat{
		DCID: "dc-2", SentAt: base.Add(8 * time.Hour), Incarnation: 1,
	}); err != nil {
		t.Fatal(err)
	}
	after := v.Ranked()
	if after.Cached {
		t.Fatal("heartbeat must invalidate health-discounted views")
	}
	if !after.Items()[0].Degraded || after.Items()[0].Reliability >= fresh.Items()[0].Reliability {
		t.Fatalf("expected degraded view after watermark advance, got %+v", after.Items()[0])
	}
	if after.Items()[0].Belief >= fresh.Items()[0].Belief {
		t.Fatalf("stale evidence should have drained belief: %g -> %g",
			fresh.Items()[0].Belief, after.Items()[0].Belief)
	}
}

// TestDiscountedTierFusesOnlyWhatChanged runs the tier as pdmed runs it —
// discounting engaged, so every report moves the registry — and counts fuses:
// a report re-fuses its own block, an observation that changes nobody's
// factors re-fuses nothing, and every other block is served as kept.
func TestDiscountedTierFusesOnlyWhatChanged(t *testing.T) {
	engine := newTestEngine(t)
	if err := engine.ConfigureHealth(health.Config{}); err != nil {
		t.Fatal(err)
	}
	v := openTestViews(t, engine)
	machines := []string{"m1", "m2", "m3", "m4"}
	for i, m := range machines {
		deliver(t, engine, report("dc-1", m, "imbalance", 0.5+0.1*float64(i), base))
	}
	v.Ranked()
	if !v.Ranked().Cached {
		t.Fatal("ranking not materialized")
	}

	stores := v.Stats().Stores
	deliver(t, engine, report("dc-1", "m1", "imbalance", 0.9, base.Add(time.Minute)))
	if rv := v.Ranked(); rv.Cached || !reflect.DeepEqual(rv.Items(), engine.PrioritizedList()) {
		t.Fatalf("read after a report must re-fuse its block and match a fresh list: %+v", rv)
	}
	if got := v.Stats().Stores - stores; got != 1 {
		t.Fatalf("a report for one machine fused %d blocks, want 1", got)
	}
	for _, m := range machines[1:] {
		if bv, err := v.Belief(m, "imbalance"); err != nil || !bv.Cached {
			t.Fatalf("%s was not reported about, its block must hit (err %v, view %+v)", m, err, bv)
		}
	}

	// A heartbeat inside everyone's freshness window moves the registry and
	// nobody's factors: the ranking is asked again and served as kept, under
	// a new epoch.
	before := v.Ranked()
	if err := engine.ObserveHeartbeat(&proto.Heartbeat{DCID: "dc-1", SentAt: base.Add(2 * time.Minute), Incarnation: 1}); err != nil {
		t.Fatal(err)
	}
	after := v.Ranked()
	if !before.Cached || !after.Cached || after.Epoch == 0 || after.Epoch == before.Epoch {
		t.Fatalf("unchanged factors must be a hit under a new epoch: before %+v after %+v", before, after)
	}
	if got := v.Stats().Stores - stores; got != 1 {
		t.Fatalf("an observation that changed no factor fused %d more blocks", got-1)
	}

	// The wall clock is one more observation source, a quantum at a time: the
	// same rule as pdmed -health-wallclock runs it. m2's evidence is two hours
	// old, on the age ramp, so its rows change when the clock moves; m1's is
	// fresh and do not.
	t.Run("wallclock", func(t *testing.T) {
		engine := newTestEngine(t)
		now := base
		if err := engine.ConfigureHealth(health.Config{Clock: func() time.Time { return now }}); err != nil {
			t.Fatal(err)
		}
		v := openTestViews(t, engine)
		deliver(t, engine, report("dc-1", "m1", "imbalance", 0.8, now))
		deliver(t, engine, report("dc-2", "m2", "imbalance", 0.6, now.Add(-2*time.Hour)))
		v.Ranked()
		now = now.Add(900 * time.Millisecond) // inside the quantum: nothing has been observed
		before := v.Ranked()
		if !before.Cached || before.Epoch == 0 {
			t.Fatalf("a clock that crossed no quantum must leave the ranking a hit: %+v", before)
		}
		stores := v.Stats().Stores
		now = now.Add(54 * time.Second)
		rv := v.Ranked()
		if rv.Cached || !reflect.DeepEqual(rv.Items(), engine.PrioritizedList()) {
			t.Fatalf("a moved clock must re-fuse the block on the age ramp and match a fresh list: %+v", rv)
		}
		if got := v.Stats().Stores - stores; got != 1 {
			t.Fatalf("moving the clock 54 s fused %d blocks, want m2's alone", got)
		}
		if bv, err := v.Belief("m1", "imbalance"); err != nil || !bv.Cached {
			t.Fatalf("m1's evidence is fresh on either side of the move, its block must hit (err %v, view %+v)", err, bv)
		}
		if after := v.Ranked(); !after.Cached || after.Epoch == 0 || after.Epoch == before.Epoch {
			t.Fatalf("the ranking must hit again, under a new epoch: before %+v after %+v", before, after)
		}
	})

	// The aggregator's tier takes no option and needs none: a wall-clocked
	// fleet that does not change is served as kept, and a clock that moves the
	// shard's state and discount re-reads what that changed.
	t.Run("aggregator-wallclock", func(t *testing.T) {
		now := base
		a, err := shard.NewAggregator(shard.AggregatorConfig{Health: health.Config{Clock: func() time.Time { return now }}})
		if err != nil {
			t.Fatal(err)
		}
		f := openFleetAPI(t, a)
		for i, m := range machines[:3] {
			s := testSummary("shard-1", m, "imbalance", 0.5+0.1*float64(i), now)
			if err := a.DeliverSummary(s, s.ShardID, 1, uint64(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		f.v.Ranked()
		before := f.v.Stats()
		for i := 0; i < 10; i++ {
			if rv := f.v.Ranked(); !rv.Cached || !reflect.DeepEqual(globalItems(rv), a.GlobalRanked()) {
				t.Fatalf("read %d of an unchanged fleet: %+v", i, rv)
			}
		}
		if after := f.v.Stats(); after.Hits-before.Hits != 10 || after.Misses != before.Misses || after.Stores != before.Stores {
			t.Fatalf("ten reads of an unchanged fleet must be ten hits and read no block: before %+v after %+v", before, after)
		}
		now = now.Add(time.Hour) // shard-1 has gone silent
		rv := f.v.Ranked()
		if rv.Cached || !reflect.DeepEqual(globalItems(rv), a.GlobalRanked()) {
			t.Fatalf("an hour later the rows must be re-read and match a fresh list: %+v", rv)
		}
		if got := f.v.Stats().Stores - before.Stores; got != 3 {
			t.Fatalf("the silent shard's three blocks changed, %d were re-read", got)
		}
	})
}

func TestTrendViewProjectsThreshold(t *testing.T) {
	engine := newTestEngine(t)
	v := openTestViews(t, engine)
	for i := 0; i < 5; i++ {
		sev := 0.2 + 0.1*float64(i)
		r := report("dc-1", "m1", "imbalance", 0.8, base.Add(time.Duration(i)*24*time.Hour))
		r.Severity = sev
		deliver(t, engine, r)
	}
	tv := v.Trend("m1", "imbalance", 0.75)
	if len(tv.History) != 5 {
		t.Fatalf("expected 5 history points, got %d", len(tv.History))
	}
	if tv.Projection == nil {
		t.Fatalf("expected a projection, got error %q", tv.ProjectionError)
	}
	if len(tv.Rollups) == 0 {
		t.Fatal("expected rollup envelope buckets")
	}
	// A pair with no reports yields an empty, projection-less view.
	empty := v.Trend("m1", "outer race fault", 0.75)
	if len(empty.History) != 0 || empty.Projection != nil || empty.ProjectionError == "" {
		t.Fatalf("unexpected empty-pair trend view: %+v", empty)
	}
}

func TestWatchNoticesAndSlowConsumerDrops(t *testing.T) {
	engine := newTestEngine(t)
	v := openTestViews(t, engine)
	all := v.Watch("", 4)
	only := v.Watch("m2", 4)
	defer all.Close()
	defer only.Close()

	deliver(t, engine, report("dc-1", "m1", "imbalance", 0.8, base))
	n := <-all.C
	if n.Component != "m1" || n.Condition != "imbalance" || n.Seq != 1 {
		t.Fatalf("unexpected notice: %+v", n)
	}
	select {
	case n := <-only.C:
		t.Fatalf("m2 watcher should not see m1 traffic, got %+v", n)
	default:
	}
	deliver(t, engine, report("dc-1", "m2", "imbalance", 0.5, base.Add(time.Minute)))
	if n := <-only.C; n.Component != "m2" {
		t.Fatalf("unexpected notice: %+v", n)
	}
	if n := <-all.C; n.Component != "m2" || n.Seq != 2 {
		t.Fatalf("all-watcher should see m2 traffic too, got %+v", n)
	}

	// Overflow the all-watcher's drained 4-slot buffer:
	// deliveries never block, the excess is dropped and counted.
	for i := 0; i < 8; i++ {
		deliver(t, engine, report("dc-1", "m1", "imbalance", 0.8, base.Add(time.Duration(i+2)*time.Minute)))
	}
	if got := all.Dropped(); got != 4 {
		t.Fatalf("expected 4 dropped notices, got %d", got)
	}
	st := v.Stats()
	if st.NoticeDrops != 4 || st.Watchers != 2 {
		t.Fatalf("unexpected stats: %+v", st)
	}
	// Closing stops delivery (no drop counting either); Close is idempotent.
	all.Close()
	all.Close()
	deliver(t, engine, report("dc-1", "m2", "imbalance", 0.5, base.Add(time.Hour)))
	if n, ok := <-only.C; !ok || n.Component != "m2" {
		t.Fatalf("m2 watcher should outlive the closed all-watcher, got %+v (ok=%v)", n, ok)
	}
	if got := all.Dropped(); got != 4 {
		t.Fatalf("closed subscription must stop counting drops, got %d", got)
	}
}

func TestCloseDetachesFromEngine(t *testing.T) {
	engine := newTestEngine(t)
	v := openTestViews(t, engine)
	sub := v.Watch("", 1)
	v.Close()
	if _, ok := <-sub.C; ok {
		t.Fatal("Close must close subscriptions")
	}
	// Deliveries after Close must not panic or notify.
	deliver(t, engine, report("dc-1", "m1", "imbalance", 0.8, base))
	if got := v.Ranked(); got.Cached {
		t.Fatal("closed tier must not serve cached views")
	} else if want := engine.PrioritizedList(); !reflect.DeepEqual(got.Items(), want) {
		t.Fatalf("closed tier served %+v, want the engine's list %+v", got.Items(), want)
	}
}

// TestModelPostedReportInvalidates: a report posted straight into the ship
// model (§5.1 step 1, no Deliver) is fused by the same body as a delivered
// one — inside a write window, which must invalidate the pair's block, and
// counted as liveness evidence for its DC.
func TestModelPostedReportInvalidates(t *testing.T) {
	engine := newTestEngine(t)
	v := openTestViews(t, engine)
	deliver(t, engine, report("dc-1", "m1", "imbalance", 0.6, base))
	deliver(t, engine, report("dc-1", "m2", "imbalance", 0.6, base))
	before, err := v.Belief("m1", "imbalance")
	if err != nil {
		t.Fatal(err)
	}
	v.Ranked()
	if bv, _ := v.Belief("m1", "imbalance"); !bv.Cached || !v.Ranked().Cached {
		t.Fatal("views not materialized")
	}
	// Each post is a knowledge source of its own, so each one reinforces the
	// pair's belief.
	posts := 0
	post := func(at time.Time) {
		t.Helper()
		posts++
		if _, err := engine.Model().Create(pdme.ReportClass, &proto.Report{
			DCID: "dc-1", KnowledgeSourceID: fmt.Sprintf("ks-post-%d", posts), SensedObjectID: "m1", MachineConditionID: "imbalance",
			Severity: 0.5, Belief: 0.7, Timestamp: at,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 3; i++ {
		post(base.Add(time.Duration(i) * time.Minute))
		rv := v.Ranked()
		if rv.Cached {
			t.Fatalf("post %d: /ranked served from cache after a report was posted into the model", i)
		}
		if want := engine.PrioritizedList(); !reflect.DeepEqual(rv.Items(), want) {
			t.Fatalf("post %d: ranked view diverged\n got: %+v\nwant: %+v", i, rv.Items(), want)
		}
		// The ranked read re-fused the block; invalidate it again for /belief.
		post(base.Add(time.Duration(i)*time.Minute + time.Second))
		bv, err := v.Belief("m1", "imbalance")
		if err != nil {
			t.Fatal(err)
		}
		if bv.Cached || bv.Reports != 1+2*i || bv.Belief <= before.Belief {
			t.Fatalf("post %d: /belief after a model-posted report: %+v (before: %+v)", i, bv, before)
		}
		if fresh, err := engine.Belief("m1", "imbalance"); err != nil || fresh != bv.Belief {
			t.Fatalf("post %d: /belief = %v, fresh = %v (%v)", i, bv.Belief, fresh, err)
		}
		before = bv
	}
	// Two deliveries and six posts, one window each; the newest post is the
	// newest thing heard from dc-1.
	if got := v.Stats().Invalidations; got != 8 {
		t.Fatalf("%d invalidations after 2 deliveries and 6 model-posted reports, want 8", got)
	}
	newest := base.Add(3*time.Minute + time.Second)
	if h := engine.Health().Snapshot(); len(h) != 1 || h[0].DCID != "dc-1" || !h[0].LastReport.Equal(newest) {
		t.Fatalf("model-posted reports are not liveness evidence for dc-1: %+v, want last report at %v", h, newest)
	}
}

// TestUnreadTierStaysBounded: ingest_durable attaches a tier and never reads
// it. 10 000 deliveries over 8 blocks must leave the dirty set at no more
// than 8 entries, and 10 000 more write windows must not grow the heap.
func TestUnreadTierStaysBounded(t *testing.T) {
	engine := newTestEngine(t)
	v := openTestViews(t, engine)
	machines := []string{"m1", "m2", "m3", "m4"}
	conditions := []string{"inner race fault", "outer race fault", "imbalance"}
	for i := 0; i < 10000; i++ {
		deliver(t, engine, report("dc-1", machines[i%len(machines)], conditions[i%len(conditions)],
			0.5, base.Add(time.Duration(i)*time.Second)))
	}
	v.mu.RLock()
	dirty, blocks := len(v.dirty), len(v.blocks)
	v.mu.RUnlock()
	if blocks != 8 || dirty > 8 {
		t.Fatalf("after 10 000 unread deliveries: %d blocks, %d dirty; want 8, <= 8", blocks, dirty)
	}
	groupOf := func(condition string) string {
		group, err := engine.GroupOf(condition)
		if err != nil {
			t.Fatal(err)
		}
		return group
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 10000; i++ {
		m, c := machines[i%len(machines)], conditions[i%len(conditions)]
		v.BeginMutation(m, groupOf(c), c)
		v.EndMutation(m, groupOf(c), c)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 16<<10 {
		t.Fatalf("10 000 unread write windows grew the heap by %d bytes", grown)
	}

	// The aggregator's tier the same: fleet_e2e's warm-up accepts thousands of
	// summaries before the first read.
	t.Run("aggregator", func(t *testing.T) {
		agg, err := shard.NewAggregator(shard.AggregatorConfig{})
		if err != nil {
			t.Fatal(err)
		}
		f := openFleetAPI(t, agg)
		for i := 0; i < 10000; i++ {
			s := testSummary("shard-1", machines[i%len(machines)], conditions[i%len(conditions)], 0.5, base.Add(time.Duration(i)*time.Second))
			s.Group = groupOf(s.Condition)
			if err := agg.DeliverSummary(s, s.ShardID, 1, uint64(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		f.v.mu.RLock()
		dirty, blocks := len(f.v.dirty), len(f.v.blocks)
		f.v.mu.RUnlock()
		if agg.Accepted() != 10000 || blocks != 8 || dirty > 8 {
			t.Fatalf("after %d accepted, unread summaries: %d blocks, %d dirty; want 10 000, 8, <= 8", agg.Accepted(), blocks, dirty)
		}
	})
}

// reusableWriter is an http.ResponseWriter that keeps its buffer between
// responses, like a server's connection writer.
type reusableWriter struct {
	header http.Header
	body   bytes.Buffer
}

func (w *reusableWriter) Header() http.Header         { return w.header }
func (w *reusableWriter) WriteHeader(int)             {}
func (w *reusableWriter) Write(b []byte) (int, error) { return w.body.Write(b) }

// TestRankedHitAllocsPerResponseNotPerRow: a /ranked hit copies the rows'
// cached bytes, so what it allocates is a small constant — the same at 16
// rows and at 768.
func TestRankedHitAllocsPerResponseNotPerRow(t *testing.T) {
	hitAllocs := func(machines int) (allocs float64, rows int) {
		engine := newTestEngine(t)
		v := openTestViews(t, engine)
		for i := 0; i < machines; i++ {
			for _, cond := range []string{"inner race fault", "imbalance"} {
				deliver(t, engine, report("dc-1", fmt.Sprintf("machine-%03d", i), cond, 0.6, base.Add(time.Duration(i)*time.Minute)))
			}
		}
		handler := NewHandler(v)
		req := httptest.NewRequest(http.MethodGet, "/ranked", nil)
		w := &reusableWriter{header: http.Header{}}
		handler.ServeHTTP(w, req) // the miss that materializes, and sizes the buffer
		allocs = testing.AllocsPerRun(50, func() {
			w.body.Reset()
			handler.ServeHTTP(w, req)
		})
		if !bytes.Contains(w.body.Bytes(), []byte(`"cached":true`)) {
			t.Fatalf("measured responses were not hits: %.80s", w.body.Bytes())
		}
		return allocs, len(v.Ranked().rows)
	}
	small, n := hitAllocs(8)
	large, m := hitAllocs(384)
	if n != 16 || m != 768 {
		t.Fatalf("fixtures rank %d and %d rows, want 16 and 768", n, m)
	}
	if small != large || large > 8 {
		t.Fatalf("a /ranked hit allocates %.0f times at %d rows and %.0f at %d; want the same small constant", small, n, large, m)
	}
}

package shard

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/fusion"
	"repro/internal/health"
	"repro/internal/oosm"
	"repro/internal/pdme"
	"repro/internal/proto"
	"repro/internal/relstore"
	"repro/internal/testkit"
)

// base is the fixture's virtual epoch (the paper's PDME first ran 1998-08).
var base = time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC)

func testGroups() fusion.Groups {
	return fusion.Groups{
		"bearing": {"inner race fault", "outer race fault"},
		"motor":   {"imbalance"},
	}
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

func summary(shardID, component, condition string, belief float64, at time.Time) *proto.FusedSummary {
	return &proto.FusedSummary{
		ShardID:      shardID,
		Component:    component,
		Condition:    condition,
		Group:        "bearing",
		Belief:       belief,
		Plausibility: belief + 0.1,
		Unknown:      1 - belief,
		Reports:      1,
		Reliability:  1,
		UpdatedAt:    at,
	}
}

// sinkCounter counts reports per server, thread-safe.
type sinkCounter struct {
	mu sync.Mutex
	n  int
}

func (s *sinkCounter) Deliver(*proto.Report) error {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	return nil
}

func (s *sinkCounter) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

func fastRouterConfig(dcid string, ring *Ring, dir string) RouterConfig {
	return RouterConfig{
		DCID:              dcid,
		Ring:              ring,
		SpoolDir:          dir,
		DialTimeout:       500 * time.Millisecond,
		SendTimeout:       time.Second,
		BackoffMin:        5 * time.Millisecond,
		BackoffMax:        25 * time.Millisecond,
		Seed:              7,
		FailoverThreshold: 2,
	}
}

// TestRouterFailsOverToRingSuccessor: the router's stall detector must
// re-route a DC to exactly the member Ring.Successor names, keep the spool
// across the swap, and deliver every report exactly once.
func TestRouterFailsOverToRingSuccessor(t *testing.T) {
	deadAddr := testkit.FreeAddr(t) // reserved then closed: dials fail fast
	liveSinks := map[string]*sinkCounter{}
	members := []Member{{ID: "shard-1", Addr: deadAddr}}
	for i := 2; i <= 3; i++ {
		id := fmt.Sprintf("shard-%d", i)
		sink := &sinkCounter{}
		srv := proto.NewServer(sink)
		srv.SetDedup(proto.NewDedup(0))
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		liveSinks[id] = sink
		members = append(members, Member{ID: id, Addr: addr})
	}
	// Pick a DC the ring assigns to the dead shard-1.
	var dcid string
	for i := 1; i < 100; i++ {
		k := fmt.Sprintf("dc-%04d", i)
		if r, _ := NewRing(members, []string{k}); r.Assign(k) == "shard-1" {
			dcid = k
			break
		}
	}
	if dcid == "" {
		t.Fatal("no key maps to shard-1")
	}
	ring, err := NewRing(members, []string{dcid})
	if err != nil {
		t.Fatal(err)
	}
	succ, ok := ring.Successor(dcid, map[string]bool{"shard-1": true})
	if !ok {
		t.Fatal("no successor")
	}

	r, err := NewRouter(fastRouterConfig(dcid, ring, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Target() != "shard-1" {
		t.Fatalf("initial target %s, want shard-1", r.Target())
	}
	boot := r.Boot()
	for i := 0; i < 4; i++ {
		if err := r.Deliver(report(dcid, "m", "imbalance", 0.6, base.Add(time.Duration(i)*time.Minute))); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Flush(40, 250*time.Millisecond); err != nil {
		t.Fatalf("flush never drained across failover: %v (target %s)", err, r.Target())
	}
	if got := r.Target(); got != succ {
		t.Fatalf("failed over to %s, ring successor is %s", got, succ)
	}
	if r.Boot() != boot {
		t.Fatalf("boot changed across failover: %d → %d", boot, r.Boot())
	}
	stats := r.Stats()
	if stats.Failovers != 1 {
		t.Fatalf("failovers %d, want 1", stats.Failovers)
	}
	if got := liveSinks[succ].count(); got != 4 {
		t.Fatalf("successor fused %d reports, want 4", got)
	}
	c := r.Counters()
	if c.Acked+c.DedupAcks != 4 || c.CapacityDrops != 0 {
		t.Fatalf("counters %+v: want 4 acks, 0 capacity drops", c)
	}
	if stats.PerShard[succ] != 4 {
		t.Fatalf("per-shard routing counters %v: want 4 on %s", stats.PerShard, succ)
	}
}

// TestRouterUpdateRing: a ring change retargets immediately (no stall
// needed), keeps the spool, and is not a failover.
func TestRouterUpdateRing(t *testing.T) {
	sinks := map[string]*sinkCounter{}
	var members []Member
	for i := 1; i <= 2; i++ {
		id := fmt.Sprintf("shard-%d", i)
		sink := &sinkCounter{}
		srv := proto.NewServer(sink)
		srv.SetDedup(proto.NewDedup(0))
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		sinks[id] = sink
		members = append(members, Member{ID: id, Addr: addr})
	}
	dcid := "dc-0001"
	ring, err := NewRing(members, []string{dcid})
	if err != nil {
		t.Fatal(err)
	}
	first := ring.Assign(dcid)
	spoolDir := t.TempDir()
	r, err := NewRouter(fastRouterConfig(dcid, ring, spoolDir))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Deliver(report(dcid, "m", "imbalance", 0.6, base)); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(10, 250*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	ring2, err := NewRing(members, []string{dcid})
	if err != nil {
		t.Fatal(err)
	}
	moved, err := ring2.Remove(first)
	if err != nil {
		t.Fatal(err)
	}
	if len(moved) != 1 || moved[0] != dcid {
		t.Fatalf("moved %v, want [%s]", moved, dcid)
	}
	if !r.UpdateRing(ring2) {
		t.Fatal("UpdateRing did not retarget")
	}
	second := ring2.Assign(dcid)
	if second == first || r.Target() != second {
		t.Fatalf("target %s, want new owner %s (was %s)", r.Target(), second, first)
	}
	if err := r.Deliver(report(dcid, "m", "imbalance", 0.7, base.Add(time.Hour))); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(10, 250*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if sinks[first].count() != 1 || sinks[second].count() != 1 {
		t.Fatalf("per-shard deliveries: %s=%d %s=%d, want 1 and 1",
			first, sinks[first].count(), second, sinks[second].count())
	}
	stats := r.Stats()
	if stats.Failovers != 0 {
		t.Fatalf("stats %+v: want 0 failovers", stats)
	}

	// A swap is an address change: it does not close, reopen or re-read the
	// spool, so nothing about the spool file can fail it half-way. (It used
	// to reopen it: with the file unreadable the router "stayed put" with no
	// uplink at all, and its next call dereferenced nil.) Clobber the file
	// behind the live router and move it to a member nobody listens at: the
	// report is taken and stays pending, on the same boot, the counters
	// carrying on from where they were.
	files, err := filepath.Glob(filepath.Join(spoolDir, "*"))
	if err != nil || len(files) != 1 {
		t.Fatalf("spool dir holds %v (%v), want the one spool file", files, err)
	}
	if err := os.WriteFile(files[0], []byte("not a spool file any more, whatever it was"), 0o644); err != nil {
		t.Fatal(err)
	}
	boot, before := r.Boot(), r.Counters()
	ring3, err := NewRing([]Member{{ID: "shard-9", Addr: testkit.FreeAddr(t)}}, []string{dcid})
	if err != nil {
		t.Fatal(err)
	}
	if !r.UpdateRing(ring3) || r.Target() != "shard-9" {
		t.Errorf("UpdateRing over a clobbered spool file did not retarget: target %s", r.Target())
	}
	if err := r.Deliver(report(dcid, "m", "imbalance", 0.8, base.Add(2*time.Hour))); err != nil {
		t.Fatal(err)
	}
	if err := r.SendHeartbeat(&proto.Heartbeat{SentAt: base.Add(2 * time.Hour)}); err != nil {
		t.Fatal(err)
	}
	if err := r.Flush(2, 50*time.Millisecond); err == nil || r.Pending() != 1 {
		t.Fatalf("a target nobody listens at drained the spool: flush %v, %d pending", err, r.Pending())
	}
	if c := r.Counters(); r.Boot() != boot || c.Acked != before.Acked || c.Spooled != before.Spooled+1 || c.DialFailures == 0 {
		t.Fatalf("across the swap: boot %d -> %d, counters %+v -> %+v", boot, r.Boot(), before, c)
	}
	// And back to a live member: the pending frame goes there as it stands.
	if !r.UpdateRing(ring2) || r.Target() != second {
		t.Fatalf("UpdateRing back did not retarget: target %s", r.Target())
	}
	if err := r.Flush(10, 250*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	stats = r.Stats()
	if c := r.Counters(); sinks[second].count() != 2 || c.Acked != before.Acked+1 || r.Boot() != boot ||
		stats.PerShard[first] != 1 || stats.PerShard[second] != 2 || stats.PerShard["shard-9"] != 0 || stats.Failovers != 0 {
		t.Fatalf("after swapping back: %s fused %d, counters %+v, stats %+v", second, sinks[second].count(), c, stats)
	}
}

// walkCoverage is the reference Coverage: the full walk over every held pair
// that Coverage made on each request before the per-shard holdings were kept
// where DeliverSummary accepts.
func walkCoverage(a *Aggregator) CoverageReport {
	a.mu.Lock()
	defer a.mu.Unlock()
	inRing := make(map[string]bool)
	if a.ring != nil {
		for _, m := range a.ring.Members() {
			inRing[m.ID] = true
		}
	}
	type shardAgg struct {
		components map[string]bool
		newest     time.Time
	}
	byShard := make(map[string]*shardAgg)
	ids := make(map[string]bool)
	pairs := 0
	for component, blocks := range a.held {
		for _, b := range blocks {
			for _, h := range b.pairs {
				pairs++
				sa := byShard[h.shard]
				if sa == nil {
					sa = &shardAgg{components: make(map[string]bool)}
					byShard[h.shard] = sa
					ids[h.shard] = true
				}
				sa.components[component] = true
				if h.s.UpdatedAt.After(sa.newest) {
					sa.newest = h.s.UpdatedAt
				}
			}
		}
	}
	for id := range inRing {
		ids[id] = true
	}
	sorted := make([]string, 0, len(ids))
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

func checkCoverage(t *testing.T, a *Aggregator, when string) {
	t.Helper()
	if got, want := a.Coverage(), walkCoverage(a); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Coverage() diverged from the full walk\n got: %+v\nwant: %+v", when, got, want)
	}
}

// TestAggregatorCoverageFollowsFailover: the per-shard holdings Coverage
// reads are kept where DeliverSummary accepts. Over a seeded schedule in
// which a shard dies, its components are handed to the survivors (same-time
// hand-offs and later ones, late frames from the dead shard, the hand-off of
// the pair that carried the loser's newest time, the loser's last pair) and
// the ring drops and re-adds it, Coverage equals the full walk after every
// delivery.
func TestAggregatorCoverageFollowsFailover(t *testing.T) {
	members := []Member{{ID: "shard-1"}, {ID: "shard-2"}, {ID: "shard-3"}}
	components := []string{"m1", "m2", "m3", "m4", "m5", "m6"}
	conditions := []string{"inner race fault", "outer race fault", "imbalance"}
	ring, err := NewRing(members, components)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, err := NewAggregator(AggregatorConfig{})
		if err != nil {
			t.Fatal(err)
		}
		checkCoverage(t, a, "empty, no ring")
		a.SetRing(ring)
		checkCoverage(t, a, "empty, ring of three")
		owner := map[string]string{}
		for _, c := range components {
			owner[c] = ring.Assign(c)
		}
		now, seq := base, uint64(0)
		send := func(shardID, component string, at time.Time) {
			t.Helper()
			seq++
			s := summary(shardID, component, conditions[rng.Intn(len(conditions))], rng.Float64()*0.9, at)
			if err := a.DeliverSummary(s, shardID, 1, seq); err != nil {
				t.Fatal(err)
			}
			checkCoverage(t, a, fmt.Sprintf("seed %d delivery %d (%s %s)", seed, seq, shardID, component))
		}
		for i := 0; i < 60; i++ { // steady state
			now = now.Add(time.Duration(rng.Intn(90)+1) * time.Second)
			c := components[rng.Intn(len(components))]
			send(owner[c], c, now)
		}
		const dead = "shard-1"
		down := map[string]bool{dead: true}
		for i := 0; i < 120; i++ { // shard-1 is gone: its components move, pair by pair
			c := components[rng.Intn(len(components))]
			switch rng.Intn(4) {
			case 0: // the successor re-asserts the dead shard's state at the same event time
				if owner[c] == dead {
					next, _ := ring.Successor(c, down)
					send(next, c, now)
					continue
				}
			case 1: // a late frame from the dead shard's spool: stale, or a pair it still holds
				send(dead, c, now.Add(-time.Duration(rng.Intn(600))*time.Second))
				continue
			}
			now = now.Add(time.Duration(rng.Intn(90)+1) * time.Second)
			next := owner[c]
			if next == dead {
				next, _ = ring.Successor(c, down)
			}
			send(next, c, now)
		}
		smaller, err := NewRing(members[1:], components)
		if err != nil {
			t.Fatal(err)
		}
		a.SetRing(smaller)
		checkCoverage(t, a, "ring without the dead shard")
		for _, c := range components { // every pair the dead shard still holds is taken over
			for _, cond := range conditions {
				now = now.Add(time.Second)
				seq++
				if err := a.DeliverSummary(summary(smaller.Assign(c), c, cond, 0.4, now), smaller.Assign(c), 1, seq); err != nil {
					t.Fatal(err)
				}
				checkCoverage(t, a, fmt.Sprintf("seed %d take-over of %s/%s", seed, c, cond))
			}
		}
		cov := a.Coverage()
		if cov.ShardsTotal != 2 || cov.HeldPairs != len(components)*len(conditions) {
			t.Fatalf("seed %d: after the take-over %+v, want two shards holding every pair", seed, cov)
		}
		a.SetRing(ring)
		checkCoverage(t, a, "the dead shard back in the ring, holding nothing")
	}
}

// TestAggregatorLatestWinsAnyOrder: delivery order must not matter — any
// permutation of the same summary set converges to the same held state,
// with older frames counted stale.
func TestAggregatorLatestWinsAnyOrder(t *testing.T) {
	frames := []*proto.FusedSummary{
		summary("shard-1", "m1", "outer race fault", 0.3, base),
		summary("shard-1", "m1", "outer race fault", 0.6, base.Add(time.Hour)),
		summary("shard-2", "m1", "outer race fault", 0.9, base.Add(2*time.Hour)),
		summary("shard-2", "m2", "imbalance", 0.5, base.Add(time.Hour)),
	}
	orders := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}}
	var ref []GlobalItem
	for _, order := range orders {
		a, err := NewAggregator(AggregatorConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for i, idx := range order {
			if err := a.DeliverSummary(frames[idx], frames[idx].ShardID, 1, uint64(i+1)); err != nil {
				t.Fatal(err)
			}
			checkCoverage(t, a, fmt.Sprintf("order %v after frame %d", order, idx))
		}
		got := a.GlobalRanked()
		if len(got) != 2 {
			t.Fatalf("order %v: %d rows, want 2", order, len(got))
		}
		if got[0].Belief != 0.9 || got[0].Shard != "shard-2" {
			t.Fatalf("order %v: head %+v, want shard-2 belief 0.9", order, got[0])
		}
		if ref == nil {
			ref = got
			continue
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("order %v row %d: %+v != %+v", order, i, got[i], ref[i])
			}
		}
	}
}

// TestAggregatorDegradesMonotonically: as other shards' evidence advances
// event time while one shard stays silent, the silent shard's belief falls
// and its Unknown rises — monotonically, ending in a degraded, covered,
// never-erroring view.
func TestAggregatorDegradesMonotonically(t *testing.T) {
	a, err := NewAggregator(AggregatorConfig{Health: health.Config{
		LateAfter:        30 * time.Minute,
		SilentAfter:      time.Hour,
		FreshFor:         time.Hour,
		StalenessHorizon: 6 * time.Hour,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.DeliverSummary(summary("shard-1", "m1", "outer race fault", 0.8, base), "shard-1", 1, 1); err != nil {
		t.Fatal(err)
	}
	item, ok := a.GlobalBelief("m1", "outer race fault")
	if !ok || item.Belief != 0.8 || item.Degraded {
		t.Fatalf("fresh item %+v, want covered, belief 0.8, undegraded", item)
	}
	prev := item
	for h := 1; h <= 8; h++ {
		at := base.Add(time.Duration(h) * time.Hour)
		if err := a.DeliverSummary(summary("shard-2", "m2", "imbalance", 0.5, at), "shard-2", 1, uint64(h)); err != nil {
			t.Fatal(err)
		}
		item, ok = a.GlobalBelief("m1", "outer race fault")
		if !ok {
			t.Fatalf("hour %d: pair lost coverage", h)
		}
		if item.Belief > prev.Belief || item.Unknown < prev.Unknown {
			t.Fatalf("hour %d: degradation not monotone: %+v after %+v", h, item, prev)
		}
		prev = item
	}
	if !prev.Degraded || prev.Belief >= 0.8 || prev.Unknown <= 0.2 {
		t.Fatalf("after 8h silence: %+v, want degraded with belief sunk and unknown risen", prev)
	}
	cov := a.Coverage()
	if !cov.Degraded || cov.ShardsTotal != 2 {
		t.Fatalf("coverage %+v: want degraded, 2 shards", cov)
	}
	// A vacuous answer for an unknown pair is a partial result, not an error.
	vac, ok := a.GlobalBelief("m9", "imbalance")
	if ok || vac.Unknown != 1 || vac.Plausibility != 1 {
		t.Fatalf("unknown pair: %+v ok=%v, want vacuous covered=false", vac, ok)
	}
}

// TestAggregatorRejectsRawReports: topology errors fail loudly.
func TestAggregatorRejectsRawReports(t *testing.T) {
	a, err := NewAggregator(AggregatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Deliver(report("dc-1", "m", "imbalance", 0.5, base)); err == nil {
		t.Fatal("aggregator accepted a raw report")
	}
	if a.RejectedReports() != 1 {
		t.Fatalf("rejected count %d, want 1", a.RejectedReports())
	}
}

// TestForwarderMirrorsShardState: a shard engine's fused conclusions must
// arrive at the aggregator bit-identical — same belief, plausibility,
// unknown, report count, prognostics, and event time — and the single-shard
// global ranking must equal the shard's own prioritized list, on every pair
// the shard holds once both are quiescent. One report
// arrives late (another DC's, stamped before the pair's newest evidence): its
// summary must not look older than the one before it, or the aggregator keeps
// the stale belief.
func TestForwarderMirrorsShardState(t *testing.T) {
	model, err := oosm.NewModel(relstore.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	engine, err := pdme.New(model, testGroups())
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()

	agg, err := NewAggregator(AggregatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	addr, srv, err := agg.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	fwd, err := Forward(engine, ForwarderConfig{
		ShardID:        "shard-1",
		AggregatorAddr: addr,
		BackoffMin:     5 * time.Millisecond,
		BackoffMax:     25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fwd.Close()

	for i, rep := range []*proto.Report{
		report("dc-1", "m1", "outer race fault", 0.7, base),
		report("dc-2", "m1", "outer race fault", 0.5, base.Add(time.Minute)),
		report("dc-3", "m2", "imbalance", 0.9, base.Add(2*time.Minute)),
		report("dc-4", "m2", "imbalance", 0.5, base),
	} {
		if err := engine.DeliverTagged(rep, rep.DCID, 1, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	var local []pdme.MaintenanceItem
	var global []GlobalItem
	mirrored := func() {
		t.Helper()
		if err := fwd.Flush(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		if fc := fwd.Counters(); fc.Forwarded == 0 || fc.Errors != 0 || fc.Skipped != 0 {
			t.Fatalf("forwarder counters %+v", fc)
		}
		if n := agg.StaleDropped(); n != 0 {
			t.Errorf("the aggregator dropped %d of one shard's in-order summaries as stale", n)
		}
		local, global = engine.PrioritizedList(), agg.GlobalRanked()
		if len(global) != len(local) {
			t.Fatalf("global %d rows, local %d", len(global), len(local))
		}
		for i, l := range local {
			g := global[i]
			cs, err := engine.ConditionSnapshot(l.Component, l.Condition)
			if err != nil {
				t.Fatal(err)
			}
			if g.Component != l.Component || g.Condition != l.Condition {
				t.Fatalf("row %d: global (%s,%s) != local (%s,%s)", i, g.Component, g.Condition, l.Component, l.Condition)
			}
			if g.Belief != cs.Belief || g.Plausibility != cs.Plausibility || g.Unknown != cs.Unknown || g.Reports != cs.Reports {
				t.Fatalf("row %d: global (%g,%g,%g; %d reports) != shard (%g,%g,%g; %d reports)",
					i, g.Belief, g.Plausibility, g.Unknown, g.Reports, cs.Belief, cs.Plausibility, cs.Unknown, cs.Reports)
			}
			if g.Degraded || g.Reliability != 1 {
				t.Fatalf("row %d: fresh single shard must be undegraded: %+v", i, g)
			}
			if g.HasPrognostic != l.HasPrognostic || g.TimeToHalf != l.TimeToHalf {
				t.Fatalf("row %d: prognostic mismatch: global %v/%v local %v/%v",
					i, g.HasPrognostic, g.TimeToHalf, l.HasPrognostic, l.TimeToHalf)
			}
			if cs.UpdatedAt.IsZero() || !g.UpdatedAt.Equal(cs.UpdatedAt) {
				t.Fatalf("row %d: updated_at %v != the shard's %v", i, g.UpdatedAt, cs.UpdatedAt)
			}
		}
	}
	mirrored()

	// Eight connections report on the same pairs at once, their stamps
	// interleaved: summaries spool in the order their reports were fused, so
	// whichever fold was last is what the aggregator ends up holding.
	var wg sync.WaitGroup
	for s := 0; s < 8; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dc := fmt.Sprintf("dc-c%d", s)
			for i := 0; i < 25; i++ {
				pair := [][2]string{{"m1", "outer race fault"}, {"m2", "imbalance"}, {"m3", "imbalance"}}[(s+i)%3]
				rep := report(dc, pair[0], pair[1], 0.3+0.05*float64(s), base.Add(time.Duration((i*3+s)%40)*time.Minute))
				if err := engine.DeliverTagged(rep, dc, 1, uint64(i+1)); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	mirrored()

	// Resync after an aggregator wipe: a fresh aggregator catches up from
	// the shard's current state without any new reports.
	srv.Close()
	agg2, err := NewAggregator(AggregatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	addr2, srv2, err := agg2.Serve(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if addr2 != addr {
		t.Fatalf("rebind moved: %s != %s", addr2, addr)
	}
	if n := fwd.Resync(); n != len(local) {
		t.Fatalf("resync forwarded %d pairs, want %d", n, len(local))
	}
	if err := fwd.Flush(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	global2 := agg2.GlobalRanked()
	if len(global2) != len(global) {
		t.Fatalf("resynced aggregator has %d rows, want %d", len(global2), len(global))
	}
	for i := range global {
		if global2[i] != global[i] {
			t.Fatalf("row %d after resync: %+v != %+v", i, global2[i], global[i])
		}
	}
}

// TestAggregatorRunsMatchSingles feeds one seeded stream — two shards'
// summaries out of event-time order, resends of sequences long since taken,
// and the odd raw report — to two served aggregators, in runs of up to
// proto.MaxRun to one and one frame per exchange to the other. Every frame is
// answered alike and both end holding the same state, bit for bit.
func TestAggregatorRunsMatchSingles(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	conditions := []string{"inner race fault", "outer race fault", "imbalance"}
	next := map[string]uint64{"shard-1": 1, "shard-2": 1}
	var stream []proto.Delivery
	for i := 0; i < 400; i++ {
		shard := fmt.Sprintf("shard-%d", 1+rng.Intn(2))
		d := proto.Delivery{DCID: shard, Boot: 5, Seq: next[shard]}
		switch roll := rng.Intn(12); {
		case roll == 0:
			d.Report = report(shard, "m1", "imbalance", 0.5, base)
		default:
			belief := 0.8 * rng.Float64()
			d.Summary = summary(shard, fmt.Sprintf("m%d", rng.Intn(6)), conditions[rng.Intn(len(conditions))],
				belief, base.Add(time.Duration(rng.Intn(600))*time.Minute))
			if roll == 1 && d.Seq > 1 {
				d.Seq = 1 + uint64(rng.Int63n(int64(d.Seq-1))) // a resend
			}
		}
		if d.Seq == next[shard] {
			next[shard]++
		}
		stream = append(stream, d)
	}

	var aggs [2]*Aggregator
	var clients [2]*proto.Client
	for i := range aggs {
		agg, err := NewAggregator(AggregatorConfig{})
		if err != nil {
			t.Fatal(err)
		}
		addr, srv, err := agg.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		if clients[i], err = proto.Dial(addr); err != nil {
			t.Fatal(err)
		}
		defer clients[i].Close()
		aggs[i] = agg
	}
	for len(stream) > 0 {
		run := stream[:min(len(stream), 1+rng.Intn(proto.MaxRun))]
		stream = stream[len(run):]
		singles := append([]proto.Delivery(nil), run...)
		if n, err := clients[0].SendRun(run); err != nil || n != len(run) {
			t.Fatalf("SendRun answered %d of %d: %v", n, len(run), err)
		}
		for i := range singles {
			if n, err := clients[1].SendRun(singles[i : i+1]); err != nil || n != 1 {
				t.Fatalf("single send: %v", err)
			}
			if a, b := run[i], singles[i]; a.Dup != b.Dup || (a.Err == nil) != (b.Err == nil) || (a.Err == nil) != (a.Summary != nil) {
				t.Fatalf("seq %d of %s: in a run dup=%v err=%v, alone dup=%v err=%v", a.Seq, a.DCID, a.Dup, a.Err, b.Dup, b.Err)
			}
		}
	}
	inRuns, alone := aggs[0], aggs[1]
	if inRuns.DedupHits() == 0 || inRuns.StaleDropped() == 0 || inRuns.RejectedReports() == 0 {
		t.Fatalf("the stream exercised %d duplicates, %d stale summaries, %d raw reports; want some of each",
			inRuns.DedupHits(), inRuns.StaleDropped(), inRuns.RejectedReports())
	}
	if inRuns.DedupHits() != alone.DedupHits() || inRuns.Accepted() != alone.Accepted() ||
		inRuns.StaleDropped() != alone.StaleDropped() || inRuns.RejectedReports() != alone.RejectedReports() {
		t.Errorf("in runs: %d dup, %d accepted, %d stale, %d refused; alone: %d, %d, %d, %d",
			inRuns.DedupHits(), inRuns.Accepted(), inRuns.StaleDropped(), inRuns.RejectedReports(),
			alone.DedupHits(), alone.Accepted(), alone.StaleDropped(), alone.RejectedReports())
	}
	got, want := inRuns.GlobalRanked(), alone.GlobalRanked()
	if len(got) == 0 || len(got) != len(want) {
		t.Fatalf("ranked %d rows in runs, %d alone", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d: in runs %+v, alone %+v", i, got[i], want[i])
		}
	}
}

// TestFailoverJitterFollowsSeed: a router's jittered failover threshold is
// a function of its Seed, within [threshold, 2·threshold).
func TestFailoverJitterFollowsSeed(t *testing.T) {
	ring, err := NewRing([]Member{{ID: "shard-1", Addr: "127.0.0.1:1"}}, []string{"dc-1"})
	if err != nil {
		t.Fatal(err)
	}
	threshold := func(seed int64) int {
		cfg := fastRouterConfig("dc-1", ring, t.TempDir())
		cfg.Seed, cfg.FailoverThreshold = seed, 1000
		r, err := NewRouter(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		return r.threshold
	}
	seen := map[int]bool{}
	for seed := range int64(8) {
		got := threshold(seed)
		if again := threshold(seed); again != got {
			t.Errorf("seed %d: threshold %d, then %d", seed, got, again)
		}
		if got < 1000 || got >= 2000 {
			t.Errorf("seed %d: threshold %d outside [1000, 2000)", seed, got)
		}
		seen[got] = true
	}
	if len(seen) < 2 {
		t.Errorf("eight seeds gave one threshold %v", seen)
	}
}

package serving

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/health"
)

// TestInvalidateAllDropsEveryMaterializedView: the recovery epoch bump —
// every cached view recomputes on its next read, and the invalidation
// counter reflects the flush.
func TestInvalidateAllDropsEveryMaterializedView(t *testing.T) {
	engine := newTestEngine(t)
	v := openTestViews(t, engine)
	deliver(t, engine, report("dc-1", "m1", "imbalance", 0.8, base))
	deliver(t, engine, report("dc-1", "m2", "imbalance", 0.7, base))
	for i := 0; i < 3; i++ {
		deliver(t, engine, report("dc-1", "m1", "imbalance", 0.8, base.Add(time.Duration(i+1)*time.Minute)))
	}

	// Materialize the ranked and belief views, confirm they hit.
	v.Ranked()
	if _, err := v.Belief("m1", "imbalance"); err != nil {
		t.Fatal(err)
	}
	if !v.Ranked().Cached {
		t.Fatal("ranked view not materialized")
	}
	if bv, err := v.Belief("m1", "imbalance"); err != nil || !bv.Cached {
		t.Fatalf("belief view not materialized (err %v)", err)
	}

	before := v.Stats()
	v.InvalidateAll()
	if got := v.Stats().Invalidations; got != before.Invalidations+1 {
		t.Errorf("invalidations = %d, want %d", got, before.Invalidations+1)
	}

	// The belief read first: it re-fuses m1's block only, so the ranking
	// (one order over both machines' blocks) still has m2's to re-fuse.
	if bv, err := v.Belief("m1", "imbalance"); err != nil || bv.Cached {
		t.Errorf("belief view served from cache after InvalidateAll (err %v)", err)
	}
	if v.Ranked().Cached {
		t.Error("ranked view served from cache after InvalidateAll")
	}
	// The flush is an epoch bump, not a teardown: views re-materialize.
	if !v.Ranked().Cached {
		t.Error("ranked view did not re-materialize after the flush")
	}
}

// TestFlushUnderARefreshServesTheWholeList: an InvalidateAll that lands
// while a /ranked read is fusing — after its plan, before its store — empties
// the order under it. The read must still answer with every block's rows,
// not only the ones it fused itself. The registry's clock is the seam: the
// fuse asks it for the time outside the tier's lock.
func TestFlushUnderARefreshServesTheWholeList(t *testing.T) {
	engine := newTestEngine(t)
	var v *Views
	calls, flushAt := 0, -1
	clock := func() time.Time {
		if calls++; calls == flushAt {
			v.InvalidateAll()
		}
		return base.Add(time.Hour)
	}
	if err := engine.ConfigureHealth(health.Config{Clock: clock}); err != nil {
		t.Fatal(err)
	}
	v, err := Open(engine, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	for i, m := range []string{"m1", "m2", "m3"} {
		deliver(t, engine, report("dc-1", m, "imbalance", 0.5+0.1*float64(i), base))
	}
	v.Ranked()
	if !v.Ranked().Cached {
		t.Fatal("ranking not materialized")
	}
	// One dirty block, dirtied by a source with no DC behind it so that the
	// registry does not move and the other two stay servable. The read's
	// first clock call is its own (the registry version it runs under), the
	// second comes from inside that block's fuse.
	deliver(t, engine, report("", "m1", "imbalance", 0.9, base))
	flushAt = calls + 2
	flushes := v.Stats().Invalidations
	rv := v.Ranked()
	if v.Stats().Invalidations != flushes+1 {
		t.Fatal("fixture: the flush did not land inside the read")
	}
	if rv.Cached || rv.Epoch != 0 {
		t.Errorf("a read a flush ran under was served as kept: %+v", rv)
	}
	if want := engine.PrioritizedList(); !reflect.DeepEqual(rv.Items(), want) {
		t.Fatalf("partial list after a flush under the read:\n got %+v\nwant %+v", rv.Items(), want)
	}
	// And the tier recovers: everything re-fuses, then hits.
	v.Ranked()
	if rv = v.Ranked(); !rv.Cached || !reflect.DeepEqual(rv.Items(), engine.PrioritizedList()) {
		t.Fatalf("ranking did not re-materialize whole after the flush: %+v", rv)
	}
}

package serving

import (
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/health"
	"repro/internal/pdme"
	"repro/internal/shard"
)

// TestEngineWiringRefusedWithTierAttached: a tier attaches to a wired
// engine. Once one is attached, the engine refuses to replace the registry
// the tier reads (ConfigureHealth) and to recover a journal under it
// (OpenJournal restores state outside any write window), and neither refusal
// changes anything.
func TestEngineWiringRefusedWithTierAttached(t *testing.T) {
	engine := newTestEngine(t)
	v := openTestViews(t, engine)
	reg := engine.Health()
	if err := engine.ConfigureHealth(health.Config{}); err == nil {
		t.Error("ConfigureHealth accepted with a read tier attached")
	}
	if engine.Health() != reg || v.reg != reg {
		t.Error("a refused ConfigureHealth replaced the registry")
	}
	dir := t.TempDir()
	if _, err := engine.OpenJournal(pdme.JournalOptions{Dir: dir}); err == nil {
		t.Error("OpenJournal accepted with a read tier attached")
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("a refused OpenJournal wrote %d entries (%v)", len(entries), err)
	}
}

// TestSecondTierRefused: one tier per source. A second Open is refused while
// the first is attached, so the first never goes on serving a cache it no
// longer hears about; a second AggregatorHandler panics with the
// aggregator's refusal. A closed tier frees its source, and closing it again
// detaches nothing another tier installed.
func TestSecondTierRefused(t *testing.T) {
	engine := newTestEngine(t)
	first := openTestViews(t, engine)
	deliver(t, engine, report("dc-1", "m1", "imbalance", 0.5, base))
	if first.Ranked(); !first.Ranked().Cached {
		t.Fatal("ranking not materialized")
	}
	if second, err := Open(engine, Options{}); err == nil {
		second.Close()
		t.Fatal("a second tier attached to a PDME that has one")
	}
	deliver(t, engine, report("dc-1", "m1", "imbalance", 0.9, base.Add(time.Minute)))
	if rv := first.Ranked(); rv.Cached || !reflect.DeepEqual(rv.Items(), engine.PrioritizedList()) {
		t.Fatalf("the first tier stopped following the engine: cached %v, %+v", rv.Cached, rv.Items())
	}

	first.Close()
	second := openTestViews(t, engine)
	second.Ranked()
	first.Close()
	deliver(t, engine, report("dc-1", "m1", "imbalance", 0.3, base.Add(2*time.Minute)))
	if rv := second.Ranked(); rv.Cached || !reflect.DeepEqual(rv.Items(), engine.PrioritizedList()) {
		t.Fatalf("a second Close of the first tier detached the second: cached %v, %+v", rv.Cached, rv.Items())
	}

	agg, err := shard.NewAggregator(shard.AggregatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	AggregatorHandler(agg)
	defer func() {
		if recover() == nil {
			t.Error("a second AggregatorHandler on one aggregator did not panic")
		}
	}()
	AggregatorHandler(agg)
}

// TestFlushUnderARefreshServesTheWholeList: a Close — the tier's one flush —
// that lands while a /ranked read is fusing, after its plan and before its
// store, empties the order under it. The read must still answer with every
// block's rows, not only the ones it fused itself, and so must every read of
// the closed tier. The registry's clock is the seam: the fuse asks it for the
// time outside the tier's lock.
func TestFlushUnderARefreshServesTheWholeList(t *testing.T) {
	engine := newTestEngine(t)
	var v *Views
	calls, closeAt := 0, -1
	clock := func() time.Time {
		if calls++; calls == closeAt {
			v.Close()
		}
		return base.Add(time.Hour)
	}
	if err := engine.ConfigureHealth(health.Config{Clock: clock}); err != nil {
		t.Fatal(err)
	}
	v = openTestViews(t, engine)
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
	closeAt = calls + 2
	rv := v.Ranked()
	if calls < closeAt {
		t.Fatal("fixture: Close did not land inside the read")
	}
	if rv.Cached || rv.Epoch != 0 {
		t.Errorf("a read a Close ran under was served as kept: %+v", rv)
	}
	if want := engine.PrioritizedList(); !reflect.DeepEqual(rv.Items(), want) {
		t.Fatalf("partial list after a Close under the read:\n got %+v\nwant %+v", rv.Items(), want)
	}
	// The closed tier hears of no write and keeps nothing: each read is the
	// whole list, fresh.
	deliver(t, engine, report("dc-1", "m2", "imbalance", 0.95, base.Add(time.Minute)))
	if rv = v.Ranked(); rv.Cached || !reflect.DeepEqual(rv.Items(), engine.PrioritizedList()) {
		t.Fatalf("a closed tier served %+v", rv)
	}
}

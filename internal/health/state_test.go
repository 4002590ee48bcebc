package health

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/testkit"
)

// TestRegistryStateRoundtrip: ExportState → JSON → RestoreState reproduces
// the observation history exactly — per-DC last-seen state, restart
// history, watermark, and the version counter the serving tier keys its
// cache on — while leaving the configured thresholds untouched.
func TestRegistryStateRoundtrip(t *testing.T) {
	g := mustRegistry(t, testConfig())
	first := hb("dc-1", t0, 1)
	first.Boot = 7
	if err := g.ObserveHeartbeat(first); err != nil {
		t.Fatal(err)
	}
	g.ObserveReport("dc-1", "vibration", t0.Add(time.Minute))
	g.ObserveReport("dc-1", "oil", t0.Add(2*time.Minute))
	// dc-2 restarts twice (incarnation bumps) and carries suite status.
	for i, inc := range []uint64{1, 2, 3} {
		h := hb("dc-2", t0.Add(time.Duration(i)*time.Minute), inc)
		h.SpoolDepth = 4
		h.Suites = []proto.SuiteStatus{{Name: "vibration", LastRun: t0, Runs: int64(i + 1)}}
		if err := g.ObserveHeartbeat(h); err != nil {
			t.Fatal(err)
		}
	}

	st := g.ExportState()
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var decoded RegistryState
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	restored := mustRegistry(t, testConfig())
	restored.RestoreState(decoded)
	// The clock is runtime wiring this test does not install.
	testkit.Carried(t, g, restored, "Registry.cfg.Clock")

	if got, want := restored.Version(), g.Version(); got != want {
		t.Errorf("restored version %d, want %d", got, want)
	}
	if got, want := restored.Now(), g.Now(); !got.Equal(want) {
		t.Errorf("restored watermark %v, want %v", got, want)
	}
	want, got := g.Snapshot(), restored.Snapshot()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("restored snapshot differs:\n got %+v\nwant %+v", got, want)
	}
	// Re-export is identical: checkpoint bytes are deterministic.
	if again := restored.ExportState(); !reflect.DeepEqual(st, again) {
		t.Errorf("re-exported state differs:\n got %+v\nwant %+v", again, st)
	}
	// History continues from the restored state: another incarnation bump
	// pushes dc-2 over the flap threshold just as it would have live.
	if err := restored.ObserveHeartbeat(hb("dc-2", t0.Add(3*time.Minute), 4)); err != nil {
		t.Fatal(err)
	}
	if got := restored.StateOf("dc-2"); got != StateFlapping {
		t.Errorf("dc-2 after restored restart history + one more = %v, want %v", got, StateFlapping)
	}
}

// TestRestoreStateReplacesHistory: restoring drops observation history the
// snapshot does not carry — recovery must not merge pre-open state into
// the checkpoint's.
func TestRestoreStateReplacesHistory(t *testing.T) {
	g := mustRegistry(t, testConfig())
	if err := g.ObserveHeartbeat(hb("dc-old", t0, 1)); err != nil {
		t.Fatal(err)
	}
	g.RestoreState(RegistryState{Watermark: t0.Add(time.Hour), Version: 9})
	if len(g.Snapshot()) != 0 {
		t.Error("pre-restore DC survived RestoreState")
	}
	if g.Version() != 9 {
		t.Errorf("version = %d, want 9", g.Version())
	}
	if !g.Now().Equal(t0.Add(time.Hour)) {
		t.Errorf("watermark = %v, want %v", g.Now(), t0.Add(time.Hour))
	}
}

package health

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/proto"
)

// t0 is an arbitrary fixed epoch; all test times derive from it so the
// package stays wall-clock free (noclock).
var t0 = time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)

func testConfig() Config {
	return Config{
		LateAfter:        5 * time.Minute,
		SilentAfter:      15 * time.Minute,
		FlapWindow:       30 * time.Minute,
		FreshFor:         time.Hour,
		StalenessHorizon: 5 * time.Hour,
		ReliabilityFloor: 0.1,
	}
}

func mustRegistry(t *testing.T, cfg Config) *Registry {
	t.Helper()
	g, err := NewRegistry(cfg)
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	return g
}

func hb(dc string, at time.Time, incarnation uint64) *proto.Heartbeat {
	return &proto.Heartbeat{DCID: dc, SentAt: at, Incarnation: incarnation}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config should validate via defaults: %v", err)
	}
	bad := []Config{
		{LateAfter: time.Hour, SilentAfter: time.Minute},
		{FreshFor: time.Hour, StalenessHorizon: time.Minute},
		{ReliabilityFloor: 1},
		{ReliabilityFloor: -0.5},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d should fail validation", i)
		}
	}
}

func TestStateMachine(t *testing.T) {
	g := mustRegistry(t, testConfig())
	if got := g.StateOf("dc-0"); got != StateUnknown {
		t.Fatalf("never-seen DC state = %v, want unknown", got)
	}
	if err := g.ObserveHeartbeat(hb("dc-0", t0, 1)); err != nil {
		t.Fatal(err)
	}
	if got := g.StateOf("dc-0"); got != StateAlive {
		t.Fatalf("fresh DC state = %v, want alive", got)
	}
	// Another DC's heartbeat advances the event-time watermark; dc-0 ages.
	if err := g.ObserveHeartbeat(hb("dc-1", t0.Add(10*time.Minute), 1)); err != nil {
		t.Fatal(err)
	}
	if got := g.StateOf("dc-0"); got != StateLate {
		t.Fatalf("10min-quiet DC state = %v, want late", got)
	}
	if err := g.ObserveHeartbeat(hb("dc-1", t0.Add(20*time.Minute), 1)); err != nil {
		t.Fatal(err)
	}
	if got := g.StateOf("dc-0"); got != StateSilent {
		t.Fatalf("20min-quiet DC state = %v, want silent", got)
	}
	// A report (not just a heartbeat) revives it.
	g.ObserveReport("dc-0", "vibration", t0.Add(21*time.Minute))
	if got := g.StateOf("dc-0"); got != StateAlive {
		t.Fatalf("after report, state = %v, want alive", got)
	}
}

func TestFlapDetection(t *testing.T) {
	g := mustRegistry(t, testConfig())
	// Baseline incarnation, then three restarts within the window.
	for i, at := range []time.Duration{0, 2 * time.Minute, 4 * time.Minute, 6 * time.Minute} {
		if err := g.ObserveHeartbeat(hb("dc-0", t0.Add(at), uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if got := g.StateOf("dc-0"); got != StateFlapping {
		t.Fatalf("after 3 restarts in window, state = %v, want flapping", got)
	}
	snap := g.Snapshot()
	if len(snap) != 1 || snap[0].RecentRestarts != 3 {
		t.Fatalf("snapshot restarts = %+v, want 3", snap)
	}
	// Flap records expire once the window slides past them.
	if err := g.ObserveHeartbeat(hb("dc-0", t0.Add(40*time.Minute), 4)); err != nil {
		t.Fatal(err)
	}
	if got := g.StateOf("dc-0"); got != StateAlive {
		t.Fatalf("after window slid past restarts, state = %v, want alive", got)
	}
	// Repeating the same incarnation never counts as a restart.
	g2 := mustRegistry(t, testConfig())
	for i := 0; i < 10; i++ {
		if err := g2.ObserveHeartbeat(hb("dc-0", t0.Add(time.Duration(i)*time.Minute), 7)); err != nil {
			t.Fatal(err)
		}
	}
	if got := g2.StateOf("dc-0"); got != StateAlive {
		t.Fatalf("stable incarnation state = %v, want alive", got)
	}
}

func TestReliabilityCurve(t *testing.T) {
	cfg := testConfig()
	g := mustRegistry(t, cfg)
	if err := g.ObserveHeartbeat(hb("dc-0", t0, 1)); err != nil {
		t.Fatal(err)
	}
	// Fresh evidence from an alive DC: full reliability.
	if got := g.Reliability("dc-0", t0); got != 1 {
		t.Fatalf("fresh reliability = %g, want 1", got)
	}
	// Midpoint of the decay ramp: FreshFor=1h, horizon=5h, floor=0.1 →
	// at age 3h the factor is 1 - 0.9*(2h/4h) = 0.55. Keep the DC alive via
	// heartbeats so only age discounts.
	if err := g.ObserveHeartbeat(hb("dc-0", t0.Add(3*time.Hour), 1)); err != nil {
		t.Fatal(err)
	}
	if got := g.Reliability("dc-0", t0); math.Abs(got-0.55) > 1e-12 {
		t.Fatalf("mid-ramp reliability = %g, want 0.55", got)
	}
	// Past the horizon: floor.
	if err := g.ObserveHeartbeat(hb("dc-0", t0.Add(6*time.Hour), 1)); err != nil {
		t.Fatal(err)
	}
	if got := g.Reliability("dc-0", t0); math.Abs(got-cfg.ReliabilityFloor) > 1e-12 {
		t.Fatalf("stale reliability = %g, want floor %g", got, cfg.ReliabilityFloor)
	}
}

func TestReliabilityMonotoneInAge(t *testing.T) {
	g := mustRegistry(t, testConfig())
	if err := g.ObserveHeartbeat(hb("dc-keepalive", t0, 1)); err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for age := time.Duration(0); age <= 7*time.Hour; age += 13 * time.Minute {
		// Advance the watermark with a keepalive heartbeat, then evaluate a
		// report stamped t0.
		if err := g.ObserveHeartbeat(hb("dc-keepalive", t0.Add(age), 1)); err != nil {
			t.Fatal(err)
		}
		got := g.Reliability("dc-keepalive", t0)
		if got > prev {
			t.Fatalf("reliability increased with age at %v: %g > %g", age, got, prev)
		}
		prev = got
	}
}

func TestStatePenalties(t *testing.T) {
	cfg := testConfig()
	g := mustRegistry(t, cfg)
	if err := g.ObserveHeartbeat(hb("dc-0", t0, 1)); err != nil {
		t.Fatal(err)
	}
	// Silence dc-0 by advancing the watermark via dc-1. Age of the report
	// stays inside FreshFor so only the state penalty applies.
	if err := g.ObserveHeartbeat(hb("dc-1", t0.Add(20*time.Minute), 1)); err != nil {
		t.Fatal(err)
	}
	if got := g.StateOf("dc-0"); got != StateSilent {
		t.Fatalf("state = %v, want silent", got)
	}
	if got := g.Reliability("dc-0", t0.Add(19*time.Minute)); math.Abs(got-silentPenalty) > 1e-12 {
		t.Fatalf("silent fresh reliability = %g, want penalty %g", got, silentPenalty)
	}
	// A DC the registry has never heard from (heartbeats disabled) is
	// discounted by age alone.
	if got := g.Reliability("dc-never", t0.Add(19*time.Minute)); got != 1 {
		t.Fatalf("unknown-DC fresh reliability = %g, want 1", got)
	}
}

func TestSnapshot(t *testing.T) {
	g := mustRegistry(t, testConfig())
	err := g.ObserveHeartbeat(&proto.Heartbeat{
		DCID: "dc-b", SentAt: t0, Boot: 42, Incarnation: 9, SpoolDepth: 7,
		Suites: []proto.SuiteStatus{{Name: "vibration-test", LastRun: t0.Add(-time.Minute), Runs: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	g.ObserveReport("dc-a", "fuzzy", t0.Add(time.Minute))
	g.ObserveReport("dc-a", "vibration", t0.Add(6*time.Minute))
	snap := g.Snapshot()
	if len(snap) != 2 || snap[0].DCID != "dc-a" || snap[1].DCID != "dc-b" {
		t.Fatalf("snapshot order: %+v", snap)
	}
	a, b := snap[0], snap[1]
	if len(a.Sources) != 2 || a.Sources[0].Source != "fuzzy" || a.Sources[1].Source != "vibration" {
		t.Fatalf("dc-a sources: %+v", a.Sources)
	}
	if !a.LastSeen.Equal(t0.Add(6 * time.Minute)) {
		t.Fatalf("dc-a last seen %v", a.LastSeen)
	}
	if b.SpoolDepth != 7 || len(b.Suites) != 1 || b.Suites[0].Runs != 3 {
		t.Fatalf("dc-b heartbeat fields: %+v", b)
	}
	if a.State != StateAlive || b.State != StateLate {
		t.Fatalf("states a=%v b=%v", a.State, b.State)
	}
	// Snapshots feed JSON endpoints; states marshal by name.
	buf, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf), `"State":"alive"`) || !strings.Contains(string(buf), `"State":"late"`) {
		t.Fatalf("states not marshalled by name: %s", buf)
	}
}

func TestInjectedClock(t *testing.T) {
	now := t0
	cfg := testConfig()
	cfg.Clock = func() time.Time { return now }
	g := mustRegistry(t, cfg)
	if err := g.ObserveHeartbeat(hb("dc-0", t0, 1)); err != nil {
		t.Fatal(err)
	}
	if got := g.StateOf("dc-0"); got != StateAlive {
		t.Fatalf("state = %v, want alive", got)
	}
	// Advancing the injected clock alone (no traffic) ages the DC —
	// unlike watermark mode, which needs events to move time.
	now = t0.Add(time.Hour)
	if got := g.StateOf("dc-0"); got != StateSilent {
		t.Fatalf("state after clock jump = %v, want silent", got)
	}
	if !g.Now().Equal(now) {
		t.Fatalf("Now() = %v, want %v", g.Now(), now)
	}

	// The clock is an observation source, a quantum at a time. Inside a
	// quantum time stands still: the version holds and every answer is
	// bit-equal, which is what lets a cache key on the version.
	g.ObserveReport("dc-0", "vibration", t0.Add(-2*time.Hour)) // on the age ramp: its reliability moves with time
	ver, rel, snap := g.Version(), g.Reliability("dc-0", t0.Add(-2*time.Hour)), g.Snapshot()
	now = now.Add(ClockQuantum - time.Nanosecond)
	if got := g.Version(); got != ver {
		t.Fatalf("version moved inside a quantum: %d -> %d", ver, got)
	}
	if got := g.Reliability("dc-0", t0.Add(-2*time.Hour)); math.Float64bits(got) != math.Float64bits(rel) {
		t.Fatalf("reliability moved inside a quantum: %v -> %v", rel, got)
	}
	if got := g.Snapshot(); !reflect.DeepEqual(got, snap) || got[0].State != g.StateOf("dc-0") {
		t.Fatalf("snapshot moved inside a quantum:\n was %+v\n now %+v", snap, got)
	}
	// Crossing one is one observation, however many calls look at the clock.
	now = now.Add(time.Nanosecond)
	if got := g.Reliability("dc-0", t0.Add(-2*time.Hour)); got >= rel {
		t.Fatalf("reliability did not fall across a quantum: %v -> %v", rel, got)
	}
	if got := g.Version(); got != ver+1 || g.Version() != got {
		t.Fatalf("version across one quantum: %d -> %d, want one step", ver, got)
	}
	// Observed event times do not move a clocked registry's time: a DC with a
	// fast clock cannot age everyone else's evidence.
	g.ObserveReport("dc-fast", "vibration", now.Add(24*time.Hour))
	if !g.Now().Equal(now) {
		t.Fatalf("a report from the future moved the clock: Now() = %v, want %v", g.Now(), now)
	}

	// A checkpoint taken under a clock that ran ahead of this one (another
	// host, a stepped-back clock): time waits for the clock to catch up and
	// never moves backwards.
	st := g.ExportState()
	now = now.Add(-time.Hour)
	restored := mustRegistry(t, cfg)
	restored.RestoreState(st)
	if !restored.Now().Equal(st.Watermark) || restored.Version() != st.Version {
		t.Fatalf("a clock behind the restored watermark moved it: Now() = %v version %d, want %v version %d",
			restored.Now(), restored.Version(), st.Watermark, st.Version)
	}
	now = st.Watermark.Add(ClockQuantum)
	if !restored.Now().Equal(now) || restored.Version() != st.Version+1 {
		t.Fatalf("the clock caught up: Now() = %v version %d, want %v version %d", restored.Now(), restored.Version(), now, st.Version+1)
	}
}

func TestObserveHeartbeatRejectsInvalid(t *testing.T) {
	g := mustRegistry(t, testConfig())
	if err := g.ObserveHeartbeat(&proto.Heartbeat{SentAt: t0}); err == nil {
		t.Fatal("heartbeat without DC id should be rejected")
	}
	if err := g.ObserveHeartbeat(&proto.Heartbeat{DCID: "dc-0"}); err == nil {
		t.Fatal("heartbeat without send time should be rejected")
	}
	// Out-of-order heartbeats never move lastSeen backwards.
	if err := g.ObserveHeartbeat(hb("dc-0", t0.Add(time.Hour), 1)); err != nil {
		t.Fatal(err)
	}
	if err := g.ObserveHeartbeat(hb("dc-0", t0, 1)); err != nil {
		t.Fatal(err)
	}
	if got := g.Snapshot()[0].LastSeen; !got.Equal(t0.Add(time.Hour)) {
		t.Fatalf("stale heartbeat moved lastSeen to %v", got)
	}
}

// TestPenaltiesHalveTheAgeFactor: a silent DC's evidence and a flapping
// DC's are each worth exactly half of what their age alone gives (a DC the
// registry never heard from is discounted by age alone), at every age on
// the ramp. The configuration names no penalty.
func TestPenaltiesHalveTheAgeFactor(t *testing.T) {
	g := mustRegistry(t, Config{
		LateAfter:        5 * time.Minute,
		SilentAfter:      15 * time.Minute,
		FlapWindow:       30 * time.Minute,
		FreshFor:         time.Hour,
		StalenessHorizon: 5 * time.Hour,
	})
	if err := g.ObserveHeartbeat(hb("dc-silent", t0, 1)); err != nil {
		t.Fatal(err)
	}
	// A baseline incarnation, then three restarts inside the window.
	for i, at := range []time.Duration{20, 22, 24, 26} {
		if err := g.ObserveHeartbeat(hb("dc-flap", t0.Add(at*time.Minute), uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	now := t0.Add(26 * time.Minute)
	if got := g.StateOf("dc-silent"); got != StateSilent {
		t.Fatalf("dc-silent state %v, want silent", got)
	}
	if got := g.StateOf("dc-flap"); got != StateFlapping {
		t.Fatalf("dc-flap state %v, want flapping", got)
	}
	for _, age := range []time.Duration{0, 90 * time.Minute, 3 * time.Hour, 4*time.Hour + 59*time.Minute} {
		report := now.Add(-age)
		byAge := g.Reliability("dc-never", report)
		if age > 0 && byAge == 1 {
			t.Fatalf("age %v: age factor 1, want the ramp", age)
		}
		for _, dc := range []string{"dc-silent", "dc-flap"} {
			if got := g.Reliability(dc, report); math.Float64bits(got) != math.Float64bits(0.5*byAge) {
				t.Errorf("%s at age %v: reliability %v, want 0.5 × %v", dc, age, got, byAge)
			}
		}
	}
}

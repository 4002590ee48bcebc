package dc

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chiller"
	"repro/internal/proto"
)

// collector is a Sink recording everything delivered.
type collector struct {
	mu      sync.Mutex
	reports []*proto.Report
	fail    bool
}

func (c *collector) Deliver(r *proto.Report) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fail {
		return fmt.Errorf("uplink down")
	}
	c.reports = append(c.reports, r)
	return nil
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.reports)
}

func (c *collector) byCondition(cond string) []*proto.Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*proto.Report
	for _, r := range c.reports {
		if r.MachineConditionID == cond {
			out = append(out, r)
		}
	}
	return out
}

func newTestDC(t testing.TB, faults map[chiller.Fault]float64) (*DC, *chiller.Plant, *collector) {
	t.Helper()
	cfg := chiller.DefaultConfig()
	cfg.Seed = 31
	plant, err := chiller.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for f, s := range faults {
		if err := plant.SetFault(f, s); err != nil {
			t.Fatal(err)
		}
	}
	sink := &collector{}
	d, err := New(DefaultConfig("dc-1", "chiller/1"), plant, nil, sink)
	if err != nil {
		t.Fatal(err)
	}
	return d, plant, sink
}

func TestSchedulerOrderAndPeriodicity(t *testing.T) {
	start := time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC)
	s := NewScheduler(start)
	var order []string
	add := func(name string, interval, delay time.Duration) {
		if err := s.Schedule(&Task{
			Name: name, Interval: interval,
			Run: func(now time.Time) error {
				order = append(order, fmt.Sprintf("%s@%s", name, now.Sub(start)))
				return nil
			},
		}, delay); err != nil {
			t.Fatal(err)
		}
	}
	add("a", 10*time.Minute, 0)
	add("b", 20*time.Minute, 15*time.Minute) // next due at 35m, past the end
	if err := s.RunUntil(start.Add(30 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	want := []string{"a@0s", "a@10m0s", "b@15m0s", "a@20m0s", "a@30m0s"}
	if len(order) != len(want) {
		t.Fatalf("got %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("event %d: %s, want %s", i, order[i], want[i])
		}
	}
	if s.Pending() != 2 {
		t.Errorf("pending %d (a and b should remain)", s.Pending())
	}
	if !s.Now().Equal(start.Add(30 * time.Minute)) {
		t.Errorf("clock %v", s.Now())
	}
	// Validation.
	if err := s.Schedule(nil, 0); err == nil {
		t.Error("nil task")
	}
	if err := s.Schedule(&Task{Name: "x", Interval: time.Minute, Run: func(time.Time) error { return nil }}, -time.Second); err == nil {
		t.Error("negative delay")
	}
	for _, interval := range []time.Duration{0, -time.Minute} {
		if err := s.Schedule(&Task{Name: "x", Interval: interval, Run: func(time.Time) error { return nil }}, 0); err == nil {
			t.Errorf("interval %v accepted", interval)
		}
	}
	// Task errors abort.
	if err := s.Schedule(&Task{Name: "boom", Interval: time.Hour, Run: func(time.Time) error { return fmt.Errorf("boom") }}, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(s.Now().Add(time.Minute)); err == nil {
		t.Error("task error should propagate")
	}
}

func TestSchedulerDeterministicTieBreak(t *testing.T) {
	start := time.Unix(0, 0)
	s := NewScheduler(start)
	var order []string
	for _, name := range []string{"first", "second", "third"} {
		name := name
		if err := s.Schedule(&Task{Name: name, Interval: time.Hour, Run: func(time.Time) error {
			order = append(order, name)
			return nil
		}}, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RunUntil(start.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if order[0] != "first" || order[1] != "second" || order[2] != "third" {
		t.Errorf("tie-break order %v", order)
	}
}

// TestFailedScanStaysScheduled: a scan whose run fails once (at 00:30)
// fails its RunFor, but the scan stays on the schedule: the next RunFor runs
// it every thirty minutes again. The failed run is not counted.
func TestFailedScanStaysScheduled(t *testing.T) {
	plant, err := chiller.New(chiller.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig("dc-1", "chiller/1")
	d, err := New(cfg, plant, nil, &collector{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	failAt := cfg.Start.Add(30 * time.Minute)
	if err := d.Scheduler().Schedule(&Task{Name: "flaky-scan", Interval: 30 * time.Minute, Run: func(now time.Time) error {
		if now.Equal(failAt) {
			return fmt.Errorf("transient acquisition fault")
		}
		return d.RunProcessScan(now)
	}}, 0); err != nil {
		t.Fatal(err)
	}
	scans := func() int64 {
		for _, st := range d.Scheduler().Statuses() {
			if st.Name == "flaky-scan" {
				return st.Runs
			}
		}
		return 0
	}
	if err := d.RunFor(3 * time.Hour); err == nil || !strings.Contains(err.Error(), `"flaky-scan"`) {
		t.Fatalf("first RunFor: %v, want the flaky scan's error", err)
	}
	before := scans()
	if before != 1 {
		t.Fatalf("%d scans counted before the failed one, want 1", before)
	}
	if err := d.RunFor(3 * time.Hour); err != nil {
		t.Fatalf("second RunFor: %v", err)
	}
	if more := scans() - before; more < 6 {
		t.Fatalf("%d scans after the failed one, want at least 6", more)
	}
}

func TestMuxGeometry(t *testing.T) {
	// The paper's geometry: banks 0-7 of 4 lanes, bank 7 lane 3 is channel 31.
	m := NewMux()
	if err := m.SelectBank(7); err != nil {
		t.Fatal(err)
	}
	if err := m.SelectBank(8); err == nil {
		t.Error("bank out of range")
	}
	ch, err := m.ChannelOf(3)
	if err != nil || ch != 31 {
		t.Errorf("channel mapping %d %v", ch, err)
	}
	for _, lane := range []int{-1, 4} {
		if _, err := m.ChannelOf(lane); err == nil {
			t.Errorf("lane %d out of range", lane)
		}
	}
}

func TestNewDCValidation(t *testing.T) {
	plant, err := chiller.New(chiller.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sink := &collector{}
	good := DefaultConfig("dc-1", "chiller/1")
	bad := []Config{
		func() Config { c := good; c.ID = ""; return c }(),
		func() Config { c := good; c.ObjectID = ""; return c }(),
		func() Config { c := good; c.FrameLen = 10; return c }(),
		func() Config { c := good; c.VibrationInterval = 0; return c }(),
		func() Config { c := good; c.ProcessInterval = 0; return c }(),
	}
	for i, c := range bad {
		if _, err := New(c, plant, nil, sink); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := New(good, nil, nil, sink); err == nil {
		t.Error("nil source")
	}
	if _, err := New(good, plant, nil, nil); err == nil {
		t.Error("nil uplink")
	}
}

func TestHealthyRunProducesNoReports(t *testing.T) {
	d, _, sink := newTestDC(t, nil)
	if err := d.RunFor(24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if sink.count() != 0 {
		t.Fatalf("healthy plant produced %d reports", sink.count())
	}
	// But features were recorded: 24h/4h = 7 vibration tests (including
	// t=0), each appending one sample per feature channel.
	for _, feat := range VibFeatures {
		ch := VibChannel(chiller.MotorDE, feat)
		samples, err := d.Historian().QueryAll(ch)
		if err != nil {
			t.Fatal(err)
		}
		if len(samples) != 7 {
			t.Errorf("%s holds %d samples, want 7", ch, len(samples))
		}
	}
}

func TestFaultyRunEmitsReports(t *testing.T) {
	d, _, sink := newTestDC(t, map[chiller.Fault]float64{
		chiller.MotorImbalance:       0.8,
		chiller.RefrigerantLowCharge: 0.8,
	})
	if err := d.RunFor(8 * time.Hour); err != nil {
		t.Fatal(err)
	}
	imb := sink.byCondition(chiller.MotorImbalance.String())
	if len(imb) == 0 {
		t.Error("no imbalance reports")
	}
	low := sink.byCondition(chiller.RefrigerantLowCharge.String())
	if len(low) == 0 {
		t.Error("no low-charge reports")
	}
	for _, r := range append(imb, low...) {
		if err := r.Validate(); err != nil {
			t.Errorf("invalid report: %v", err)
		}
		if r.DCID != "dc-1" || r.SensedObjectID != "chiller/1" {
			t.Errorf("report identity: %+v", r)
		}
	}
	if d.ReportsSent() != sink.count() {
		t.Errorf("sent counter %d != delivered %d", d.ReportsSent(), sink.count())
	}
	// Local persistence mirrors the stream.
	if stored := d.StoredReports(""); len(stored) != sink.count() {
		t.Errorf("stored %d != delivered %d", len(stored), sink.count())
	}
	if byCond := d.StoredReports(chiller.MotorImbalance.String()); len(byCond) != len(imb) {
		t.Errorf("stored by condition %d want %d", len(byCond), len(imb))
	}
}

func TestUplinkFailureIsRecordedLocally(t *testing.T) {
	d, _, sink := newTestDC(t, map[chiller.Fault]float64{chiller.MotorImbalance: 0.8})
	sink.fail = true
	if err := d.RunFor(4 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if d.ReportErrors() == 0 {
		t.Fatal("no delivery errors recorded")
	}
	if d.ReportsSent() != 0 {
		t.Error("sent counter should be zero")
	}
	stored := d.StoredReports("")
	if len(stored) == 0 {
		t.Fatal("reports must persist locally when the uplink is down")
	}
	for _, r := range stored {
		if r.Delivered {
			t.Error("delivered flag should be false")
		}
	}
}

func TestDegradationScenarioEscalates(t *testing.T) {
	// Attach a degradation profile and verify that reported severity grades
	// escalate over the run — the condition-based maintenance story end to
	// end on one DC.
	d, plant, sink := newTestDC(t, nil)
	deg, err := chiller.NewDegrader(plant, []chiller.DegradationProfile{
		{Fault: chiller.MotorImbalance, OnsetHours: 0, GrowthHours: 72, Shape: chiller.Linear},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Scheduler().Schedule(&Task{
		Name: "degrade", Interval: time.Hour,
		Run: func(time.Time) error { return deg.Advance(1) },
	}, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.RunFor(72 * time.Hour); err != nil {
		t.Fatal(err)
	}
	reports := sink.byCondition(chiller.MotorImbalance.String())
	if len(reports) < 3 {
		t.Fatalf("only %d imbalance reports over degradation run", len(reports))
	}
	first, last := reports[0], reports[len(reports)-1]
	if last.Severity <= first.Severity {
		t.Errorf("severity did not escalate: %.2f -> %.2f", first.Severity, last.Severity)
	}
	if g0, g1 := proto.GradeSeverity(first.Severity), proto.GradeSeverity(last.Severity); g1 <= g0 {
		t.Errorf("grade did not escalate: %v -> %v", g0, g1)
	}
}

// TestAcquire: Acquire runs the vibration test's acquire phase, so a frozen
// point's frames reach the channel guard through it.
func TestAcquire(t *testing.T) {
	plant, err := chiller.New(chiller.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	src := &frozenSource{Source: plant, pt: chiller.GearBox}
	d, err := New(DefaultConfig("dc-1", "chiller/1"), src, nil, &collector{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	samples, err := d.Acquire(3)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(3 * chiller.NumPoints * d.cfg.FrameLen); samples != want {
		t.Errorf("samples %d, want %d", samples, want)
	}
	if got := d.Guard().Suspects(); len(got) != 1 || got[0] != "vib/gearbox" {
		t.Errorf("suspects %v, want the frozen gearbox channel", got)
	}
}

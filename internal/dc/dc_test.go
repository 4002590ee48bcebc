package dc

import (
	"fmt"
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
	add("b", 0, 15*time.Minute) // one-shot
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
	if s.Pending() != 1 {
		t.Errorf("pending %d (periodic a should remain)", s.Pending())
	}
	if !s.Now().Equal(start.Add(30 * time.Minute)) {
		t.Errorf("clock %v", s.Now())
	}
	// Validation.
	if err := s.Schedule(nil, 0); err == nil {
		t.Error("nil task")
	}
	if err := s.Schedule(&Task{Name: "x", Run: func(time.Time) error { return nil }}, -time.Second); err == nil {
		t.Error("negative delay")
	}
	// Task errors abort.
	if err := s.Schedule(&Task{Name: "boom", Run: func(time.Time) error { return fmt.Errorf("boom") }}, 0); err != nil {
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
		if err := s.Schedule(&Task{Name: name, Run: func(time.Time) error {
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

func TestMuxGeometry(t *testing.T) {
	m := NewMux()
	if m.Channels() != 32 || m.Banks() != 8 || m.BankSize() != 4 {
		t.Fatalf("paper geometry: %d channels %d banks", m.Channels(), m.Banks())
	}
	if err := m.SelectBank(7); err != nil {
		t.Fatal(err)
	}
	if m.SelectedBank() != 7 {
		t.Error("selected bank")
	}
	if err := m.SelectBank(8); err == nil {
		t.Error("bank out of range")
	}
	ch, err := m.ChannelOf(3)
	if err != nil || ch != 31 {
		t.Errorf("channel mapping %d %v", ch, err)
	}
	if _, err := m.ChannelOf(4); err == nil {
		t.Error("lane out of range")
	}
	loud := make([]float64, 256)
	for i := range loud {
		loud[i] = 2
	}
	level, err := m.Ingest(3, loud)
	if err != nil || level != 2 {
		t.Errorf("rms %g err=%v", level, err)
	}
	if _, err := m.Ingest(4, loud); err == nil {
		t.Error("ingest lane out of range")
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
	if last.Grade() <= first.Grade() {
		t.Errorf("grade did not escalate: %v -> %v", first.Grade(), last.Grade())
	}
}

func TestIngestThroughput(t *testing.T) {
	d, _, _ := newTestDC(t, nil)
	samples, err := d.IngestThroughput(4096, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(4096 * 3 * 32)
	if samples != want {
		t.Errorf("samples %d, want %d", samples, want)
	}
}

func BenchmarkIngestPath(b *testing.B) {
	plant, err := chiller.New(chiller.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	d, err := New(DefaultConfig("dc-b", "chiller/1"), plant, nil, &collector{})
	if err != nil {
		b.Fatal(err)
	}
	const frameLen = 4096
	b.SetBytes(frameLen * 32 * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.IngestThroughput(frameLen, 1); err != nil {
			b.Fatal(err)
		}
	}
}

package dc

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/chiller"
	"repro/internal/proto"
)

func sineFrame(n int, amp, phase float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = amp * math.Sin(phase+float64(i)*0.37)
	}
	return out
}

func TestGuardHealthyFramePasses(t *testing.T) {
	g := NewChannelGuard(GuardConfig{})
	for i := 0; i < 10; i++ {
		// Phase drifts: consecutive frames differ like a live sensor's.
		if v := g.InspectFrame("vib/motor-de", sineFrame(2048, 1.0, float64(i))); v != "" {
			t.Fatalf("healthy frame %d flagged: %s", i, v)
		}
	}
	if got := g.Suspects(); len(got) != 0 {
		t.Fatalf("suspects: %v", got)
	}
}

func TestGuardFlatlineStuck(t *testing.T) {
	g := NewChannelGuard(GuardConfig{StuckFrames: 3})
	flat := make([]float64, 1024)
	for i := range flat {
		flat[i] = 2.5 // stuck at a non-zero DC level: not a dropout
	}
	verdicts := make([]string, 0, 3)
	for i := 0; i < 3; i++ {
		verdicts = append(verdicts, g.InspectFrame("ch", flat))
	}
	if verdicts[0] != "" || verdicts[1] != "" {
		t.Fatalf("flagged before threshold: %v", verdicts)
	}
	if !strings.HasPrefix(verdicts[2], "stuck-at") {
		t.Fatalf("third flat frame verdict %q, want stuck-at", verdicts[2])
	}
	// Recovery: one live frame clears the channel.
	if v := g.InspectFrame("ch", sineFrame(1024, 1.0, 0)); v != "" {
		t.Fatalf("live frame still flagged: %s", v)
	}
	if g.Suspect("ch") != "" {
		t.Fatal("channel should have recovered")
	}
}

func TestGuardRepeatedFrameStuck(t *testing.T) {
	// A live-looking waveform replayed identically is a stuck acquisition
	// path even though it is not flat.
	g := NewChannelGuard(GuardConfig{StuckFrames: 3})
	frame := sineFrame(2048, 1.0, 0.5)
	var last string
	for i := 0; i < 3; i++ {
		last = g.InspectFrame("ch", frame)
	}
	if !strings.HasPrefix(last, "stuck-at") {
		t.Fatalf("replayed frame verdict %q, want stuck-at", last)
	}
}

func TestGuardDropout(t *testing.T) {
	g := NewChannelGuard(GuardConfig{})
	frame := sineFrame(1000, 1.0, 0)
	for i := 300; i < 700; i++ { // 40% zeros
		frame[i] = 0
	}
	if v := g.InspectFrame("ch", frame); !strings.HasPrefix(v, "dropout") {
		t.Fatalf("verdict %q, want dropout", v)
	}
	if v := g.InspectFrame("ch", nil); !strings.HasPrefix(v, "dropout") {
		t.Fatalf("empty frame verdict %q, want dropout", v)
	}
}

func TestGuardSpike(t *testing.T) {
	g := NewChannelGuard(GuardConfig{})
	frame := sineFrame(4096, 0.1, 0)
	frame[100] = 50 // ~700x the RMS: a connector hit, not machinery
	if v := g.InspectFrame("ch", frame); !strings.HasPrefix(v, "spike") {
		t.Fatalf("verdict %q, want spike", v)
	}
	nan := sineFrame(1024, 1.0, 0)
	nan[5] = math.NaN()
	if v := g.InspectFrame("ch", nan); !strings.HasPrefix(v, "invalid") {
		t.Fatalf("verdict %q, want invalid", v)
	}
}

func TestGuardScalarStuck(t *testing.T) {
	g := NewChannelGuard(GuardConfig{StuckFrames: 3})
	// A steady-but-jittering plant reading never trips the guard.
	for i := 0; i < 10; i++ {
		if v := g.InspectValue("proc/evap_temp", 4.2+float64(i%3)*1e-6); v != "" {
			t.Fatalf("jittering scalar flagged: %s", v)
		}
	}
	// A channel constant since boot never trips: it is indistinguishable
	// from a setpoint.
	for i := 0; i < 10; i++ {
		if v := g.InspectValue("proc/setpoint", 7.0); v != "" {
			t.Fatalf("boot-constant scalar flagged: %s", v)
		}
	}
	// A channel that varied and then froze does trip.
	if v := g.InspectValue("proc/cond_pressure", 11.0); v != "" {
		t.Fatalf("first reading flagged: %s", v)
	}
	var last string
	for i := 0; i < 3; i++ {
		last = g.InspectValue("proc/cond_pressure", 11.25)
	}
	if !strings.HasPrefix(last, "stuck-at") {
		t.Fatalf("frozen scalar verdict %q, want stuck-at", last)
	}
	if v := g.InspectValue("proc/flow", math.Inf(1)); !strings.HasPrefix(v, "invalid") {
		t.Fatalf("verdict %q, want invalid", v)
	}
	if got := g.Suspects(); len(got) != 2 {
		t.Fatalf("suspects %v, want cond_pressure and flow", got)
	}
}

// frozenSource replays the first acquired frame for one measurement point
// forever — a stuck acquisition path in front of a genuinely faulty machine.
type frozenSource struct {
	Source
	pt     chiller.MeasurementPoint
	cached []float64
}

func (f *frozenSource) AcquireVibration(pt chiller.MeasurementPoint, n int) ([]float64, error) {
	if pt != f.pt {
		return f.Source.AcquireVibration(pt, n)
	}
	if f.cached == nil {
		frame, err := f.Source.AcquireVibration(pt, n)
		if err != nil {
			return nil, err
		}
		f.cached = frame
	}
	return append([]float64(nil), f.cached...), nil
}

func TestStuckChannelQuarantinesReports(t *testing.T) {
	cfg := chiller.DefaultConfig()
	cfg.Seed = 31
	plant, err := chiller.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := plant.SetFault(chiller.MotorImbalance, 0.8); err != nil {
		t.Fatal(err)
	}
	src := &frozenSource{Source: plant, pt: chiller.MotorDE}
	sink := &collector{}
	d, err := New(DefaultConfig("dc-1", "chiller/1"), src, nil, sink)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Vibration tests run every 4h; three runs arm the stuck detector.
	if err := d.RunFor(16 * time.Hour); err != nil {
		t.Fatal(err)
	}
	imb := sink.byCondition(chiller.MotorImbalance.String())
	if len(imb) == 0 {
		t.Fatal("no imbalance reports")
	}
	var clean, quarantined []*proto.Report
	for _, r := range imb {
		if len(r.SuspectChannels) > 0 {
			quarantined = append(quarantined, r)
		} else {
			clean = append(clean, r)
		}
	}
	if len(clean) == 0 {
		t.Error("early reports (before the detector arms) should be clean")
	}
	if len(quarantined) == 0 {
		t.Fatal("no quarantined reports after the channel froze")
	}
	cap := d.Guard().Cap()
	for _, r := range quarantined {
		if r.Belief > cap {
			t.Errorf("quarantined belief %g exceeds cap %g", r.Belief, cap)
		}
		if r.SuspectChannels[0] != "vib/motor-de" {
			t.Errorf("suspect channels %v", r.SuspectChannels)
		}
		if !strings.Contains(r.AdditionalInfo, "suspect") {
			t.Errorf("additional info lacks explanation: %q", r.AdditionalInfo)
		}
		if err := r.Validate(); err != nil {
			t.Errorf("quarantined report invalid: %v", err)
		}
	}
	if got := d.Guard().Suspects(); len(got) != 1 || got[0] != "vib/motor-de" {
		t.Errorf("guard suspects %v", got)
	}
}

// hbRecorder implements HeartbeatUplink plus proto.Sink.
type hbRecorder struct {
	collector
	hbs []*proto.Heartbeat
}

func (h *hbRecorder) SendHeartbeat(hb *proto.Heartbeat) error {
	h.hbs = append(h.hbs, hb)
	return nil
}

func TestDCHeartbeatTask(t *testing.T) {
	cfg := chiller.DefaultConfig()
	cfg.Seed = 31
	plant, err := chiller.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink := &hbRecorder{}
	dcfg := DefaultConfig("dc-1", "chiller/1")
	dcfg.HeartbeatInterval = time.Hour
	d, err := New(dcfg, plant, nil, sink)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.RunFor(4 * time.Hour); err != nil {
		t.Fatal(err)
	}
	// t=0,1h,2h,3h,4h inclusive.
	if len(sink.hbs) != 5 || d.HeartbeatsSent() != 5 {
		t.Fatalf("heartbeats %d / counter %d, want 5", len(sink.hbs), d.HeartbeatsSent())
	}
	last := sink.hbs[len(sink.hbs)-1]
	if last.DCID != "dc-1" {
		t.Errorf("heartbeat DCID %q", last.DCID)
	}
	if !last.SentAt.Equal(dcfg.Start.Add(4 * time.Hour)) {
		t.Errorf("heartbeat SentAt %v", last.SentAt)
	}
	// Suites reflect scheduler status, excluding the heartbeat task itself.
	names := map[string]proto.SuiteStatus{}
	for _, s := range last.Suites {
		names[s.Name] = s
	}
	if _, ok := names[heartbeatTask]; ok {
		t.Error("heartbeat task should not self-report as a suite")
	}
	vib, ok := names["vibration-test"]
	if !ok || vib.Runs != 2 || !vib.LastRun.Equal(dcfg.Start.Add(4*time.Hour)) {
		t.Errorf("vibration-test suite status %+v", vib)
	}
	// At t=4h the heartbeat fires before the process scan due at the same
	// instant (scheduler seq order), so it reports the 3:30 run.
	if ps, ok := names["process-scan"]; !ok || ps.Runs != 8 {
		t.Errorf("process-scan suite status %+v (want 8 runs seen at the 4h heartbeat)", ps)
	}
}

func TestDCNoHeartbeatWithoutCapability(t *testing.T) {
	// A plain Sink uplink: the heartbeat task is a no-op, not an error.
	cfg := chiller.DefaultConfig()
	cfg.Seed = 31
	plant, err := chiller.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink := &collector{}
	dcfg := DefaultConfig("dc-1", "chiller/1")
	dcfg.HeartbeatInterval = time.Hour
	d, err := New(dcfg, plant, nil, sink)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.RunFor(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if d.HeartbeatsSent() != 0 {
		t.Fatalf("heartbeats sent %d over a non-heartbeat sink", d.HeartbeatsSent())
	}
}

func TestSchedulerStatuses(t *testing.T) {
	s := NewScheduler(time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC))
	runs := 0
	if err := s.Schedule(&Task{Name: "b-task", Interval: time.Hour, Run: func(time.Time) error { runs++; return nil }}, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Schedule(&Task{Name: "a-task", Interval: 2 * time.Hour, Run: func(time.Time) error { return nil }}, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(s.Now().Add(3 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	sts := s.Statuses()
	if len(sts) != 2 || sts[0].Name != "a-task" || sts[1].Name != "b-task" {
		t.Fatalf("statuses %+v, want sorted by name", sts)
	}
	if sts[1].Runs != 4 || !sts[1].LastRun.Equal(s.Now()) {
		t.Fatalf("b-task status %+v, want 4 runs ending now", sts[1])
	}
	if sts[0].Runs != 2 {
		t.Fatalf("a-task runs %d, want 2", sts[0].Runs)
	}
}

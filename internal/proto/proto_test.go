package proto

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func validReport() *Report {
	return &Report{
		DCID:               "dc-1",
		KnowledgeSourceID:  "ks/dli",
		SensedObjectID:     "motor/1",
		MachineConditionID: "motor imbalance",
		Severity:           0.6,
		Belief:             0.9,
		Explanation:        "1x radial vibration elevated",
		Recommendations:    "balance rotor at next availability",
		Timestamp:          time.Date(1998, 8, 15, 12, 0, 0, 0, time.UTC),
		Prognostics: PrognosticVector{
			{Probability: 0.1, HorizonSeconds: 14 * 86400},
			{Probability: 0.5, HorizonSeconds: 30 * 86400},
			{Probability: 0.9, HorizonSeconds: 60 * 86400},
		},
	}
}

func TestSeverityGrading(t *testing.T) {
	cases := []struct {
		sev  float64
		want SeverityGrade
	}{
		{0, SeverityNone}, {-0.1, SeverityNone},
		{0.1, SeveritySlight}, {0.24, SeveritySlight},
		{0.25, SeverityModerate}, {0.49, SeverityModerate},
		{0.5, SeveritySerious}, {0.74, SeveritySerious},
		{0.75, SeverityExtreme}, {1.0, SeverityExtreme},
	}
	for _, c := range cases {
		if got := GradeSeverity(c.sev); got != c.want {
			t.Errorf("GradeSeverity(%g) = %v, want %v", c.sev, got, c.want)
		}
	}
	names := map[SeverityGrade]string{
		SeverityNone: "None", SeveritySlight: "Slight", SeverityModerate: "Moderate",
		SeveritySerious: "Serious", SeverityExtreme: "Extreme", SeverityGrade(99): "Unknown",
	}
	for g, want := range names {
		if g.String() != want {
			t.Errorf("%d: %q", g, g.String())
		}
	}
}

func TestPrognosticVectorValidate(t *testing.T) {
	good := PrognosticVector{{0.1, 100}, {0.5, 200}, {0.9, 300}}
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
	if err := (PrognosticVector{}).Validate(); err != nil {
		t.Error("empty vector should validate")
	}
	bad := []PrognosticVector{
		{{-0.1, 100}},
		{{1.1, 100}},
		{{math.NaN(), 100}},
		{{0.5, 0}},
		{{0.5, -10}},
		{{0.5, math.Inf(1)}},
		{{0.1, 200}, {0.5, 100}}, // horizons decrease
		{{0.5, 100}, {0.1, 200}}, // probability decreases
		{{0.1, 100}, {0.2, 100}}, // duplicate horizon
	}
	for i, v := range bad {
		if err := v.Validate(); err == nil {
			t.Errorf("bad vector %d should fail: %v", i, v)
		}
	}
}

func TestProbabilityAtInterpolation(t *testing.T) {
	v := PrognosticVector{
		{Probability: 0.1, HorizonSeconds: 100},
		{Probability: 0.5, HorizonSeconds: 200},
	}
	if got := v.ProbabilityAt(0); got != 0 {
		t.Errorf("t=0: %g", got)
	}
	// Interpolation from implicit (0,0) to first point.
	if got := v.ProbabilityAt(50 * time.Second); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("t=50: %g", got)
	}
	if got := v.ProbabilityAt(100 * time.Second); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("t=100: %g", got)
	}
	if got := v.ProbabilityAt(150 * time.Second); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("t=150: %g", got)
	}
	// Extrapolation continues the last slope, clamped at 1.
	if got := v.ProbabilityAt(300 * time.Second); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("t=300: %g", got)
	}
	if got := v.ProbabilityAt(10000 * time.Second); got != 1 {
		t.Errorf("t=10000: %g, want clamp to 1", got)
	}
	// Single point: slope from origin.
	single := PrognosticVector{{Probability: 0.5, HorizonSeconds: 100}}
	if got := single.ProbabilityAt(200 * time.Second); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("single extrapolation: %g", got)
	}
	if got := (PrognosticVector{}).ProbabilityAt(time.Hour); got != 0 {
		t.Errorf("empty vector: %g", got)
	}
}

func TestProbabilityAtMonotoneProperty(t *testing.T) {
	// Property: the interpolated curve is monotone non-decreasing in t for
	// any valid vector.
	prop := func(seed int64) bool {
		rng := newRand(seed)
		v := randomVector(rng)
		if v.Validate() != nil {
			return true
		}
		prev := -1.0
		for ts := 0.0; ts < 500; ts += 7 {
			p := v.ProbabilityAt(time.Duration(ts * float64(time.Second)))
			if p < prev-1e-12 || p < 0 || p > 1 {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeToProbability(t *testing.T) {
	v := PrognosticVector{{Probability: 0.5, HorizonSeconds: 100}}
	d, ok := v.TimeToProbability(0.25, 200*time.Second)
	if !ok {
		t.Fatal("should reach 0.25")
	}
	if d < 45*time.Second || d > 55*time.Second {
		t.Errorf("time to 0.25: %v", d)
	}
	if _, ok := (PrognosticVector{}).TimeToProbability(0.5, time.Hour); ok {
		t.Error("empty vector reaches nothing")
	}
	flat := PrognosticVector{{Probability: 0.0, HorizonSeconds: 100}, {Probability: 0.0, HorizonSeconds: 200}}
	if _, ok := flat.TimeToProbability(0.5, 150*time.Second); ok {
		t.Error("flat-zero vector cannot reach 0.5 within range")
	}
}

func TestReportValidate(t *testing.T) {
	if err := validReport().Validate(); err != nil {
		t.Fatal(err)
	}
	mut := func(f func(*Report)) *Report {
		r := validReport()
		f(r)
		return r
	}
	bad := []*Report{
		mut(func(r *Report) { r.KnowledgeSourceID = "" }),
		mut(func(r *Report) { r.SensedObjectID = "" }),
		mut(func(r *Report) { r.MachineConditionID = "" }),
		mut(func(r *Report) { r.Severity = 1.5 }),
		mut(func(r *Report) { r.Severity = math.NaN() }),
		mut(func(r *Report) { r.Belief = -0.1 }),
		mut(func(r *Report) { r.Timestamp = time.Time{} }),
		mut(func(r *Report) { r.Prognostics = PrognosticVector{{2, 100}} }),
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad report %d should fail", i)
		}
	}
	if GradeSeverity(validReport().Severity) != SeveritySerious {
		t.Error("grade of severity 0.6")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := envelope{Kind: "report", Report: validReport()}
	if err := writeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, _, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != "report" || out.Report == nil || out.Report.MachineConditionID != "motor imbalance" {
		t.Fatalf("round trip: %+v", out)
	}
	if len(out.Report.Prognostics) != 3 {
		t.Error("prognostics lost")
	}
	// Corrupted length prefix is bounded.
	var bad bytes.Buffer
	bad.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, _, err := readFrame(&bad); err == nil {
		t.Error("oversized frame should error")
	}
	// Truncated body.
	var trunc bytes.Buffer
	trunc.Write([]byte{0, 0, 0, 10, 'x'})
	if _, _, err := readFrame(&trunc); err == nil {
		t.Error("truncated frame should error")
	}
	// Invalid JSON body.
	var badJSON bytes.Buffer
	badJSON.Write([]byte{0, 0, 0, 3})
	badJSON.WriteString("{{{")
	if _, _, err := readFrame(&badJSON); err == nil {
		t.Error("bad json should error")
	}
}

func TestClientServerRoundTrip(t *testing.T) {
	var received []*Report
	var mu sync.Mutex
	srv := NewServer(SinkFunc(func(r *Report) error {
		mu.Lock()
		received = append(received, r)
		mu.Unlock()
		return nil
	}))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 10; i++ {
		r := validReport()
		r.Severity = float64(i) / 10
		if err := c.Send(r); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	n := len(received)
	mu.Unlock()
	if n != 10 {
		t.Fatalf("received %d reports", n)
	}
	// Invalid report is rejected client-side before hitting the wire.
	bad := validReport()
	bad.Belief = 5
	if err := c.Send(bad); err == nil {
		t.Error("invalid report should not send")
	}
	// Sink failure surfaces as an error reply.
	srv2 := NewServer(SinkFunc(func(*Report) error { return fmt.Errorf("oosm unavailable") }))
	addr2, err := srv2.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	c2, err := Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Send(validReport()); err == nil {
		t.Error("sink failure should surface")
	}
}

func TestConcurrentClients(t *testing.T) {
	var count atomic.Int64
	srv := NewServer(SinkFunc(func(*Report) error {
		count.Add(1)
		return nil
	}))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			for i := 0; i < 25; i++ {
				if err := c.Send(validReport()); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if n := count.Load(); n != 200 {
		t.Fatalf("received %d, want 200", n)
	}
}

func TestServerCloseUnblocks(t *testing.T) {
	srv := NewServer(SinkFunc(func(*Report) error { return nil }))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(validReport()); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
	// Sends after close fail.
	if err := c.Send(validReport()); err == nil {
		t.Error("send after server close should fail")
	}
}

// newRand is a tiny deterministic generator for property tests, avoiding an
// extra math/rand import dance in each property.
type testRand struct{ state uint64 }

func newRand(seed int64) *testRand {
	return &testRand{state: uint64(seed)*2862933555777941757 + 3037000493}
}

func (r *testRand) next() uint64 {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return r.state
}

func (r *testRand) float() float64 { return float64(r.next()>>11) / float64(1<<53) }

func (r *testRand) intn(n int) int { return int(r.next() % uint64(n)) }

func randomVector(rng *testRand) PrognosticVector {
	n := rng.intn(5)
	v := make(PrognosticVector, 0, n)
	horizon := 0.0
	prob := 0.0
	for i := 0; i < n; i++ {
		horizon += 10 + rng.float()*100
		prob += rng.float() * (1 - prob) * 0.8
		v = append(v, PrognosticPoint{Probability: prob, HorizonSeconds: horizon})
	}
	return v
}

func BenchmarkProbabilityAt(b *testing.B) {
	v := validReport().Prognostics
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.ProbabilityAt(45 * 24 * time.Hour)
	}
}

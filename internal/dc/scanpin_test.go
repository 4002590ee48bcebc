package dc

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/chiller"
	"repro/internal/proto"
	"repro/internal/testkit"
	"repro/internal/wnn"
)

const (
	scanPinsFile = "testdata/scan_reports.sha256"
	vibPinsFile  = "testdata/vibration_reports.sha256"
)

// tamperedSource overrides chosen process channels of a live plant from a
// given scan on: frozen at the value they read then (a stuck transmitter),
// or replaced by a fixed reading (a non-finite one).
type tamperedSource struct {
	*chiller.Plant
	scans  int
	from   int
	freeze []string
	set    map[string]float64
	frozen chiller.ProcessState
}

func (s *tamperedSource) ProcessState() chiller.ProcessState {
	ps := s.Plant.ProcessState()
	s.scans++
	if s.scans < s.from {
		return ps
	}
	if s.scans == s.from {
		s.frozen = ps
	}
	vals := ProcessScalars(ps)
	frozen := ProcessScalars(s.frozen)
	for _, f := range s.freeze {
		vals[f] = frozen[f]
	}
	for f, v := range s.set {
		vals[f] = v
	}
	out, err := ProcessStateFromScalars(vals)
	if err != nil {
		panic(err)
	}
	return out
}

// scanPinCase is one seeded run of process and SBFR scans.
type scanPinCase struct {
	name   string
	faults map[chiller.Fault]float64
	load   float64
	tamper func(*chiller.Plant) Source
}

func scanPinCases() []scanPinCase {
	cases := []scanPinCase{{name: "healthy", load: 0.8}}
	for _, f := range []chiller.Fault{chiller.RefrigerantLowCharge, chiller.CondenserFouling, chiller.OilWhirl, chiller.MotorRotorBar} {
		for _, sev := range []float64{0.3, 0.6, 0.9} {
			for _, load := range []float64{0.5, 0.9} {
				cases = append(cases, scanPinCase{
					name:   fmt.Sprintf("%s@%.1f/load%.1f", strings.ReplaceAll(f.String(), " ", "-"), sev, load),
					faults: map[chiller.Fault]float64{f: sev},
					load:   load,
				})
			}
		}
	}
	both := map[chiller.Fault]float64{chiller.RefrigerantLowCharge: 0.9, chiller.CondenserFouling: 0.9}
	cases = append(cases,
		scanPinCase{name: "stuck", faults: both, load: 0.7, tamper: func(p *chiller.Plant) Source {
			// Three frozen channels whose table order differs from their
			// name order, so the notes' order is pinned too.
			return &tamperedSource{Plant: p, from: 20, freeze: []string{"superheat", "oil_pressure", "cond_pressure"}}
		}},
		scanPinCase{name: "nan", faults: both, load: 0.7, tamper: func(p *chiller.Plant) Source {
			return &tamperedSource{Plant: p, from: 30, set: map[string]float64{"superheat": math.NaN()}}
		}},
		scanPinCase{name: "inf", faults: both, load: 0.7, tamper: func(p *chiller.Plant) Source {
			return &tamperedSource{Plant: p, from: 30, set: map[string]float64{"cond_approach": math.Inf(1)}}
		}},
	)
	return cases
}

// runScanPinCase drives a DC through 240 SBFR scans with a process scan on
// every sixth. It returns one line per outcome in order — the SHA-256 of
// each emitted report's JSON, or a failed scan's error — and the reports.
func runScanPinCase(t *testing.T, c scanPinCase) ([]string, []*proto.Report) {
	t.Helper()
	pcfg := chiller.DefaultConfig()
	pcfg.Seed = 1
	plant, err := chiller.New(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	for f, s := range c.faults {
		if err := plant.SetFault(f, s); err != nil {
			t.Fatal(err)
		}
	}
	if err := plant.SetLoad(c.load); err != nil {
		t.Fatal(err)
	}
	var src Source = plant
	if c.tamper != nil {
		src = c.tamper(plant)
	}
	sink := &collector{}
	cfg := DefaultConfig("dc-pin", "chiller/1")
	cfg.EnableSBFR = true
	d, err := New(cfg, src, nil, sink)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var out []string
	taken := 0
	drain := func() {
		for _, r := range sink.reports[taken:] {
			out = append(out, jsonSum(t, r))
		}
		taken = len(sink.reports)
	}
	now := cfg.Start
	for i := range 240 {
		if i%6 == 0 {
			if err := d.RunProcessScan(now); err != nil {
				out = append(out, "error: "+err.Error())
			}
			drain()
		}
		if err := d.RunSBFRScan(now); err != nil {
			out = append(out, "error: "+err.Error())
		}
		drain()
		now = now.Add(DefaultSBFRInterval)
	}
	return out, sink.reports
}

// TestScanReportsPinned holds every report the process and SBFR scans emit
// — condition, severity and belief bits, explanation, suspect channels in
// order, additional info — and every failed scan's error to a SHA-256
// recorded in testdata, over every process-fault profile, a plant with
// three stuck process channels and one with a non-finite reading. Rewrite
// the file with -update only from a build whose reports are trusted.
func TestScanReportsPinned(t *testing.T) {
	var got []string
	for _, c := range scanPinCases() {
		lines, _ := runScanPinCase(t, c)
		for i, line := range lines {
			got = append(got, fmt.Sprintf("%s %d %s", c.name, i, line))
		}
	}
	testkit.Lines(t, scanPinsFile, got)
}

// jsonSum is the hex SHA-256 of v's JSON.
func jsonSum(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestScanPinsCoverQuarantineAndErrors checks that the pinned runs reach
// what they are there to pin: fuzzy and SBFR reports, reports quarantined
// by several process channels in name order, and reports quarantined by a
// non-finite reading that name its channel, with no scan failing. Every
// quarantined report is valid and capped at the believability cap.
func TestScanPinsCoverQuarantineAndErrors(t *testing.T) {
	nonFinite := map[string]string{"nan": "proc/superheat", "inf": "proc/cond_approach"}
	for _, c := range scanPinCases() {
		if c.tamper == nil {
			continue
		}
		lines, reports := runScanPinCase(t, c)
		for _, l := range lines {
			if strings.HasPrefix(l, "error: ") {
				t.Errorf("%s: %s", c.name, l)
			}
		}
		want := "proc/cond_pressure,proc/oil_pressure,proc/superheat"
		if ch, ok := nonFinite[c.name]; ok {
			want = ch
		}
		sources := map[string]int{}
		var quarantined int
		for _, r := range reports {
			sources[r.KnowledgeSourceID]++
			if len(r.SuspectChannels) > 0 {
				quarantined++
				if r.Belief > believabilityCap {
					t.Errorf("%s: quarantined belief %g above the cap", c.name, r.Belief)
				}
				if err := r.Validate(); err != nil {
					t.Errorf("%s: %v", c.name, err)
				}
				if got := strings.Join(r.SuspectChannels, ","); got != want {
					t.Errorf("%s: suspect channels %s, want %s", c.name, got, want)
				}
				if _, ok := nonFinite[c.name]; ok && !strings.Contains(r.AdditionalInfo, "invalid: non-finite reading") {
					t.Errorf("%s: additional info %q", c.name, r.AdditionalInfo)
				}
			}
		}
		if sources["ks/fuzzy"] == 0 || sources["ks/sbfr"] == 0 {
			t.Errorf("%s: reports by source %v, want fuzzy and SBFR", c.name, sources)
		}
		if quarantined == 0 {
			t.Errorf("%s: no quarantined report", c.name)
		}
	}
}

// pinWNN is the classifier the vibration pins attach, trained once.
var pinWNN = sync.OnceValues(func() (*wnn.ChillerClassifier, error) {
	return wnn.NewChillerClassifier(chiller.DefaultConfig(), 4096, 12, 3)
})

// sampleSource overwrites sample at of every frame acquired at point pt
// with v: a full-scale hit, or a non-finite sample.
type sampleSource struct {
	Source
	pt chiller.MeasurementPoint
	at int
	v  float64
}

func (s *sampleSource) AcquireVibration(pt chiller.MeasurementPoint, n int) ([]float64, error) {
	frame, err := s.Source.AcquireVibration(pt, n)
	if err == nil && pt == s.pt {
		frame[s.at] = s.v
	}
	return frame, err
}

// newVibPinDC builds a DC over a seeded plant with the given faults,
// acquiring 4096-sample frames, with the pinned WNN attached.
func newVibPinDC(t *testing.T, faults map[chiller.Fault]float64, wrap func(Source) Source) (*DC, *collector) {
	t.Helper()
	clf, err := pinWNN()
	if err != nil {
		t.Fatal(err)
	}
	pcfg := chiller.DefaultConfig()
	pcfg.Seed = 1
	plant, err := chiller.New(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	for f, s := range faults {
		if err := plant.SetFault(f, s); err != nil {
			t.Fatal(err)
		}
	}
	var src Source = plant
	if wrap != nil {
		src = wrap(plant)
	}
	cfg := DefaultConfig("dc-vibpin", "chiller/1")
	cfg.FrameLen = clf.FrameLen()
	sink := &collector{}
	d, err := New(cfg, src, nil, sink)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	if err := d.AttachWNN(clf); err != nil {
		t.Fatal(err)
	}
	return d, sink
}

// vibPinTests is how many vibration tests each pinned case runs: the third
// arms the stuck-frame verdict.
const vibPinTests = 5

var vibPinFaults = map[chiller.Fault]float64{chiller.MotorImbalance: 0.8, chiller.OilWhirl: 0.8}

// TestVibrationReportsPinned holds every report the vibration test emits —
// the rule engine's and the WNN's, quarantine notes and capped beliefs
// included — and every failed test's error to a SHA-256 recorded in
// testdata, with each point's stored feature samples, over a clean plant,
// two fault profiles, a stuck motor-de frame and a full-scale spike in it.
// Rewrite the file with -update only from a build whose reports are
// trusted.
func TestVibrationReportsPinned(t *testing.T) {
	cases := []struct {
		name   string
		faults map[chiller.Fault]float64
		wrap   func(Source) Source
	}{
		{"clean", nil, nil},
		{"imbalance+whirl", vibPinFaults, nil},
		{"bearing+gear", map[chiller.Fault]float64{chiller.MotorBearingOuter: 0.8, chiller.GearToothWear: 0.8}, nil},
		{"stuck", vibPinFaults, func(s Source) Source { return &frozenSource{Source: s, pt: chiller.MotorDE} }},
		{"spike", vibPinFaults, func(s Source) Source { return &sampleSource{Source: s, pt: chiller.MotorDE, at: 100, v: 1e6} }},
	}
	var got []string
	reached := map[string]int{}
	for _, c := range cases {
		d, sink := newVibPinDC(t, c.faults, c.wrap)
		now := d.cfg.Start
		for k := range vibPinTests {
			taken := len(sink.reports)
			if err := d.RunVibrationTest(now); err != nil {
				got = append(got, fmt.Sprintf("%s %d error: %v", c.name, k, err))
			}
			for _, r := range sink.reports[taken:] {
				got = append(got, fmt.Sprintf("%s %d %s", c.name, k, jsonSum(t, r)))
				reached[r.KnowledgeSourceID]++
				if len(r.SuspectChannels) > 0 {
					reached[c.name+" quarantined"]++
				}
			}
			now = now.Add(d.cfg.VibrationInterval)
		}
		for _, pt := range chiller.AllPoints() {
			var samples []any
			for _, ch := range vibChannels[pt] {
				s, err := d.Historian().QueryAll(ch)
				if err != nil {
					t.Fatal(err)
				}
				samples = append(samples, s)
			}
			got = append(got, fmt.Sprintf("%s features %s %s", c.name, pt, jsonSum(t, samples)))
		}
	}
	for _, want := range []string{"ks/dli", "ks/wnn", "stuck quarantined", "spike quarantined"} {
		if reached[want] == 0 {
			t.Errorf("no %s report: the pins do not cover it (%v)", want, reached)
		}
	}
	testkit.Lines(t, vibPinsFile, got)
}

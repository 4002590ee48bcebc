package dc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/chiller"
	"repro/internal/proto"
	"repro/internal/wnn"
)

// vibrationRun runs a seeded two-fault plant with SBFR on and the WNN
// attached for 24 virtual hours of hourly vibration tests at the given
// GOMAXPROCS, and returns every output the DC writes, each as JSON under a
// name: the delivered reports, the stored reports and every historian
// channel's samples. It also returns the reports themselves.
func vibrationRun(t *testing.T, procs int, clf *wnn.ChillerClassifier, wrap func(Source) Source) (map[string][]byte, []*proto.Report) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	pc := chiller.DefaultConfig()
	pc.Seed = 47
	plant, err := chiller.New(pc)
	if err != nil {
		t.Fatal(err)
	}
	for f, sev := range map[chiller.Fault]float64{chiller.MotorImbalance: 0.8, chiller.GearToothWear: 0.8} {
		if err := plant.SetFault(f, sev); err != nil {
			t.Fatal(err)
		}
	}
	var src Source = plant
	if wrap != nil {
		src = wrap(plant)
	}
	cfg := DefaultConfig("dc-par", "chiller/1")
	cfg.FrameLen = clf.FrameLen()
	cfg.EnableSBFR = true
	// Hourly tests give the comparison 25 of them to catch a reordering in.
	cfg.VibrationInterval = time.Hour
	sink := &collector{}
	d, err := New(cfg, src, nil, sink)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.AttachWNN(clf); err != nil {
		t.Fatal(err)
	}
	if err := d.RunFor(24 * time.Hour); err != nil {
		t.Fatal(err)
	}

	out := map[string][]byte{}
	put := func(name string, v any, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = b
	}
	put("reports", sink.reports, nil)
	put("stored reports", d.StoredReports(""), nil)
	for _, ch := range d.Historian().Channels() {
		samples, err := d.Historian().QueryAll(ch)
		put("historian "+ch, samples, err)
	}
	return out, sink.reports
}

// TestParallelVibrationTestMatchesSequential pins the vibration test's
// fan-out to its output: computing the points on four workers writes the
// same reports, stored reports and historian samples, byte for byte, as
// computing them on the calling goroutine alone. The stuck-channel case
// compares quarantine annotations and capped beliefs.
func TestParallelVibrationTestMatchesSequential(t *testing.T) {
	clf, err := pinWNN()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		wrap func(Source) Source
	}{
		{"plant", nil},
		{"stuck channel", func(s Source) Source { return &frozenSource{Source: s, pt: chiller.MotorDE} }},
	} {
		t.Run(c.name, func(t *testing.T) {
			seq, reports := vibrationRun(t, 1, clf, c.wrap)
			par, _ := vibrationRun(t, 4, clf, c.wrap)

			// The comparison must cover what the fan-out could reorder:
			// several WNN calls in one test, and (stuck) quarantined ones.
			wnnPerTest := map[time.Time]int{}
			most, suspect := 0, 0
			for _, r := range reports {
				if r.KnowledgeSourceID == "ks/wnn" {
					wnnPerTest[r.Timestamp]++
					most = max(most, wnnPerTest[r.Timestamp])
				}
				if len(r.SuspectChannels) > 0 {
					suspect++
				}
			}
			if most < 2 {
				t.Fatalf("no vibration test made two WNN calls (most %d); bank order is not compared", most)
			}
			if c.wrap != nil && suspect == 0 {
				t.Fatal("no quarantined report; the stuck channel is not compared")
			}

			if len(par) != len(seq) {
				t.Fatalf("parallel run wrote %d outputs, sequential %d", len(par), len(seq))
			}
			for name, want := range seq {
				if got := par[name]; !bytes.Equal(got, want) {
					t.Errorf("%s differ at GOMAXPROCS 4:\n got %.300s\nwant %.300s", name, got, want)
				}
			}
		})
	}
}

// failingSource makes one vibration acquisition go wrong: at point fail of
// every test it either errors or, when short is set, returns a frame one
// sample short of what was asked.
type failingSource struct {
	Source
	fail  chiller.MeasurementPoint
	short bool
}

func (s *failingSource) AcquireVibration(pt chiller.MeasurementPoint, n int) ([]float64, error) {
	if pt != s.fail {
		return s.Source.AcquireVibration(pt, n)
	}
	if !s.short {
		return nil, fmt.Errorf("acquisition at %s failed", pt)
	}
	return s.Source.AcquireVibration(pt, n-1)
}

// TestFailedVibrationTestWritesNothing: a test that fails at one point, in
// acquisition or in a point's compute, leaves no historian sample or report
// for the points before it either.
func TestFailedVibrationTestWritesNothing(t *testing.T) {
	for _, short := range []bool{false, true} {
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("short=%v/GOMAXPROCS=%d", short, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				plant, err := chiller.New(chiller.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				if err := plant.SetFault(chiller.MotorImbalance, 0.8); err != nil {
					t.Fatal(err)
				}
				sink := &collector{}
				src := &failingSource{Source: plant, fail: chiller.MeasurementPoint(2), short: short}
				d, err := New(DefaultConfig("dc-fail", "chiller/1"), src, nil, sink)
				if err != nil {
					t.Fatal(err)
				}
				defer d.Close()
				err = d.RunVibrationTest(d.cfg.Start)
				if err == nil {
					t.Fatal("vibration test succeeded on a failing source")
				}
				if short && !strings.Contains(err.Error(), "frame") {
					t.Errorf("error %q does not name the frame", err)
				}
				for _, pt := range chiller.AllPoints() {
					for _, feat := range VibFeatures {
						if s, err := d.Historian().QueryAll(VibChannel(pt, feat)); err != nil || len(s) != 0 {
							t.Errorf("%s: %d samples (err %v), want none", VibChannel(pt, feat), len(s), err)
						}
					}
				}
				if stored := d.StoredReports(""); len(stored) != 0 {
					t.Errorf("%d stored reports, want none", len(stored))
				}
				if n := sink.count(); n != 0 {
					t.Errorf("%d reports delivered, want none", n)
				}
			})
		}
	}
}

// TestNonFiniteVibrationPointAbstains: one NaN or infinite sample in
// motor-de's frame makes that point abstain — no report, no feature sample,
// the guard naming its channel alone — while the test succeeds and the
// other three points report byte for byte as they do on the clean frame, at
// one compute worker and at four.
func TestNonFiniteVibrationPointAbstains(t *testing.T) {
	atMotorDE := func(r *proto.Report) bool {
		return strings.HasPrefix(r.AdditionalInfo, "measurement point: "+chiller.MotorDE.String()) ||
			strings.Contains(r.Explanation, " at "+chiller.MotorDE.String()+",")
	}
	d, sink := newVibPinDC(t, vibPinFaults, nil)
	if err := d.RunVibrationTest(d.cfg.Start); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, r := range sink.reports {
		if !atMotorDE(r) {
			want = append(want, jsonSum(t, r))
		}
	}
	if len(want) == 0 || len(want) == len(sink.reports) {
		t.Fatalf("clean run: %d of %d reports from the clean points; want some from each side", len(want), len(sink.reports))
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%g/GOMAXPROCS=%d", v, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				d, sink := newVibPinDC(t, vibPinFaults, func(s Source) Source {
					return &sampleSource{Source: s, pt: chiller.MotorDE, at: 100, v: v}
				})
				if err := d.RunVibrationTest(d.cfg.Start); err != nil {
					t.Fatalf("vibration test failed: %v", err)
				}
				var got []string
				for _, r := range sink.reports {
					if atMotorDE(r) {
						t.Errorf("motor-de reported: %s %q", r.MachineConditionID, r.Explanation)
					}
					got = append(got, jsonSum(t, r))
				}
				if strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Errorf("clean points' reports differ from the clean run's:\n got %v\nwant %v", got, want)
				}
				for _, ch := range vibChannels[chiller.MotorDE] {
					if s, err := d.Historian().QueryAll(ch); err != nil || len(s) != 0 {
						t.Errorf("%s: %d samples (err %v), want none", ch, len(s), err)
					}
				}
				if got := d.Guard().Suspects(); len(got) != 1 || got[0] != "vib/motor-de" {
					t.Errorf("suspects %v, want [vib/motor-de]", got)
				}
			})
		}
	}
}

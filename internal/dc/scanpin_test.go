package dc

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chiller"
	"repro/internal/proto"
)

var updateScanPins = flag.Bool("update", false, "rewrite testdata/scan_reports.sha256 from this build")

const scanPinsFile = "testdata/scan_reports.sha256"

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
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			out = append(out, hex.EncodeToString(sum[:]))
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
	if *updateScanPins {
		if err := os.MkdirAll(filepath.Dir(scanPinsFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(scanPinsFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(scanPinsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for i := range max(len(got), len(want)) {
		switch {
		case i >= len(want):
			t.Fatalf("line %d: extra outcome %q", i+1, got[i])
		case i >= len(got):
			t.Fatalf("line %d: missing outcome %q", i+1, want[i])
		case got[i] != want[i]:
			t.Fatalf("line %d: got %q, want %q", i+1, got[i], want[i])
		}
	}
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

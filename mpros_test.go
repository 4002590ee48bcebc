package mpros

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/chiller"
	"repro/internal/experiments"
	"repro/internal/netfault"
	"repro/internal/pdme"
	"repro/internal/uplink"
)

func TestChillerGroupsCoverAllFaults(t *testing.T) {
	g := ChillerGroups()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, conds := range g {
		total += len(conds)
	}
	if total != chiller.NumFaults {
		t.Errorf("groups cover %d of %d faults", total, chiller.NumFaults)
	}
}

func TestStationEndToEnd(t *testing.T) {
	s, err := NewStation(StationConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Healthy day: no conclusions.
	if err := s.Advance(24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if items := s.PrioritizedList(); len(items) != 0 {
		t.Fatalf("healthy station produced conclusions: %+v", items)
	}
	// Inject a fault and run another day.
	if err := s.InjectFault(chiller.MotorImbalance, 0.75); err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	b, err := s.Belief(chiller.MotorImbalance)
	if err != nil {
		t.Fatal(err)
	}
	if b < 0.9 {
		t.Errorf("fused belief %g after a day of reinforcing reports", b)
	}
	items := s.PrioritizedList()
	if len(items) == 0 || items[0].Condition != chiller.MotorImbalance.String() {
		t.Fatalf("prioritized list: %+v", items)
	}
	if !items[0].HasPrognostic {
		t.Error("top item missing prognostic")
	}
	if v := s.FusedPrognostic(chiller.MotorImbalance); len(v) == 0 {
		t.Error("no fused prognostic vector")
	}
	view, err := s.Browser()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(view, chiller.MotorImbalance.String()) {
		t.Errorf("browser view missing condition:\n%s", view)
	}
}

func TestStationPersistence(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/station.db"
	s, err := NewStation(StationConfig{Seed: 6, DBPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InjectFault(chiller.StatorElectrical, 0.8); err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(8 * time.Hour); err != nil {
		t.Fatal(err)
	}
	reports := s.DC.StoredReports("")
	if len(reports) == 0 {
		t.Fatal("no stored reports")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: the DC's report ring replays from its log (the PDME keeps none).
	s2, err := NewStation(StationConfig{Seed: 6, DBPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if reports2 := s2.DC.StoredReports(""); len(reports2) < len(reports) {
		t.Errorf("replayed %d reports, had %d", len(reports2), len(reports))
	}
}

// TestStationDatabaseHoldsOnlyReports: the DC's report log keeps each fact
// once. A station's vibration features live in its historian, so after four
// weeks of a motor imbalance its report log costs a bounded size per report,
// and a reopen reads the same reports back.
func TestStationDatabaseHoldsOnlyReports(t *testing.T) {
	// A report is one log record of about 170 B; the rest of the bound is
	// room for the file header and for longer condition names.
	const maxBytesPerReport = 200
	path := filepath.Join(t.TempDir(), "station.db")
	s, err := NewStation(StationConfig{Seed: 6, DBPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InjectFault(chiller.MotorImbalance, 0.7); err != nil {
		t.Fatal(err)
	}
	if err := s.Advance(28 * 24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	reports := s.DC.StoredReports("")
	if len(reports) == 0 {
		t.Fatal("no stored reports")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	perReport := float64(fi.Size()) / float64(len(reports))
	t.Logf("%d reports in %d B: %.0f B per report", len(reports), fi.Size(), perReport)
	if perReport > maxBytesPerReport {
		t.Errorf("DC database holds %.0f B per stored report, want at most %d", perReport, maxBytesPerReport)
	}
	s2, err := NewStation(StationConfig{Seed: 6, DBPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.DC.StoredReports(""); !reflect.DeepEqual(got, reports) {
		t.Fatalf("reopened report log holds %d reports, want the %d stored", len(got), len(reports))
	}
}

// TestStationHistorianStaysInWindow: a station's historian keeps one raw
// window per channel, so between 60 and 120 virtual days of a motor
// imbalance its samples and its directory bytes stay within 5 %.
func TestStationHistorianStaysInWindow(t *testing.T) {
	dir := t.TempDir()
	histDir := filepath.Join(dir, "hist")
	s, err := NewStation(StationConfig{Seed: 6, DBPath: filepath.Join(dir, "station.db"), HistorianDir: histDir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.InjectFault(chiller.MotorImbalance, 0.7); err != nil {
		t.Fatal(err)
	}
	held := func() (samples, bytes int64) {
		t.Helper()
		if err := s.Historian.Sync(); err != nil {
			t.Fatal(err)
		}
		for _, name := range s.Historian.Channels() {
			st, err := s.Historian.Stats(name)
			if err != nil {
				t.Fatal(err)
			}
			samples += st.Samples
		}
		entries, err := os.ReadDir(histDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			fi, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			bytes += fi.Size()
		}
		return samples, bytes
	}
	if err := s.Advance(60 * 24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	samples60, bytes60 := held()
	if err := s.Advance(60 * 24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	samples120, bytes120 := held()
	t.Logf("historian at 60 days: %d samples, %d B; at 120 days: %d samples, %d B",
		samples60, bytes60, samples120, bytes120)
	within := func(a, b int64) bool { return math.Abs(float64(b-a)) <= 0.05*float64(a) }
	if !within(samples60, samples120) {
		t.Errorf("historian holds %d samples at 120 days against %d at 60, want within 5 %%", samples120, samples60)
	}
	if !within(bytes60, bytes120) {
		t.Errorf("historian directory holds %d B at 120 days against %d at 60, want within 5 %%", bytes120, bytes60)
	}
}

func TestFleetOverTCP(t *testing.T) {
	f, err := NewFleet(FleetConfig{DCCount: 3, SeedBase: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Different fault on each chiller.
	faults := []chiller.Fault{chiller.MotorImbalance, chiller.GearToothWear, chiller.OilWhirl}
	for i, st := range f.Stations {
		if err := st.Plant.SetFault(faults[i], 0.8); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Advance(12 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if f.PDME.ReceivedReports() == 0 {
		t.Fatal("PDME received nothing over TCP")
	}
	for i, st := range f.Stations {
		b, err := f.PDME.Belief(st.Machine.String(), faults[i].String())
		if err != nil {
			t.Fatal(err)
		}
		if b < 0.8 {
			t.Errorf("station %d: fused belief %g for %v", i, b, faults[i])
		}
		// Cross-machine independence: chiller 1's fault is not believed on
		// chiller 2.
		other := f.Stations[(i+1)%len(f.Stations)]
		ob, _ := f.PDME.Belief(other.Machine.String(), faults[i].String())
		if ob >= b {
			t.Errorf("fault %v leaked to another machine: %g vs %g", faults[i], ob, b)
		}
	}
	if _, err := NewFleet(FleetConfig{DCCount: 0}); err == nil {
		t.Error("zero DC fleet should error")
	}
}

// chaosFleetConfig tunes a fleet for fast recovery in tests.
func chaosFleetConfig(seedBase int64, spoolDir string) FleetConfig {
	return FleetConfig{
		DCCount:  2,
		SeedBase: seedBase,
		SpoolDir: spoolDir,
		Uplink: uplink.Config{
			DialTimeout: 2 * time.Second,
			SendTimeout: 2 * time.Second,
			BackoffMin:  5 * time.Millisecond,
			BackoffMax:  100 * time.Millisecond,
		},
		FlushTimeout: time.Minute,
	}
}

// fleetOutcome captures everything the chaos run must reproduce exactly.
type fleetOutcome struct {
	received int
	beliefs  map[string]float64
}

// collectOutcome reads fused beliefs for every (station, fault) pair.
func collectOutcome(t *testing.T, f *Fleet, faults []chiller.Fault) fleetOutcome {
	t.Helper()
	out := fleetOutcome{received: f.PDME.ReceivedReports(), beliefs: map[string]float64{}}
	for i, st := range f.Stations {
		for _, fault := range faults {
			key := fmt.Sprintf("%d|%s", i, fault)
			b, err := f.PDME.Belief(st.Machine.String(), fault.String())
			if err != nil {
				b = -1 // no reports for the pair: also part of the invariant
			}
			out.beliefs[key] = b
		}
	}
	return out
}

// TestFleetChaosResilience is the acceptance scenario: with the netfault
// proxy injecting mid-frame resets and a full partition, plus one PDME
// server kill/restart in the middle of an Advance, the fleet loses zero
// reports and fuses beliefs identical to an undisturbed run — the spool
// preserves everything through the outage and the dedup window prevents
// at-least-once redelivery from double-counting Dempster-Shafer evidence.
func TestFleetChaosResilience(t *testing.T) {
	faults := []chiller.Fault{chiller.MotorImbalance, chiller.GearToothWear}
	const seedBase = 7100

	// Undisturbed reference run: 4h + 4h + 6h + 4h of virtual time.
	base, err := NewFleet(chaosFleetConfig(seedBase, ""))
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range base.Stations {
		if err := st.Plant.SetFault(faults[i], 0.8); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range []time.Duration{4, 4, 6, 4} {
		if err := base.Advance(h * time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	want := collectOutcome(t, base, faults)
	if err := base.Close(); err != nil {
		t.Fatal(err)
	}
	if want.received == 0 {
		t.Fatal("reference run produced no reports")
	}

	// Chaos run: same seeds and virtual schedule, behind the fault proxy.
	var proxy *netfault.Proxy
	cfg := chaosFleetConfig(seedBase, t.TempDir())
	cfg.DialVia = func(pdmeAddr string) (string, error) {
		p, err := netfault.New(pdmeAddr, netfault.Options{Seed: 13})
		proxy = p
		return p.Addr(), err
	}
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	defer func() { proxy.Close() }()
	for i, st := range f.Stations {
		if err := st.Plant.SetFault(faults[i], 0.8); err != nil {
			t.Fatal(err)
		}
	}
	// Phase 1: clean.
	if err := f.Advance(4 * time.Hour); err != nil {
		t.Fatal(err)
	}
	// Phase 2: kill and restart the PDME server mid-Advance, with a burst
	// of mid-frame connection resets around it. Advance's trailing flush
	// drains the spools once the restarted server is reachable.
	done := make(chan error, 1)
	go func() { done <- f.Advance(4 * time.Hour) }()
	time.Sleep(25 * time.Millisecond)
	proxy.KillConns()
	if err := f.RestartServer(); err != nil {
		t.Fatal(err)
	}
	proxy.KillConns()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Phase 3: full partition — the stations keep monitoring (covering a
	// vibration test cycle) and spool every report, then the partition
	// heals and the spools drain.
	proxy.SetPartition(true)
	for _, st := range f.Stations {
		if err := st.DC.RunFor(6 * time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	spooled := 0
	for _, st := range f.Stations {
		spooled += st.Uplink.Pending()
	}
	if spooled == 0 {
		t.Fatal("partition produced no spooled reports — chaos scenario is vacuous")
	}
	proxy.SetPartition(false)
	if err := f.Flush(time.Minute); err != nil {
		t.Fatal(err)
	}
	// Phase 4: clean tail.
	if err := f.Advance(4 * time.Hour); err != nil {
		t.Fatal(err)
	}

	got := collectOutcome(t, f, faults)
	if got.received != want.received {
		t.Errorf("PDME received %d reports under chaos, reference %d (lost or duplicated fusion)",
			got.received, want.received)
	}
	for key, wb := range want.beliefs {
		if gb := got.beliefs[key]; math.Abs(gb-wb) > 1e-12 {
			t.Errorf("belief[%s] = %v under chaos, reference %v", key, gb, wb)
		}
	}
	for _, st := range f.Stations {
		c := st.Uplink.Counters()
		if c.Dropped != 0 {
			t.Errorf("station %v dropped %d reports", st.Machine, c.Dropped)
		}
		if st.Uplink.Pending() != 0 {
			t.Errorf("station %v still has %d pending", st.Machine, st.Uplink.Pending())
		}
	}
}

// fleetStart is the fleet DCs' virtual epoch (dc.DefaultConfig Start).
var fleetStart = time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC)

// chaosHealthConfig tunes the health registry for short test horizons.
func chaosHealthConfig() HealthConfig {
	return HealthConfig{
		LateAfter:        30 * time.Minute,
		SilentAfter:      time.Hour,
		FlapWindow:       3 * time.Hour,
		FlapRestarts:     3,
		FreshFor:         time.Hour,
		StalenessHorizon: 6 * time.Hour,
		ReliabilityFloor: 0.05,
	}
}

// groupOf finds the logical failure group containing a fault.
func groupOf(t *testing.T, fault chiller.Fault) string {
	t.Helper()
	for name, conds := range ChillerGroups() {
		for _, c := range conds {
			if c == fault.String() {
				return name
			}
		}
	}
	t.Fatalf("no group contains %v", fault)
	return ""
}

// waitHealthWatermark polls until the PDME's event-time watermark reaches
// at. Heartbeats ride the uplink asynchronously, so the registry can lag a
// RunFor by a network round trip of real time.
func waitHealthWatermark(t *testing.T, f *Fleet, at time.Time) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for f.PDME.Health().Now().Before(at) {
		if time.Now().After(deadline) {
			t.Fatalf("health watermark stuck at %v, want %v",
				f.PDME.Health().Now(), at)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stuckSource freezes one accelerometer channel: the first MotorDE frame is
// cached and replayed forever, the fault the DC's channel guard must catch.
type stuckSource struct {
	Source
	cached []float64
}

func (s *stuckSource) AcquireVibration(pt chiller.MeasurementPoint, n int) ([]float64, error) {
	if pt != chiller.MotorDE {
		return s.Source.AcquireVibration(pt, n)
	}
	if s.cached == nil {
		frame, err := s.Source.AcquireVibration(pt, n)
		if err != nil {
			return nil, err
		}
		s.cached = append([]float64(nil), frame...)
	}
	return append([]float64(nil), s.cached...), nil
}

// degradedFleetConfig is chaosFleetConfig plus the fleet-health layer: three
// DCs, heartbeats, staleness-discounted fusion, and a stuck accelerometer on
// station 2 (in every run, so reference and chaos runs stay comparable).
func degradedFleetConfig(seedBase int64, spoolDir string) FleetConfig {
	cfg := chaosFleetConfig(seedBase, spoolDir)
	cfg.DCCount = 3
	cfg.Heartbeat = 10 * time.Minute
	hc := chaosHealthConfig()
	cfg.Health = &hc
	cfg.WrapSource = func(station int, src Source) Source {
		if station == 2 {
			return &stuckSource{Source: src}
		}
		return src
	}
	return cfg
}

// TestFleetChaosDegradedOperation is the fleet-health acceptance scenario:
// one DC of three goes silent behind a partition while another feeds a
// stuck accelerometer. The silenced DC's fused conclusion must decay
// monotonically toward Unknown within the staleness horizon, never outrank
// the identical live conclusion from a healthy DC, and be flagged Degraded;
// the stuck channel must surface in the ship model; and after the partition
// heals the fleet must reconverge bit-for-bit with an undisturbed run.
func TestFleetChaosDegradedOperation(t *testing.T) {
	// The same fault everywhere makes staleness the only ranking variable.
	faults := []chiller.Fault{chiller.MotorImbalance}
	const seedBase = 7300
	group := groupOf(t, chiller.MotorImbalance)
	setFaults := func(f *Fleet) {
		for _, st := range f.Stations {
			if err := st.Plant.SetFault(chiller.MotorImbalance, 0.8); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Undisturbed reference: 4h clean + 6 hourly steps + 2h tail.
	base, err := NewFleet(degradedFleetConfig(seedBase, ""))
	if err != nil {
		t.Fatal(err)
	}
	setFaults(base)
	if err := base.Advance(4 * time.Hour); err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 6; h++ {
		if err := base.Advance(time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	if err := base.Advance(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	waitHealthWatermark(t, base, fleetStart.Add(12*time.Hour))
	want := collectOutcome(t, base, faults)
	if err := base.Close(); err != nil {
		t.Fatal(err)
	}
	if want.received == 0 {
		t.Fatal("reference run produced no reports")
	}

	// Chaos run: station 0 dials through its own netfault proxy.
	var proxy *netfault.Proxy
	cfg := degradedFleetConfig(seedBase, t.TempDir())
	cfg.StationDialVia = func(station int, pdmeAddr string) (string, error) {
		if station != 0 {
			return pdmeAddr, nil
		}
		p, err := netfault.New(pdmeAddr, netfault.Options{Seed: 17})
		proxy = p
		return p.Addr(), err
	}
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	defer func() { proxy.Close() }()
	setFaults(f)

	// Phase 1: clean 4h — everyone reports and heartbeats.
	if err := f.Advance(4 * time.Hour); err != nil {
		t.Fatal(err)
	}
	waitHealthWatermark(t, f, fleetStart.Add(4*time.Hour))
	machine0 := f.Stations[0].Machine.String()
	machine1 := f.Stations[1].Machine.String()
	freshUnknown, err := f.PDME.Unknown(machine0, group)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 2: partition station 0 for the full staleness horizon. The rest
	// of the fleet keeps running hour by hour; station 0 monitors and
	// spools. Unknown mass on its conclusion must rise monotonically.
	proxy.SetPartition(true)
	prev := freshUnknown
	for h := 1; h <= 6; h++ {
		for _, st := range f.Stations {
			if err := st.DC.RunFor(time.Hour); err != nil {
				t.Fatal(err)
			}
		}
		for _, st := range f.Stations[1:] {
			if err := st.Uplink.Flush(time.Minute); err != nil {
				t.Fatal(err)
			}
		}
		waitHealthWatermark(t, f, fleetStart.Add(time.Duration(4+h)*time.Hour))
		unk, err := f.PDME.Unknown(machine0, group)
		if err != nil {
			t.Fatal(err)
		}
		if unk < prev-1e-12 {
			t.Fatalf("hour %d: unknown mass fell %g -> %g", h, prev, unk)
		}
		if h >= 2 && unk <= prev {
			t.Fatalf("hour %d: unknown mass stuck at %g despite growing staleness", h, unk)
		}
		prev = unk
	}
	if prev < 0.9 {
		t.Errorf("after the staleness horizon unknown mass is %g, want >= 0.9", prev)
	}
	if got := f.PDME.Health().StateOf("dc-1"); got != HealthSilent {
		t.Errorf("partitioned DC state %v, want silent", got)
	}
	if got := f.PDME.Health().StateOf("dc-2"); got != HealthAlive {
		t.Errorf("live DC state %v, want alive", got)
	}

	// The stale conclusion must rank below the identical live one, carry the
	// Degraded flag, and show its collapsed reliability.
	items := f.PDME.PrioritizedList()
	rank := func(component string) int {
		for i, it := range items {
			if it.Component == component && it.Condition == chiller.MotorImbalance.String() {
				return i
			}
		}
		t.Fatalf("no %q item for %s in %+v", chiller.MotorImbalance, component, items)
		return -1
	}
	stale, live := rank(machine0), rank(machine1)
	if stale <= live {
		t.Errorf("stale conclusion ranked %d, above live identical conclusion at %d", stale, live)
	}
	if !items[stale].Degraded || items[stale].Reliability > 0.1 {
		t.Errorf("stale item not flagged: %+v", items[stale])
	}
	// The live DC's latest vibration report is itself an hour or two old, so
	// a mild discount is honest; what matters is the wide margin.
	if items[live].Reliability < 4*items[stale].Reliability {
		t.Errorf("live item reliability %g not well above stale %g",
			items[live].Reliability, items[stale].Reliability)
	}
	if items[live].Belief < 2*items[stale].Belief {
		t.Errorf("live belief %g not well above stale %g",
			items[live].Belief, items[stale].Belief)
	}

	// The stuck accelerometer on station 2 surfaces as a suspect-channel
	// annotation on its stored reports.
	ids, err := f.PDME.Model().FindByProp(pdme.ReportClass, "suspect", "vib/motor-de")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) == 0 {
		t.Error("no report carries the stuck channel vib/motor-de")
	}

	// Heal: the spool drains, a fresh test cycle runs, and the fleet
	// reconverges on the undisturbed outcome exactly.
	proxy.SetPartition(false)
	if err := f.Flush(time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := f.Advance(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	waitHealthWatermark(t, f, fleetStart.Add(12*time.Hour))
	if got := f.PDME.Health().StateOf("dc-1"); got != HealthAlive {
		t.Errorf("healed DC state %v, want alive", got)
	}
	for _, it := range f.PDME.PrioritizedList() {
		if it.Degraded {
			t.Errorf("degraded item after heal: %+v", it)
		}
	}
	got := collectOutcome(t, f, faults)
	if got.received != want.received {
		t.Errorf("PDME received %d reports under chaos, reference %d", got.received, want.received)
	}
	for key, wb := range want.beliefs {
		if gb := got.beliefs[key]; math.Abs(gb-wb) > 1e-12 {
			t.Errorf("belief[%s] = %v under chaos, reference %v", key, gb, wb)
		}
	}
}

// TestFleetChaosFlapAndDeath extends the chaos coverage with a flapping DC
// (its uplink restarts three times in the flap window) and a permanently
// dead DC. The flapping DC is flagged and its conclusions discounted while
// the flapping lasts; the dead DC ends silent; and the rest of the fleet
// fuses bit-for-bit what an undisturbed run fuses.
func TestFleetChaosFlapAndDeath(t *testing.T) {
	faults := []chiller.Fault{chiller.MotorImbalance, chiller.GearToothWear, chiller.OilWhirl}
	const seedBase = 7400
	newCfg := func(spool string) FleetConfig {
		cfg := chaosFleetConfig(seedBase, spool)
		cfg.DCCount = 3
		cfg.Heartbeat = 10 * time.Minute
		hc := chaosHealthConfig()
		cfg.Health = &hc
		return cfg
	}
	setFaults := func(f *Fleet) {
		for i, st := range f.Stations {
			if err := st.Plant.SetFault(faults[i], 0.8); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Undisturbed reference: 4h + 3 hourly steps + 5h tail = 12h.
	base, err := NewFleet(newCfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	setFaults(base)
	for _, d := range []time.Duration{4 * time.Hour, time.Hour, time.Hour, time.Hour, 5 * time.Hour} {
		if err := base.Advance(d); err != nil {
			t.Fatal(err)
		}
	}
	waitHealthWatermark(t, base, fleetStart.Add(12*time.Hour))
	want := collectOutcome(t, base, faults)
	if err := base.Close(); err != nil {
		t.Fatal(err)
	}

	// Chaos run. Persistent spools carry reports across uplink restarts.
	f, err := NewFleet(newCfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	setFaults(f)
	if err := f.Advance(4 * time.Hour); err != nil {
		t.Fatal(err)
	}
	waitHealthWatermark(t, f, fleetStart.Add(4*time.Hour))

	// Station 2 dies for good: uplink closed, scheduler never advanced
	// again. Stations 0 and 1 carry on; station 1 flaps — a fresh uplink
	// incarnation before each of three hourly steps.
	if err := f.Stations[2].Uplink.Close(); err != nil {
		t.Fatal(err)
	}
	live := f.Stations[:2]
	for h := 1; h <= 3; h++ {
		if err := f.RestartUplink(1); err != nil {
			t.Fatal(err)
		}
		for _, st := range live {
			if err := st.DC.RunFor(time.Hour); err != nil {
				t.Fatal(err)
			}
		}
		for _, st := range live {
			if err := st.Uplink.Flush(time.Minute); err != nil {
				t.Fatal(err)
			}
		}
		waitHealthWatermark(t, f, fleetStart.Add(time.Duration(4+h)*time.Hour))
	}
	if got := f.PDME.Health().StateOf("dc-2"); got != HealthFlapping {
		t.Errorf("restarted DC state %v, want flapping", got)
	}
	machine1 := f.Stations[1].Machine.String()
	flagged := false
	for _, it := range f.PDME.PrioritizedList() {
		if it.Component == machine1 && it.Degraded && it.Reliability < 1 {
			flagged = true
		}
	}
	if !flagged {
		t.Error("flapping DC's conclusions not flagged degraded")
	}

	// Tail: stations 0 and 1 run another 5h with a stable uplink. The flap
	// records age out of the window, so their evidence is fresh and fully
	// reliable again at the end — the dead DC stays silent.
	for _, st := range live {
		if err := st.DC.RunFor(5 * time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	for _, st := range live {
		if err := st.Uplink.Flush(time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	waitHealthWatermark(t, f, fleetStart.Add(12*time.Hour))
	if got := f.PDME.Health().StateOf("dc-2"); got != HealthAlive {
		t.Errorf("station 1 state %v after flap window, want alive", got)
	}
	if got := f.PDME.Health().StateOf("dc-3"); got != HealthSilent {
		t.Errorf("dead DC state %v, want silent", got)
	}

	// The undisturbed stations fuse exactly the reference outcome.
	got := collectOutcome(t, f, faults)
	for key, wb := range want.beliefs {
		if strings.HasPrefix(key, "2|") {
			continue // the dead station diverges by design
		}
		if gb := got.beliefs[key]; math.Abs(gb-wb) > 1e-12 {
			t.Errorf("belief[%s] = %v under chaos, reference %v", key, gb, wb)
		}
	}
}

// Example-style smoke check so `go test` exercises the rendered tables.
func TestRenderAllExperimentTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep is slow")
	}
	for _, id := range experiments.IDs() {
		res, err := experiments.Registry()[id](1)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		out := res.Render()
		if len(out) == 0 {
			t.Fatalf("%s: empty render", id)
		}
	}
}

package dc

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"weak"

	"repro/internal/chiller"
	"repro/internal/dsp"
	"repro/internal/fuzzy"
	"repro/internal/historian"
	"repro/internal/proto"
	"repro/internal/relstore"
	"repro/internal/sbfr"
	"repro/internal/vibration"
	"repro/internal/wnn"
)

// Source is the plant the DC instruments. chiller.Plant satisfies it. The
// DC calls it from one goroutine at a time. A frame AcquireVibration returns
// is read by the DC until the vibration test ends, on other goroutines too,
// so it must not be reused for a later point of the same test.
type Source interface {
	AcquireVibration(pt chiller.MeasurementPoint, n int) ([]float64, error)
	ProcessState() chiller.ProcessState
	Load() float64
	Config() chiller.Config
}

// Config parametrizes a Data Concentrator.
type Config struct {
	// ID is the DC identifier carried in every report (§5.5 "DC ID").
	ID string
	// ObjectID is the sensed object the DC monitors (OOSM id string).
	ObjectID string
	// FrameLen is the vibration acquisition length per measurement point.
	FrameLen int
	// VibrationInterval is the standard vibration test period.
	VibrationInterval time.Duration
	// ProcessInterval is the process-scan (fuzzy diagnostics) period.
	ProcessInterval time.Duration
	// CallThreshold is the minimum severity that generates a report.
	CallThreshold float64
	// Start is the initial virtual time.
	Start time.Time
	// EnableSBFR activates the SBFR process monitor (§5.8's "state based
	// feature recognition routines to collect and analyze process
	// variables") as a third knowledge source, sampling the process
	// channels every DefaultSBFRInterval.
	EnableSBFR bool
	// Historian receives every acquisition's feature scalars, process-scan
	// vector, and SBFR status transition. Nil means the DC opens a private
	// in-memory store (use dc.Historian() to query it).
	Historian *historian.Store
	// HeartbeatInterval schedules fleet-health heartbeats announcing
	// liveness, spool depth, and per-suite last-run info to the PDME's
	// health registry (0 disables; heartbeats also require an uplink that
	// implements HeartbeatUplink).
	HeartbeatInterval time.Duration
	// ReportLog is the file the DC logs its condition reports to, replayed
	// by New into the DC's report ring (see reportlog.go); empty keeps them
	// in the ring alone.
	ReportLog string
}

// HeartbeatUplink is the optional uplink capability behind fleet-health
// heartbeats. uplink.Uplink implements it; a bare proto.Sink does not, and
// the DC then simply never emits heartbeats.
type HeartbeatUplink interface {
	SendHeartbeat(*proto.Heartbeat) error
}

// DefaultSBFRInterval is the documented SBFR process-channel sampling
// period — the single place the 5-minute default lives.
const DefaultSBFRInterval = 5 * time.Minute

// DefaultConfig returns lab-prototype settings: vibration tests every four
// hours, process scans every thirty minutes.
func DefaultConfig(id, objectID string) Config {
	return Config{
		ID:                id,
		ObjectID:          objectID,
		FrameLen:          16384,
		VibrationInterval: 4 * time.Hour,
		ProcessInterval:   30 * time.Minute,
		CallThreshold:     0.15,
		Start:             time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC),
	}
}

// DC is one Data Concentrator instance.
type DC struct {
	cfg     Config
	src     Source
	reports *reportLog
	uplink  proto.Sink
	vib     *vibration.Engine
	fz      *fuzzy.ChillerDiagnostics
	mux     *Mux
	sched   *Scheduler

	// sbfrSys is the optional SBFR process monitor (Config.EnableSBFR);
	// sbfrIn is its per-scan input vector, in ProcessMonitorChannels order.
	sbfrSys *sbfr.System
	sbfrIn  [2]float64
	// wnnClf is the optional wavelet neural network source (AttachWNN).
	wnnClf *wnn.ChillerClassifier

	// hist is the acquisition historian; ownHist marks a private in-memory
	// store the DC must close itself.
	hist    *historian.Store
	ownHist bool

	// guard screens raw channels for stuck-at/dropout/spike behavior, with
	// the default settings. It always runs: it is cheap and silent on
	// healthy channels. It holds a state per measurement point (vibGuard)
	// and per process channel, in procFields order (procGuard) and in the
	// name order a quarantined report names them in (procByName).
	guard      *ChannelGuard
	vibGuard   [chiller.NumPoints]*channelState
	procGuard  [numProcFields]*channelState
	procByName [numProcFields]*channelState

	// proc is the process snapshot the running scan reads, held here so
	// that reading it through procFields' accessors moves no local to the
	// heap; sbfrMachines are the SBFR monitor's machines, resolved at New.
	proc         chiller.ProcessState
	sbfrMachines []sbfrMachine

	reportsSent     int
	reportErrors    int
	sbfrScans       int
	heartbeatsSent  int
	heartbeatErrors int
}

// heartbeatTask is the scheduler name of the fleet-health heartbeat.
const heartbeatTask = "heartbeat"

// New builds a DC over a plant source and an uplink sink. The DC keeps its
// condition reports itself; the database argument is unused, and the
// parameter goes when relstore leaves the product. Set Config.ReportLog for
// the shipboard configuration, whose reports outlive the process.
func New(cfg Config, src Source, _ *relstore.DB, uplink proto.Sink) (*DC, error) {
	if cfg.ID == "" || cfg.ObjectID == "" {
		return nil, fmt.Errorf("dc: missing ID or ObjectID")
	}
	if cfg.FrameLen < 1024 {
		return nil, fmt.Errorf("dc: frame length %d too short", cfg.FrameLen)
	}
	if cfg.VibrationInterval <= 0 || cfg.ProcessInterval <= 0 {
		return nil, fmt.Errorf("dc: non-positive test interval")
	}
	if src == nil || uplink == nil {
		return nil, fmt.Errorf("dc: nil source or uplink")
	}
	fz, err := fuzzy.NewChillerDiagnostics()
	if err != nil {
		return nil, err
	}
	d := &DC{
		cfg:    cfg,
		src:    src,
		uplink: uplink,
		vib:    vibration.NewEngine(src.Config(), cfg.CallThreshold),
		fz:     fz,
		mux:    NewMux(),
		sched:  NewScheduler(cfg.Start),
		hist:   cfg.Historian,
		guard:  NewChannelGuard(GuardConfig{}),
	}
	for _, pt := range chiller.AllPoints() {
		d.vibGuard[pt] = d.guard.state("vib/" + pt.String())
	}
	for i, f := range procFields {
		d.procGuard[i] = d.guard.state(f.channel)
	}
	d.procByName = d.procGuard
	slices.SortFunc(d.procByName[:], func(a, b *channelState) int { return strings.Compare(a.channel, b.channel) })
	if cfg.EnableSBFR {
		if d.sbfrSys, d.sbfrMachines, err = newProcessMonitor(); err != nil {
			return nil, err
		}
	}
	if d.hist == nil {
		d.hist, err = historian.Open(historian.Options{})
		if err != nil {
			return nil, err
		}
		d.ownHist = true
	}
	if err := d.ensureHistorianChannels(); err != nil {
		return nil, err
	}
	if err := d.sched.Schedule(&Task{
		Name: "vibration-test", Interval: cfg.VibrationInterval, Run: d.RunVibrationTest,
	}, 0); err != nil {
		return nil, err
	}
	if err := d.sched.Schedule(&Task{
		Name: "process-scan", Interval: cfg.ProcessInterval, Run: d.RunProcessScan,
	}, 0); err != nil {
		return nil, err
	}
	if cfg.EnableSBFR {
		if err := d.sched.Schedule(&Task{
			Name: "sbfr-scan", Interval: DefaultSBFRInterval, Run: d.RunSBFRScan,
		}, 0); err != nil {
			return nil, err
		}
	}
	if cfg.HeartbeatInterval > 0 {
		if err := d.sched.Schedule(&Task{
			Name: heartbeatTask, Interval: cfg.HeartbeatInterval, Run: d.sendHeartbeat,
		}, 0); err != nil {
			return nil, err
		}
	}
	// Last, so no later failure leaves the log open.
	if d.reports, err = openReportLog(cfg.ReportLog); err != nil {
		return nil, err
	}
	return d, nil
}

// SetUplink swaps the report sink. No product code calls it: it is the seam
// the root package's fleet tests use to restart a station's uplink as a DC
// process restart would, kept exported because those tests live in another
// package. The DC's scheduler is single-threaded (virtual time), so call it
// only between RunFor advances. The vibration test's compute workers touch
// only frames, extractors and WNN workspaces (and read the classifier's
// trained networks), never the sink, the MUX or the DC's configuration.
func (d *DC) SetUplink(s proto.Sink) error {
	if s == nil {
		return fmt.Errorf("dc: nil uplink")
	}
	d.uplink = s
	return nil
}

// sendHeartbeat is the scheduled fleet-health task: it announces liveness
// and per-suite last-run info through the uplink. Delivery failure is the
// health signal itself, so it never aborts the scheduler run.
func (d *DC) sendHeartbeat(now time.Time) error {
	hu, ok := d.uplink.(HeartbeatUplink)
	if !ok {
		return nil
	}
	sts := d.sched.Statuses()
	suites := make([]proto.SuiteStatus, 0, len(sts))
	for _, st := range sts {
		if st.Name == heartbeatTask {
			continue
		}
		suites = append(suites, proto.SuiteStatus{Name: st.Name, LastRun: st.LastRun, Runs: st.Runs})
	}
	if err := hu.SendHeartbeat(&proto.Heartbeat{DCID: d.cfg.ID, SentAt: now, Suites: suites}); err != nil {
		d.heartbeatErrors++
		return nil
	}
	d.heartbeatsSent++
	return nil
}

// HeartbeatsSent returns how many heartbeats were handed to the uplink.
func (d *DC) HeartbeatsSent() int { return d.heartbeatsSent }

// HeartbeatErrors returns how many heartbeats the uplink refused.
func (d *DC) HeartbeatErrors() int { return d.heartbeatErrors }

// Guard exposes the DC's sensor-channel guard for inspection.
func (d *DC) Guard() *ChannelGuard { return d.guard }

// AttachWNN installs a trained wavelet neural network classifier as an
// additional knowledge source; it runs on the same frames as the scheduled
// vibration test. Training is the caller's job (wnn.NewChillerClassifier)
// because it is expensive relative to DC construction. The classifier's
// frame length must match the DC's.
func (d *DC) AttachWNN(clf *wnn.ChillerClassifier) error {
	if clf == nil {
		return fmt.Errorf("dc: nil classifier")
	}
	if clf.FrameLen() != d.cfg.FrameLen {
		return fmt.Errorf("dc: classifier trained on %d-sample frames, DC acquires %d",
			clf.FrameLen(), d.cfg.FrameLen)
	}
	d.wnnClf = clf
	return nil
}

// Scheduler exposes the DC's event scheduler so callers can add tasks (e.g.
// a degradation advance for long-horizon simulations) or drive time.
func (d *DC) Scheduler() *Scheduler { return d.sched }

// RunFor advances the DC's virtual clock by the duration, executing every
// scheduled test that falls due.
func (d *DC) RunFor(dur time.Duration) error {
	return d.sched.RunUntil(d.sched.Now().Add(dur))
}

// pointResult is one measurement point's slot in the vibration test: its
// frame, whether it abstains, its feature frame, the WNN's call on it, and
// the first error either raised.
type pointResult struct {
	frame   []float64
	abstain bool
	f       vibration.Features
	cls     wnn.Classification
	err     error
}

// RunVibrationTest performs the standard §5.8 vibration test in the steps
// every scan of the DC takes. Acquire and screen: every measurement point
// through the MUX, in bank order, each frame screened by the channel guard.
// Diagnose: each point's features and WNN call on up to GOMAXPROCS workers,
// the caller being one of them, then the expert system over the features.
// Record: each point's features into the historian. Emit: the condition
// reports, in bank order, each quarantined by its point's verdict. A point
// whose frame holds a non-finite sample abstains: nothing is computed from
// it, recorded or reported. Only the compute leaves the calling goroutine,
// so what the test writes does not depend on the worker count; a test whose
// acquire or compute fails at any point writes nothing.
func (d *DC) RunVibrationTest(now time.Time) error {
	var results [chiller.NumPoints]pointResult
	if err := d.acquire(&results); err != nil {
		return err
	}

	workers := min(runtime.GOMAXPROCS(0), chiller.NumPoints)
	c, err := d.acquireCrew(workers)
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.compute(&results, w, workers)
		}()
	}
	c.compute(&results, 0, workers)
	wg.Wait()
	c.release()
	features := make(map[chiller.MeasurementPoint]*vibration.Features, chiller.NumPoints)
	for i := range results {
		if results[i].err != nil {
			return results[i].err
		}
		if !results[i].abstain {
			features[chiller.MeasurementPoint(i)] = &results[i].f
		}
	}
	ctx := &vibration.Context{Load: d.src.Load(), Process: d.src.ProcessState()}
	diags, err := d.vib.Diagnose(features, ctx)
	if err != nil {
		return err
	}

	for i := range results {
		if results[i].abstain {
			continue
		}
		for k, ch := range vibChannels[i] {
			if err := d.record(ch, now, vibFeatures[k].value(&results[i].f)); err != nil {
				return err
			}
		}
	}

	for _, diag := range diags {
		report := diag.ToReport(d.cfg.ID, "ks/dli", d.cfg.ObjectID, now)
		quarantine(report, d.vibGuard[diag.Point:diag.Point+1])
		if err := d.emit(report, now); err != nil {
			return err
		}
	}
	for i, pt := range chiller.AllPoints() {
		// Only confident fault calls become reports; the WNN abstains
		// otherwise (§3.1: overlapping sources may disagree — that is
		// Knowledge Fusion's job to arbitrate, not the DC's). A point the
		// WNN did not classify holds the zero call, which abstains too.
		cls := results[i].cls
		if cls.Healthy || cls.Confidence < 0.6 {
			continue
		}
		sev := 0.3 + 0.4*cls.Confidence // classifier gives class, not magnitude
		report := &proto.Report{
			DCID:               d.cfg.ID,
			KnowledgeSourceID:  "ks/wnn",
			SensedObjectID:     d.cfg.ObjectID,
			MachineConditionID: cls.Fault.String(),
			Severity:           sev,
			Belief:             0.8 * cls.Confidence,
			Explanation: fmt.Sprintf("WNN classification at %s, confidence %.2f",
				pt, cls.Confidence),
			Timestamp:   now,
			Prognostics: vibration.WorstCasePrognostic(proto.GradeSeverity(sev), sev),
		}
		quarantine(report, d.vibGuard[i:i+1])
		if err := d.emit(report, now); err != nil {
			return err
		}
	}
	return nil
}

// acquire is the vibration test's acquire and screen step: every
// measurement point through the MUX, in bank order, each on one lane of
// bank i/channelsPerBank, its frame screened by the channel guard. A frame
// holding a non-finite sample marks its point abstaining.
func (d *DC) acquire(results *[chiller.NumPoints]pointResult) error {
	for i := range chiller.NumPoints {
		if err := d.mux.SelectBank(i / channelsPerBank); err != nil {
			return err
		}
		frame, err := d.src.AcquireVibration(chiller.MeasurementPoint(i), d.cfg.FrameLen)
		if err != nil {
			return err
		}
		results[i].abstain = d.guard.inspectFrame(d.vibGuard[i], frame) == nonFiniteSample
		if _, err := d.mux.ChannelOf(i % channelsPerBank); err != nil {
			return err
		}
		results[i].frame = frame
	}
	return nil
}

// Acquire runs the vibration test's acquire phase rounds times, keeping no
// frame, and returns how many samples it acquired: the path E7 times.
func (d *DC) Acquire(rounds int) (int64, error) {
	var results [chiller.NumPoints]pointResult
	var samples int64
	for range rounds {
		if err := d.acquire(&results); err != nil {
			return samples, err
		}
		for _, r := range results {
			samples += int64(len(r.frame))
		}
	}
	return samples, nil
}

// crew is the vibration test's compute scratch: an extractor and, with the
// WNN attached, a classifier workspace for each worker. A test borrows the
// crew whole and hands it back whole: one pool put per test, not one per
// worker's extractor and workspace, because the race detector drops a
// quarter of a pool's puts at random. busy marks a crew a test holds.
type crew struct {
	busy atomic.Bool
	ex   [chiller.NumPoints]*vibration.Extractor
	clf  *wnn.ChillerClassifier
	ws   [chiller.NumPoints]*wnn.Workspace
}

var (
	// crews keeps idle crews alive, shared between a fleet's DCs, until two
	// collections pass without a test borrowing one.
	crews sync.Pool
	// lastCrew is the crew last handed back, held weakly. A pool's lone item
	// is only found from the P that put it, and a dropped put not at all, so
	// a test that misses the pool takes this one while it is still alive.
	lastCrewMu sync.Mutex
	lastCrew   weak.Pointer[crew]
)

// acquireCrew borrows a crew fitted with n workers' scratch for d's plant,
// frame length and classifier. Hand it back with release.
func (d *DC) acquireCrew(n int) (*crew, error) {
	c := borrowCrew()
	cfg := d.src.Config()
	if c.clf != d.wnnClf {
		c.clf, c.ws = d.wnnClf, [chiller.NumPoints]*wnn.Workspace{}
	}
	for w := range n {
		if c.ex[w] == nil || !c.ex[w].Refit(cfg, d.cfg.FrameLen) {
			ex, err := vibration.AcquireExtractor(cfg, d.cfg.FrameLen)
			if err != nil {
				c.release()
				return nil, err
			}
			c.ex[w] = ex
		}
		if c.clf != nil && c.ws[w] == nil {
			ws, err := c.clf.NewWorkspace()
			if err != nil {
				c.release()
				return nil, err
			}
			c.ws[w] = ws
		}
	}
	return c, nil
}

// borrowCrew takes an idle crew from the pool, else the last one handed
// back if it is idle and alive, else a new one. The pool may hold a crew
// twice (once put back after it was taken as lastCrew), so a busy one it
// returns is passed over.
func borrowCrew() *crew {
	for {
		c, ok := crews.Get().(*crew)
		if !ok {
			break
		}
		if c.busy.CompareAndSwap(false, true) {
			return c
		}
	}
	lastCrewMu.Lock()
	c := lastCrew.Value()
	lastCrewMu.Unlock()
	if c == nil || !c.busy.CompareAndSwap(false, true) {
		c = &crew{}
		c.busy.Store(true)
	}
	return c
}

// release hands the crew back.
func (c *crew) release() {
	c.busy.Store(false)
	lastCrewMu.Lock()
	lastCrew = weak.Make(c)
	lastCrewMu.Unlock()
	crews.Put(c)
}

// compute is compute worker w of the vibration test: on the crew's scratch
// for w it fills the slot of every stride-th point from w that does not
// abstain, and touches no other slot. With the WNN's own hot-path root (its
// feature workspace's classify) it is the part of the vibration test that
// must not allocate.
//
//mpros:hotpath per-point feature extraction and WNN call on the scheduled vibration test
func (c *crew) compute(results *[chiller.NumPoints]pointResult, w, stride int) {
	for i := w; i < chiller.NumPoints; i += stride {
		r, pt := &results[i], chiller.MeasurementPoint(i)
		if r.abstain {
			continue
		}
		st := dsp.Waveform(r.frame)
		if r.err = c.ex[w].ExtractInto(&r.f, r.frame, st, pt); r.err == nil && c.clf != nil {
			r.cls, r.err = c.clf.ClassifyOn(c.ws[w], r.frame, st, pt)
		}
	}
}

// RunProcessScan performs the fuzzy process-parameter diagnosis in the
// DC's scan steps. Acquire: the plant's process snapshot. Screen: each
// value through the channel guard. Diagnose: the fuzzy rulebase. Record:
// every value into the historian. Emit: the fuzzy conclusions, which draw on
// the whole vector, so each is quarantined by every suspect channel. A warm
// scan allocates only the reports it emits and the historian's sample
// growth.
func (d *DC) RunProcessScan(now time.Time) error {
	d.proc = d.src.ProcessState()
	d.screenProcess()
	results, err := d.fz.Diagnose(d.proc, d.cfg.CallThreshold)
	if err != nil {
		return err
	}
	for i := range procFields {
		if err := d.record(procFields[i].channel, now, *procFields[i].at(&d.proc)); err != nil {
			return err
		}
	}
	for _, r := range results {
		report := r.ToReport(d.cfg.ID, d.cfg.ObjectID, now)
		quarantine(report, d.procByName[:])
		if err := d.emit(report, now); err != nil {
			return err
		}
	}
	return nil
}

// screenProcess screens the scan's process values with the channel guard.
//
//mpros:hotpath channel screen of every process scan's values
func (d *DC) screenProcess() {
	for i := range procFields {
		d.guard.inspectValue(d.procGuard[i], *procFields[i].at(&d.proc))
	}
}

// emit delivers a report upstream then stores it locally with its delivery
// status — the stored reports are the ship-side audit log when the network
// is down (§4.9).
func (d *DC) emit(r *proto.Report, now time.Time) error {
	delivered := true
	if err := d.uplink.Deliver(r); err != nil {
		delivered = false
		d.reportErrors++
	} else {
		d.reportsSent++
	}
	return d.reports.add(StoredReport{
		Condition: r.MachineConditionID,
		Source:    r.KnowledgeSourceID,
		Severity:  r.Severity,
		Belief:    r.Belief,
		IssuedAt:  now,
		Delivered: delivered,
	})
}

// Historian exposes the DC's acquisition history store.
func (d *DC) Historian() *historian.Store { return d.hist }

// SBFRScans returns how many SBFR scan cycles have executed.
func (d *DC) SBFRScans() int { return d.sbfrScans }

// Close releases DC-owned resources: the report log, and the private
// historian if the DC opened one. A caller-supplied historian is the
// caller's to close.
func (d *DC) Close() error {
	err := d.reports.close()
	if d.ownHist {
		err = errors.Join(err, d.hist.Close())
	}
	return err
}

// ReportsSent returns how many reports were delivered upstream.
func (d *DC) ReportsSent() int { return d.reportsSent }

// ReportErrors returns how many uplink deliveries failed.
func (d *DC) ReportErrors() int { return d.reportErrors }

// StoredReports returns a copy of the newest maxStoredReports condition
// reports the DC issued, oldest first, optionally filtered by condition (""
// for all). Like SetUplink, call it only between RunFor advances.
func (d *DC) StoredReports(condition string) []StoredReport {
	l := d.reports
	out := slices.Concat(l.ring[l.oldest:], l.ring[:l.oldest])
	if condition != "" {
		out = slices.DeleteFunc(out, func(r StoredReport) bool { return r.Condition != condition })
	}
	return out
}

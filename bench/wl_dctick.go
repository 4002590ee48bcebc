package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/chiller"
	"repro/internal/dc"
	"repro/internal/historian"
	"repro/internal/proto"
	"repro/internal/relstore"
	"repro/internal/wnn"
)

// dc_tick: one Data Concentrator with all four suites (vibration expert
// system, fuzzy process scan, SBFR monitor, attached WNN) fed prerecorded
// frames, reporting into a counting sink. No wire, no journal, no PDME.
//
// One tick is one period of the DC's default schedule: 1 RunVibrationTest,
// 8 RunProcessScan (every 30 virtual minutes) and 48 RunSBFRScan (every 5).
// Successive ticks walk the plant profiles, so one DC sees every seeded
// fault and two healthy plants in turn.

const (
	dcTickFrameLen = 16384
	// dcTickRefTicks is the tick count that fills runSeconds on the
	// reference host; --seconds scales it.
	dcTickRefTicks = 840
	dcTickWarmup   = 16
)

// dcTickProfiles draws the profile set: every vibration and process fault
// alone at a seeded severity, plus two healthy plants.
func dcTickProfiles(rng *rand.Rand) []plantProfile {
	out := []plantProfile{{name: "healthy-a"}}
	for _, fr := range append(append([]faultRange(nil), vibFaults...), processFaults...) {
		out = append(out, plantProfile{
			name:   fr.fault.String(),
			faults: map[chiller.Fault]float64{fr.fault: fr.draw(rng)},
		})
	}
	return append(out, plantProfile{name: "healthy-b"})
}

// spanCtx lets the replay source and the sink, which the DC calls back
// into, attach their spans to the layer call the harness has open.
type spanCtx struct {
	tr     *tracer
	source string
	seq    int64
	cur    int
}

// countingSink is dc_tick's uplink: it counts reports per profile and
// condition and remembers any report that named a suspect channel.
type countingSink struct {
	ctx       *spanCtx
	profile   int
	byProfile []map[string]int
	reports   int64
	suspects  []string
}

func (s *countingSink) Deliver(r *proto.Report) error {
	sp := s.ctx.tr.begin("sink.Deliver", s.ctx.source, s.ctx.seq, s.ctx.cur)
	s.reports++
	s.byProfile[s.profile][r.MachineConditionID]++
	if len(r.SuspectChannels) > 0 {
		s.suspects = append(s.suspects, fmt.Sprintf("%s: %v", r.MachineConditionID, r.SuspectChannels))
	}
	s.ctx.tr.end(sp)
	return nil
}

// tracedSource wraps a replay source with acquire spans and, when spent is
// set, adds up the time the source took (fleet_e2e's "acquire" stage).
type tracedSource struct {
	*replaySource
	ctx   *spanCtx
	spent *time.Duration
}

func (s tracedSource) AcquireVibration(pt chiller.MeasurementPoint, n int) ([]float64, error) {
	t0 := time.Now()
	f, err := s.replaySource.AcquireVibration(pt, n)
	s.record("source.AcquireVibration", t0)
	return f, err
}

func (s tracedSource) ProcessState() chiller.ProcessState {
	t0 := time.Now()
	st := s.replaySource.ProcessState()
	s.record("source.ProcessState", t0)
	return st
}

func (s tracedSource) record(name string, t0 time.Time) {
	t1 := time.Now()
	s.ctx.tr.add(name, s.ctx.source, s.ctx.seq, s.ctx.cur, t0, t1)
	if s.spent != nil {
		*s.spent += t1.Sub(t0)
	}
}

// dcTickSystem is the system under test plus the harness ends it talks to.
type dcTickSystem struct {
	dc   *dc.DC
	db   *relstore.DB
	hist *historian.Store
	src  *replaySource
	sink *countingSink
	ctx  *spanCtx
	recs []*recording
}

// buildDCTick builds the DC over recs. A nil clf trains the WNN, as a
// station does at start-up; that is nearly all of dc_tick's set-up time.
func buildDCTick(recs []*recording, clf *wnn.ChillerClassifier) (*dcTickSystem, error) {
	ctx := &spanCtx{source: "dc-1", cur: -1}
	sys := &dcTickSystem{
		db:   relstore.NewMemory(),
		src:  newReplaySource(recs[0]),
		sink: &countingSink{ctx: ctx, byProfile: make([]map[string]int, len(recs))},
		ctx:  ctx,
		recs: recs,
	}
	for i := range sys.sink.byProfile {
		sys.sink.byProfile[i] = map[string]int{}
	}
	var err error
	if sys.hist, err = historian.Open(historian.Options{}); err != nil {
		return nil, fmt.Errorf("open historian: %w", err)
	}
	cfg := dc.DefaultConfig("dc-1", "chiller/1")
	cfg.FrameLen = dcTickFrameLen
	cfg.EnableSBFR = true
	cfg.Historian = sys.hist
	if sys.dc, err = dc.New(cfg, tracedSource{replaySource: sys.src, ctx: ctx}, sys.db, sys.sink); err != nil {
		return nil, fmt.Errorf("build DC: %w", err)
	}
	if clf == nil {
		if clf, err = trainWNN(); err != nil {
			return nil, err
		}
	}
	if err := sys.dc.AttachWNN(clf); err != nil {
		return nil, fmt.Errorf("attach WNN: %w", err)
	}
	return sys, nil
}

// trainWNN trains the DC's classifier. Its training seed is part of the
// station's configuration, not of the workload's inputs, so it is fixed.
func trainWNN() (*wnn.ChillerClassifier, error) {
	clf, err := wnn.NewChillerClassifier(chiller.DefaultConfig(), dcTickFrameLen, 16, 1)
	if err != nil {
		return nil, fmt.Errorf("train WNN: %w", err)
	}
	return clf, nil
}

// dcTickRecordings records the profile set. The WNN calls a fault on about
// one healthy recording in six, so a healthy recording is redrawn until a
// DC with the same classifier stays silent on all of it: the workload is
// chosen so that no operation fails, and a false alarm would fail the check.
func dcTickRecordings(seed int64) ([]*recording, *wnn.ChillerClassifier, error) {
	clf, err := trainWNN()
	if err != nil {
		return nil, nil, err
	}
	var recs []*recording
	for i, p := range dcTickProfiles(rand.New(rand.NewSource(seed))) {
		for try := int64(0); ; try++ {
			rec, err := record(p, seed*1000+int64(i)+100*try, dcTickFrameLen)
			if err != nil {
				return nil, nil, err
			}
			quiet := len(p.faults) > 0
			if !quiet {
				if quiet, err = staysSilent(rec, clf); err != nil {
					return nil, nil, err
				}
			}
			if quiet {
				recs = append(recs, rec)
				break
			}
			if try == 32 {
				return nil, nil, fmt.Errorf("no quiet recording of %s in %d draws", p.name, try)
			}
		}
	}
	return recs, clf, nil
}

// staysSilent runs a throwaway DC over every rotation of rec and reports
// whether it raised no report at all.
func staysSilent(rec *recording, clf *wnn.ChillerClassifier) (bool, error) {
	sys, err := buildDCTick([]*recording{rec}, clf)
	if err != nil {
		return false, err
	}
	defer sys.close()
	for k := int64(0); k < frameRotations; k++ {
		if err := sys.tick(k, nil); err != nil {
			return false, err
		}
	}
	return sys.sink.reports == 0, nil
}

func (s *dcTickSystem) close() {
	// In-memory stores: Close only releases them, nothing can fail to persist.
	_ = s.dc.Close()
	_ = s.hist.Close()
	_ = s.db.Close()
}

// runSchedulePeriod drives d through one period of its default schedule
// starting at base, with events step apart per five-minute slot, and a span
// around every suite call.
func runSchedulePeriod(d *dc.DC, ctx *spanCtx, base time.Time, slot time.Duration) error {
	call := func(name string, at time.Time, run func(time.Time) error) error {
		parent := ctx.cur
		ctx.cur = ctx.tr.begin(name, ctx.source, ctx.seq, parent)
		err := run(at)
		ctx.tr.end(ctx.cur)
		ctx.cur = parent
		return err
	}
	if err := call("dc.RunVibrationTest", base, d.RunVibrationTest); err != nil {
		return err
	}
	for i := 0; i < 48; i++ {
		at := base.Add(time.Duration(i) * slot)
		if i%6 == 0 {
			if err := call("dc.RunProcessScan", at, d.RunProcessScan); err != nil {
				return err
			}
		}
		if err := call("dc.RunSBFRScan", at, d.RunSBFRScan); err != nil {
			return err
		}
	}
	return nil
}

// tick runs tick k: profile k mod P, virtual time k periods after the epoch.
func (s *dcTickSystem) tick(k int64, tr *tracer) error {
	p := int(k % int64(len(s.recs)))
	s.src.use(s.recs[p])
	s.sink.profile = p
	s.ctx.tr, s.ctx.seq = tr, k
	s.ctx.cur = tr.begin("dc.tick", s.ctx.source, k, -1)
	err := runSchedulePeriod(s.dc, s.ctx, virtualEpoch.Add(time.Duration(k)*4*time.Hour), 5*time.Minute)
	tr.end(s.ctx.cur)
	s.ctx.cur = -1
	return err
}

func (s *dcTickSystem) measure(first, n int64, tr *tracer) (*phase, error) {
	ph := newPhase()
	for k := first; k < first+n; k++ {
		t0 := time.Now()
		if err := s.tick(k, tr); err != nil {
			return nil, fmt.Errorf("tick %d: %w", k, err)
		}
		ph.lat.record(time.Since(t0))
		ph.done(n)
	}
	ph.finish()
	return ph, nil
}

func runDCTick(cfg runConfig) (*result, error) {
	res := newResult(wlDCTick)
	recs, clf, err := dcTickRecordings(cfg.seed)
	if err != nil {
		return nil, err
	}

	baseHeap := heapAfterGC()
	sys, setupS, err := timeSetups(func() (*dcTickSystem, error) {
		return buildDCTick(recs, nil)
	}, (*dcTickSystem).close)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	res.set("setup_s", setupS)

	next := int64(0)
	warm, err := sys.measure(next, dcTickWarmup, nil)
	if err != nil {
		return nil, err
	}
	res.addWarmup(warm.use.wall-warm.inline, warm.speed.factor())
	next += dcTickWarmup

	ticks := cfg.count(dcTickRefTicks)
	if !cfg.trace {
		ph, err := sys.measure(next, ticks, nil)
		if err != nil {
			return nil, err
		}
		res.setEndToEnd(ph, heapAfterGC()-baseHeap)
		res.Attempted = ph.ops
	} else {
		plain, err := sys.measure(next, ticks/2, nil)
		if err != nil {
			return nil, err
		}
		next += ticks / 2
		tr := newTracer()
		traced, err := sys.measure(next, ticks/2, tr)
		if err != nil {
			return nil, err
		}
		res.Attempted = plain.ops + traced.ops
		res.setTraceCommon(plain, traced)
		durs := tr.durations()
		res.setHist("dc.vib_test_ms", durs["dc.RunVibrationTest"], 0.5, 1e6)
		res.setHist("dc.process_scan_us", durs["dc.RunProcessScan"], 0.5, 1e3)
		res.setHist("dc.sbfr_scan_us", durs["dc.RunSBFRScan"], 0.5, 1e3)
		res.set("dc.self_ms", tickSelfTime(tr)/1e6)
		res.set("dc.reports_per_tick", float64(sys.sink.reports)/float64(next+ticks/2))
		res.set("dc.mallocs_per_tick", float64(plain.use.mallocs)/float64(plain.ops))
		if err := probeDCLayers(res, recs[1], clf); err != nil {
			return nil, err
		}
		if _, err := tr.writeFile(wlDCTick); err != nil {
			return nil, err
		}
	}
	sys.check(res)
	return res, nil
}

// tickSelfTime is the median of a tick's duration minus everything below it
// that the harness can see: the suite calls' own time is the DC's, the
// source and sink callbacks inside them are not.
func tickSelfTime(tr *tracer) float64 {
	self := tr.selfTime()
	var sum float64
	for _, name := range []string{"dc.tick", "dc.RunVibrationTest"} {
		if h := self[name]; h != nil {
			sum += h.quantile(0.5)
		}
	}
	for name, perTick := range map[string]float64{"dc.RunProcessScan": 8, "dc.RunSBFRScan": 48} {
		if h := self[name]; h != nil {
			sum += perTick * h.quantile(0.5)
		}
	}
	return sum
}

// check is dc_tick's output check: every faulted profile yielded a report
// naming its seeded fault, healthy profiles yielded none, and no report
// named a suspect channel.
func (s *dcTickSystem) check(res *result) {
	for i, rec := range s.recs {
		got := s.sink.byProfile[i]
		if len(rec.faults) == 0 {
			res.checkf(len(got) == 0, "healthy profile %s yielded reports %v", rec.name, got)
			continue
		}
		for f := range rec.faults {
			res.checkf(got[f.String()] > 0, "profile %s: no report names %q (got %v)", rec.name, f, got)
		}
	}
	res.checkf(len(s.sink.suspects) == 0, "%d reports named suspect channels, first: %v",
		len(s.sink.suspects), first(s.sink.suspects))
	res.checkf(len(s.dc.Guard().Suspects()) == 0, "guard holds suspect channels %v", s.dc.Guard().Suspects())
	res.checkf(s.dc.ReportErrors() == 0, "%d report deliveries failed", s.dc.ReportErrors())
	res.Failed += int64(s.dc.ReportErrors())
}

func first(s []string) string {
	if len(s) == 0 {
		return ""
	}
	return s[0]
}

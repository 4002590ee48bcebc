// Package pdme implements the Prognostic/Diagnostic Monitoring Engine, "the
// logical center of the MPROS system" (§3.1): it collects diagnostic and
// prognostic conclusions from DC-resident algorithms, fuses conflicting and
// reinforcing source conclusions, and forms "a prioritized list for the use
// of maintenance personnel".
//
// The knowledge-fusion wiring follows §5.1's four-step format exactly:
//
//  1. New reports arriving to the PDME are posted in the OOSM.
//  2. New reports posted in the OOSM generate "new data" messages to the
//     knowledge fusion components (the OOSM event model, §4.5).
//  3. The knowledge fusion components access the newly arrived data from
//     the OOSM and perform diagnostic and prognostic fusion.
//  4. Conclusions from the knowledge fusion components are posted to the
//     OOSM and presented in user displays.
//
// Steps 3 and 4 are one body, fuse, whichever door a report comes by — the
// object a delivery posts, one somebody created straight in the model, a
// journaled report re-posted at recovery — and one pass: the fold that takes
// the report in yields the pair's state and stamp, and exactly that is posted
// as its conclusion. A report object holds the *proto.Report it was posted
// with, and its ObjectCreated event carries it: that is what KF fuses, and
// what the object's properties are read out of. A conclusion object holds a
// Conclusion the PDME rewrites in place with every fold.
// KF runs synchronously inside the model's Create, on the posting goroutine,
// and its answer is the delivery's: a report it refuses changes nothing, is
// neither marked in the dedup window nor counted, and its sender is told.
//
// The OOSM is a repository of both kinds of conclusion (§3.1), and it keeps
// each at its current state: one conclusion object per pair, rewritten by
// every fold, and one report object per (machine, condition, DC, knowledge
// source), that source's newest report on the pair. Fusion is the one holder
// of which report that is: each block entry keeps its key's current report
// and the number of the object that holds it, and Fold alone applies the
// retention rule, answering the number of the object it let go, which fuse
// deletes. The checkpoint lists the reports fusion holds (Held).
//
// fuse runs inside a per-component ordering section (PDME.fuseMu): for one
// component, fold → conclusion post → the events the post raises (a shard's
// forwarder spools its summary there) → health observation happen in one
// order. So reports for one pair on two connections post their conclusions in
// fold order, the object at rest is the newest fold's, and a pair's first two
// reports cannot both find no conclusion object and create twins. A handler
// on conclusion events runs inside the section: it may read the engine, it
// must not deliver into it.
//
// The PDME implements proto.Sink (and proto.BatchSink), so it terminates the
// TCP report server and takes a co-resident DC's reports directly.
package pdme

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/fusion"
	"repro/internal/health"
	"repro/internal/historian"
	"repro/internal/journal"
	"repro/internal/oosm"
	"repro/internal/proto"
	"repro/internal/trend"
)

// Class names the PDME registers in the OOSM.
const (
	// ReportClass holds §7.2 failure prediction reports.
	ReportClass = "failure_prediction_report"
	// ConclusionClass holds fused KF conclusions.
	ConclusionClass = "kf_conclusion"
)

// PDME is the monitoring engine.
type PDME struct {
	model *oosm.Model
	diag  *fusion.DiagnosticFuser
	// hist is the degradation historian (§4.6 data management): fused
	// severities and lifetime archives land here, and the §10.1 consumers
	// (trend projection, hazard refinement) query it back.
	hist *historian.Store
	// ownHist marks a store the PDME created itself (closed on Close).
	ownHist bool

	mu sync.Mutex
	// pairs holds what the PDME keeps per (component, condition) once a
	// report on it reaches fusion: its severity channel's name, and its
	// conclusion object, so fused updates rewrite one object instead of
	// accumulating.
	pairs map[[2]string]*pair
	// posting holds KF's refusal (nil while none) of each report a postReport
	// is posting, until its Create returns: an event handler cannot fail the
	// Create that woke it. A report nobody is posting has nobody to tell.
	posting  map[*proto.Report]error
	received int
	// intake is how fuse takes reports in: live, or replayed or restored at
	// recovery (OpenJournal).
	intake intake
	sub    *oosm.Subscription
	// dedup suppresses at-least-once redelivery from DC uplinks. It lives
	// on the PDME (not the server) so suppression survives a report-server
	// Close/Serve bounce — evidence is never double-counted across restarts.
	dedup *proto.Dedup
	// registry tracks fleet health from heartbeats and report arrivals. It
	// always exists (event-time, default thresholds) so health displays
	// work out of the box; staleness discounting of fused evidence only
	// engages after ConfigureHealth.
	registry *health.Registry
	// inv, when set, brackets every report's fusion-state mutation so a
	// read-side cache can refuse to serve or store across the write window.
	inv Invalidator
	// fuseMu is fuse's ordering section (package comment), striped by
	// component: connections reporting on different machines fuse in parallel.
	// The stripe is FNV-1a of the id (as proto.Server.senderMu's): which
	// machines share one is the same in every process and every run.
	fuseMu [64]sync.Mutex

	// acceptMu orders accepted envelopes against checkpoints: deliveries
	// and heartbeats hold the read side across journal append + state
	// mutation, Checkpoint holds the write side while pinning its watermark
	// and snapshotting, so a checkpoint always describes a whole prefix of
	// the journal.
	acceptMu sync.RWMutex
	// jrnl, when set, is the durability journal (see journal.go); guarded
	// by mu like the other handles.
	jrnl *journal.Journal
	// checkpointEvery is JournalOptions.CheckpointEvery as given: 0 paces
	// automatic checkpoints by WAL bytes (checkpointDue).
	checkpointEvery int
	// checkpointLen is the last checkpoint's length: the next one's buffer
	// is sized from it, and the paced cadence waits for checkpointPace times
	// it of WAL. The buffer itself is not kept.
	checkpointLen int
	// checkpointTip is the journal's byte count (journal.Tip) pinned with the
	// last checkpoint's watermark: the WAL bytes above that watermark are
	// the count now minus it.
	checkpointTip uint64
	journalErr    error
	// ckptFlight keeps automatic checkpoints single-flight.
	ckptFlight sync.Mutex
}

// Invalidator is the read-side cache's write-window hook, and its only
// notice of a write: fuse opens the window, so every report has one whichever
// door it came by. BeginMutation is called before a report about condition
// touches any fusion state of its block — the condition's failure group on
// the component, the one thing a report can change (§5.3) — EndMutation after
// the report's fusion, conclusion post, and health observation have all
// completed; between the two, cached views of the block (and of anything
// aggregating it) are neither served nor stored. Both run synchronously on
// the fusing goroutine, inside the component's ordering section, and must not
// call back into the PDME: the group is handed over so that they need not.
type Invalidator interface {
	BeginMutation(component, group, condition string)
	EndMutation(component, group, condition string)
}

// New builds a PDME over a ship model and the logical failure groups for
// diagnostic fusion, backed by a private in-memory historian. It registers
// the report/conclusion classes and subscribes knowledge fusion to report
// arrivals; a model another engine already registered them in is refused, so
// the engine's maps index every report and conclusion object in its model.
func New(model *oosm.Model, groups fusion.Groups) (*PDME, error) {
	return NewWithHistorian(model, groups, nil)
}

// NewWithHistorian builds a PDME whose severity histories and lifetime
// archives live in the given historian store (nil: a private in-memory
// store) — pass a disk-backed store for the shipboard configuration, where
// degradation history must survive restarts.
func NewWithHistorian(model *oosm.Model, groups fusion.Groups, hist *historian.Store) (*PDME, error) {
	if model == nil {
		return nil, fmt.Errorf("pdme: nil model")
	}
	diag, err := fusion.NewDiagnosticFuser(groups)
	if err != nil {
		return nil, err
	}
	for _, c := range []oosm.Class{reportClass, conclusionClass} {
		if err := model.RegisterClass(c); err != nil {
			return nil, err
		}
	}
	registry, err := health.NewRegistry(health.Config{})
	if err != nil {
		return nil, err
	}
	ownHist := hist == nil
	if hist == nil {
		hist, err = historian.Open(historian.Options{})
		if err != nil {
			return nil, err
		}
	}
	p := &PDME{
		model:    model,
		diag:     diag,
		hist:     hist,
		ownHist:  ownHist,
		pairs:    make(map[[2]string]*pair),
		posting:  make(map[*proto.Report]error),
		dedup:    proto.NewDedup(0),
		registry: registry,
	}
	// §5.1 step 2: new reports in the OOSM wake knowledge fusion, which fuses
	// the report the object holds, carried on the event. A report KF refuses
	// changed nothing, and its object goes at once, whichever door it came
	// by; the refusal goes to the postReport posting it, if one is.
	p.sub = model.SubscribeClass(ReportClass, oosm.ObjectCreated, func(e oosm.Event) {
		r := e.Value.(*proto.Report)
		if err := p.fuse(e.Object, r); err != nil {
			_ = p.model.Delete(e.Object) // best effort: the refusal is the story
			p.mu.Lock()
			if _, posting := p.posting[r]; posting {
				p.posting[r] = err
			}
			p.mu.Unlock()
		}
	})
	return p, nil
}

// Close cancels the model subscription, writes a final checkpoint and
// closes the journal when one is open, and, when the PDME owns its
// historian (New rather than NewWithHistorian), closes it.
func (p *PDME) Close() {
	p.sub.Cancel()
	if jr := p.journalHandle(); jr != nil {
		// Best effort: a failed final checkpoint just means the next open
		// replays the tail; every accepted record is already in the WAL.
		if err := p.Checkpoint(); err != nil {
			p.mu.Lock()
			p.journalErr = err
			p.mu.Unlock()
		}
		_ = jr.Close() // best effort: same reasoning
		p.mu.Lock()
		p.jrnl = nil
		p.mu.Unlock()
	}
	if p.ownHist {
		_ = p.hist.Close()
	}
}

// Model returns the PDME's ship model.
func (p *PDME) Model() *oosm.Model { return p.model }

// SetInvalidator installs (or, with nil, removes) the read-side cache's
// write-window hook. One hook at a time: a second is refused while the first
// is installed, so a tier is never silently left serving what it no longer
// hears about. Install on a wired engine (ConfigureHealth, OpenJournal) and
// before traffic: deliveries already in flight when the hook lands are not
// bracketed.
func (p *PDME) SetInvalidator(inv Invalidator) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if inv != nil && p.inv != nil {
		return fmt.Errorf("pdme: a read tier is already attached")
	}
	p.inv = inv
	return nil
}

func (p *PDME) invalidator() Invalidator {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inv
}

// Deliver implements proto.Sink: §5.1 step 1 — post the report into the
// OOSM. Fusion then runs via the model's event notification. The PDME keeps
// the report: its report object and fusion's entry hold it until a newer
// report from the same source supersedes it (fuse), so the caller must not
// change it after handing it over.
func (p *PDME) Deliver(r *proto.Report) error {
	return p.DeliverTagged(r, r.DCID, 0, 0)
}

// DeliverTagged is Deliver plus the wire delivery tag, so a journaling PDME
// records (dcid, boot, seq) with the report and marks its own dedup window
// inside the accept critical section — a resend arriving after a crash +
// recovery is then still recognized as a duplicate. Untagged callers pass
// zero boot and seq. It is the run of one through DeliverBatch.
func (p *PDME) DeliverTagged(r *proto.Report, dcid string, boot, seq uint64) error {
	one := [1]proto.Delivery{{Report: r, DCID: dcid, Boot: boot, Seq: seq}}
	p.DeliverBatch(one[:])
	return one[0].Err
}

// DeliverBatch implements proto.BatchSink, the PDME's one accept path: a
// run of N ≥ 1 reports shares one journal write and one fsync. Each
// element's Err is its own answer. As Deliver, it keeps each report it
// accepts, which its caller must not change afterwards.
func (p *PDME) DeliverBatch(run []proto.Delivery) {
	admitted := false
	for i := range run {
		d := &run[i]
		if d.Report == nil {
			d.Err = errors.New("pdme: a PDME fuses reports, not fused summaries (route the shard to an aggregator)")
			continue
		}
		if d.Err = d.Report.Validate(); d.Err != nil {
			continue
		}
		// Reports about conditions outside every failure group are rejected at
		// the door so the sender sees the configuration problem.
		if _, d.Err = p.diag.GroupOf(d.Report.MachineConditionID); d.Err == nil {
			admitted = true
		}
	}
	if !admitted {
		return
	}
	p.acceptMu.RLock()
	p.acceptReports(run)
	p.acceptMu.RUnlock()
	p.maybeCheckpoint()
}

// acceptReports is the accept critical section for the reports of a run
// still standing (Err nil): one journal append for all of them (fsynced),
// then per report, in journal order, OOSM post + synchronous fusion and the
// dedup mark. A report too large for a journal record is refused alone; a
// journal that cannot be written refuses the rest (proto.ErrUnavailable) with
// nothing applied; an apply error — knowledge fusion's refusal included — is
// that report's alone. Callers hold acceptMu (read side).
func (p *PDME) acceptReports(run []proto.Delivery) {
	// Write-ahead: every accepted envelope is durable before any derived
	// state changes, so a crash at any later point replays it. The record is
	// the frame as received; a delivery that came by no wire is encoded here.
	var buf [proto.MaxRun][]byte // a run's worth without a heap slice
	blobs := buf[:0]
	if p.journalHandle() != nil {
		for i := range run {
			if d := &run[i]; d.Err == nil {
				blob := d.Frame
				if blob == nil {
					blob, d.Err = proto.AppendFrame(nil, d)
				}
				if blob, d.Err = journalBody(blob, d.Err); d.Err == nil {
					blobs = append(blobs, blob)
				}
			}
		}
	}
	if err := p.appendJournal(journalKindFrame, blobs); err != nil {
		for i := range run {
			if run[i].Err == nil {
				run[i].Err = err
			}
		}
		return
	}
	for i := range run {
		if d := &run[i]; d.Err == nil {
			d.Err = p.apply(d, p.postReport)
		}
	}
}

// apply takes one journaled report in by fold — the live accept posts it into
// the OOSM, where KF finds it (postReport); replay hands it to fuse — and,
// once fused, marks its tag and counts it. A report fold refuses is neither.
func (p *PDME) apply(d *proto.Delivery, fold func(*proto.Report) error) error {
	if err := fold(d.Report); err != nil {
		return err
	}
	// Mark the dedup window while still inside the accept section, so a
	// checkpoint can never see the fusion effect without the mark (the
	// server's own post-accept Mark is idempotent with this one).
	if d.Seq > 0 {
		p.dedupHandle().Mark(d.DCID, d.Boot, d.Seq)
	}
	p.mu.Lock()
	p.received++
	p.mu.Unlock()
	return nil
}

// postReport is §5.1 step 1: post the report into the OOSM. The model's
// event notification runs knowledge fusion before Create returns, on this
// goroutine; what it answered is this report's answer. A post KF refused is
// already deleted: it changed nothing (fuse). A report is posted by one
// postReport at a time.
func (p *PDME) postReport(r *proto.Report) error {
	p.mu.Lock()
	p.posting[r] = nil
	p.mu.Unlock()
	_, err := p.model.Create(ReportClass, r)
	p.mu.Lock()
	if err == nil {
		err = p.posting[r]
	}
	delete(p.posting, r)
	p.mu.Unlock()
	return err
}

// ObserveHeartbeat implements proto.HeartbeatSink by forwarding fleet
// heartbeats into the health registry (journaled: silence inferences
// survive a PDME crash).
func (p *PDME) ObserveHeartbeat(hb *proto.Heartbeat) error {
	return p.acceptHeartbeat(hb)
}

// SendHeartbeat lets a co-resident DC (wired straight to the PDME with no
// uplink in between) satisfy the dc.HeartbeatUplink contract: the heartbeat
// is observed directly, skipping the wire.
func (p *PDME) SendHeartbeat(hb *proto.Heartbeat) error {
	return p.acceptHeartbeat(hb)
}

func (p *PDME) acceptHeartbeat(hb *proto.Heartbeat) error {
	if err := hb.Validate(); err != nil {
		return err
	}
	p.acceptMu.RLock()
	err := func() error {
		if p.journalHandle() != nil {
			blob, err := journalBody(json.Marshal(hb))
			if err != nil {
				return err
			}
			if err := p.appendJournal(journalKindHeartbeat, [][]byte{blob}); err != nil {
				return err
			}
		}
		return p.Health().ObserveHeartbeat(hb)
	}()
	p.acceptMu.RUnlock()
	if err != nil {
		return err
	}
	p.maybeCheckpoint()
	return nil
}

// ConfigureDedup replaces the duplicate-suppression window with one of the
// given per-DC capacity (<=0: proto.DefaultDedupWindow, 4096 sequences).
// Size it above the deepest burst a DC spool can replay after an outage.
// The new window keeps what the old one marked, recovered tags included,
// down to its own floor. Call before Serve: a running server keeps the
// window it was given.
func (p *PDME) ConfigureDedup(window int) {
	d := proto.NewDedup(window)
	p.mu.Lock()
	d.Restore(p.dedup.State())
	p.dedup = d
	p.mu.Unlock()
}

func (p *PDME) dedupHandle() *proto.Dedup {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dedup
}

// Health exposes the fleet-health registry for displays and tests.
func (p *PDME) Health() *health.Registry {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.registry
}

// ConfigureHealth replaces the health registry with one built from cfg and
// engages staleness discounting: from here on every source's fused evidence
// is Shafer-discounted by its report age and DC liveness state on each
// query, so beliefs decay toward Unknown when a DC goes quiet and recover
// when it returns. Call before any traffic: replacing the registry drops
// the liveness history it observed. So it is refused once a journal is open
// (recovery restored that history) or a read tier is attached (the tier
// keeps the registry it reads).
func (p *PDME) ConfigureHealth(cfg health.Config) error {
	registry, err := health.NewRegistry(cfg)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case p.jrnl != nil:
		return fmt.Errorf("pdme: configure health before OpenJournal: the journal's health history is already recovered")
	case p.inv != nil:
		return fmt.Errorf("pdme: configure health before a read tier is attached")
	}
	p.registry = registry
	p.diag.SetDiscounter(registry)
	return nil
}

// intake is how fuse takes a report in, and what else it records of it.
type intake int

const (
	// intakeLive records the report's severity sample and observes its DC.
	intakeLive intake = iota
	// intakeReplay is a WAL tail record re-posted at recovery: its severity
	// sample goes in unless a disk historian already holds it
	// (replaySeverity).
	intakeReplay
	// intakeRestore is a checkpoint's current report re-posted at recovery:
	// the historian and the restored health registry already hold what it
	// left there.
	intakeRestore
)

// fuse is knowledge fusion's one pass over the report object id holds
// (package comment). Inside the component's ordering section and the read
// side's write window it folds the report in (fusion.DiagnosticFuser.Fold),
// records its severity sample once the fold is decided and before it is kept,
// deletes the report object the fold let go, posts the state the fold
// returned as the pair's conclusion (§5.1 step 4), and observes the DC's
// liveness. A report the fold or the historian refuses changes nothing. Live
// reports and recovery's re-posts differ only in what the intake records, so
// recovery reproduces the live state by construction.
func (p *PDME) fuse(id oosm.ObjectID, r *proto.Report) error {
	component, condition := r.SensedObjectID, r.MachineConditionID
	group, err := p.diag.GroupOf(condition)
	if err != nil {
		return err
	}
	stripe := uint32(2166136261)
	for i := 0; i < len(component); i++ {
		stripe = (stripe ^ uint32(component[i])) * 16777619
	}
	mu := &p.fuseMu[stripe%uint32(len(p.fuseMu))]
	mu.Lock()
	defer mu.Unlock()
	// The window opens before any fusion state can change and closes only
	// after the health observation lands too.
	if inv := p.invalidator(); inv != nil {
		inv.BeginMutation(component, group, condition)
		defer inv.EndMutation(component, group, condition)
	}
	key := [2]string{component, condition}
	p.mu.Lock()
	pr := p.pairs[key]
	if pr == nil {
		pr = &pair{severity: severityChannel(component, condition)}
		p.pairs[key] = pr
	}
	in := p.intake
	p.mu.Unlock()
	// §10.1 temporal reasoning: the severity history goes to the historian so
	// developing faults can be projected forward (and, on disk-backed stores,
	// survive a PDME restart). Evidence is attributed to its DC and knowledge
	// source so the health registry can discount a stale DC's reports.
	cs, drop, err := p.diag.Fold(r, id.Num, func() error {
		switch in {
		case intakeLive:
			return p.observeSeverity(pr.severity, r.Timestamp, r.Severity)
		case intakeReplay:
			return p.replaySeverity(pr.severity, r.Timestamp, r.Severity)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if drop != 0 {
		// Best effort: fusion no longer holds its report.
		_ = p.model.Delete(oosm.ObjectID{Class: ReportClass, Num: drop})
	}
	if err := p.postConclusion(pr, component, cs); err != nil {
		return err
	}
	// A fused report is liveness evidence for its DC, heartbeats or not.
	if in != intakeRestore {
		p.Health().ObserveReport(r.DCID, r.KnowledgeSourceID, r.Timestamp)
	}
	return nil
}

// postConclusion writes the pair's conclusion object with the state the fold
// returned: all of it at the pair's first post, and afterwards, in place, only
// what a fold changes — the subject (component, condition, group) is the
// object's for good. Its updated_at is the state's, which never goes back.
// Callers hold the component's ordering section, which is what keeps
// lookup-then-create from making twins and orders every write of pr.
func (p *PDME) postConclusion(pr *pair, component string, cs fusion.ConditionState) error {
	if c := pr.conclusion; c != nil {
		return p.model.Set(pr.id, conclusionFold, func() { c.fold(cs) })
	}
	c := &Conclusion{component: component, condition: cs.Condition, group: cs.Group}
	c.fold(cs)
	id, err := p.model.Create(ConclusionClass, c)
	if err != nil {
		return err
	}
	pr.id, pr.conclusion = id, c
	return nil
}

// ReceivedReports returns the number of reports accepted.
func (p *PDME) ReceivedReports() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.received
}

// Belief returns the fused belief in a condition on a component.
func (p *PDME) Belief(component, condition string) (float64, error) {
	return p.diag.Belief(component, condition)
}

// Unknown returns the residual unknown mass for a component's group.
func (p *PDME) Unknown(component, group string) (float64, error) {
	return p.diag.Unknown(component, group)
}

// GroupOf returns the logical failure group of a condition.
func (p *PDME) GroupOf(condition string) (string, error) {
	return p.diag.GroupOf(condition)
}

// ConditionSnapshot returns the full fused read-side state of a pair
// (belief, plausibility, group unknown, report count, reliability/degraded,
// the fused prognostic vector, which is the fuser's own and read-only) in one
// atomic fusion read.
func (p *PDME) ConditionSnapshot(component, condition string) (fusion.ConditionState, error) {
	return p.diag.ConditionState(component, condition)
}

// FusedPrognostic returns the fused §7.3 vector for a pair: the fuser's
// own, read-only (fusion.DiagnosticFuser.Prognosis).
func (p *PDME) FusedPrognostic(component, condition string) proto.PrognosticVector {
	return p.diag.Prognosis(component, condition)
}

// MaintenanceItem is one row of the prioritized maintenance list.
type MaintenanceItem struct {
	Component string
	fusion.ConditionBelief
	// TimeToHalf is the fused time until 50% failure probability (0 and
	// false when no prognostic exists).
	TimeToHalf    time.Duration
	HasPrognostic bool
}

// PrognosticHorizon is how far ahead a ranking looks for a pair's time to
// 50 % failure probability.
const PrognosticHorizon = 2 * 365 * 24 * time.Hour

// RankKey is what a maintenance row is ranked by, on the station's list and
// on the aggregator's global one.
type RankKey struct {
	Belief        float64
	HasPrognostic bool
	TimeToHalf    time.Duration
	Component     string
	Condition     string
}

// Before is the one ranking order: fused belief descending, then prognostic
// urgency (a shorter time to 50 % failure first, any prognostic before
// none), then component and condition names so the order is total.
func (a RankKey) Before(b RankKey) bool {
	//lint:allow floateq sort tie-break needs a strict weak order; a tolerance would make it intransitive
	if a.Belief != b.Belief {
		return a.Belief > b.Belief
	}
	switch {
	case a.HasPrognostic && b.HasPrognostic && a.TimeToHalf != b.TimeToHalf:
		return a.TimeToHalf < b.TimeToHalf
	case a.HasPrognostic != b.HasPrognostic:
		return a.HasPrognostic
	}
	if a.Component != b.Component {
		return a.Component < b.Component
	}
	return a.Condition < b.Condition
}

func (it MaintenanceItem) rankKey() RankKey {
	return RankKey{Belief: it.Belief, HasPrognostic: it.HasPrognostic, TimeToHalf: it.TimeToHalf,
		Component: it.Component, Condition: it.Condition}
}

// newItem makes a maintenance-list row of one fused conclusion: the
// diagnostic read plus the time to 50 % failure probability read off the
// pair's fused prognostic vector.
func newItem(component string, cb fusion.ConditionBelief, vec proto.PrognosticVector) MaintenanceItem {
	it := MaintenanceItem{Component: component, ConditionBelief: cb}
	it.TimeToHalf, it.HasPrognostic = vec.TimeToProbability(0.5, PrognosticHorizon)
	return it
}

// sortItems puts rows most-urgent first (RankKey.Before).
func sortItems(items []MaintenanceItem) {
	sort.Slice(items, func(i, j int) bool { return items[i].rankKey().Before(items[j].rankKey()) })
}

// PrioritizedList returns fused conclusions across all components ranked
// most-urgent first (RankKey.Before). The diagnostic half is one consistent
// snapshot (fusion.RankedAll): a report fused mid-call never appears for one
// component while missing for another.
func (p *PDME) PrioritizedList() []MaintenanceItem {
	var out []MaintenanceItem
	//lint:allow maporder the list is fully sorted by the total RankKey order before return
	for component, ranked := range p.diag.RankedAll() {
		for _, cb := range ranked {
			out = append(out, newItem(component, cb, p.FusedPrognostic(component, cb.Condition)))
		}
	}
	sortItems(out)
	return out
}

// GroupRead is one (component, failure group) block as the read side serves
// it: the fused read of the group, each member's prognostic included.
type GroupRead struct {
	fusion.GroupState
	// Items are the block's rows of the prioritized list — one per member
	// with at least one report, in member order — exactly the rows
	// PrioritizedList holds for the block at the same instant.
	Items []MaintenanceItem
}

// GroupRead fuses one (component, group) block once (fusion.GroupState) and
// adds its rows of the prioritized list. One report can change the read of
// its own block and of no other (§5.3), which makes the block the unit a
// read-side cache materializes and invalidates.
func (p *PDME) GroupRead(component, group string) (GroupRead, error) {
	gs, err := p.diag.GroupState(component, group)
	if err != nil {
		return GroupRead{}, err
	}
	gr := GroupRead{GroupState: gs}
	for _, cs := range gs.Members {
		if cs.Reports > 0 {
			gr.Items = append(gr.Items, newItem(component, cs.ConditionBelief, cs.Prognostics))
		}
	}
	return gr, nil
}

// AppendGroupFactors appends to dst the discount factors a GroupRead of the
// block would apply right now, without fusing anything
// (fusion.AppendGroupFactors): equal factors and no report to the block since
// mean an equal read.
func (p *PDME) AppendGroupFactors(dst []float64, component, group string) []float64 {
	return p.diag.AppendGroupFactors(dst, component, group)
}

// Blocks returns every (component, failure group) pair holding fused
// evidence, sorted.
func (p *PDME) Blocks() [][2]string { return p.diag.Blocks() }

// SeverityHistory returns the recorded severity observations for a pair in
// time order (historian queries sort, whatever the arrival order was).
func (p *PDME) SeverityHistory(component, condition string) []trend.Point {
	it, err := p.hist.Query(severityChannel(component, condition), time.Time{}, time.Time{})
	if err != nil {
		return nil // channel not yet created: no reports for the pair
	}
	points := make([]trend.Point, 0, it.Remaining())
	for it.Next() {
		s := it.At()
		points = append(points, trend.Point{At: s.At, Value: s.Value})
	}
	return points
}

// Serve starts a TCP report server delivering into this PDME and returns
// the bound address and the server handle for shutdown. Every Serve shares
// the PDME's dedup window, so sequence-tagged reports redelivered across a
// server restart are acked without a second fusion.
func (p *PDME) Serve(addr string) (string, *proto.Server, error) {
	return p.ServeWithIdleTimeout(addr, proto.DefaultIdleTimeout)
}

// ServeWithIdleTimeout is Serve with an explicit per-connection idle
// deadline (0 disables deadlines) for deployments whose DCs report rarely.
func (p *PDME) ServeWithIdleTimeout(addr string, idle time.Duration) (string, *proto.Server, error) {
	srv := proto.NewServer(p)
	srv.SetDedup(p.dedupHandle())
	srv.SetHeartbeatSink(p)
	srv.SetIdleTimeout(idle)
	bound, err := srv.Start(addr)
	if err != nil {
		return "", nil, err
	}
	return bound, srv, nil
}

// DedupHits returns how many redelivered reports were suppressed.
func (p *PDME) DedupHits() int64 { return p.dedupHandle().Hits() }

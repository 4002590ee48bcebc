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
// journaled report replayed at recovery — and one pass: the fold that takes
// the report in yields the pair's state and stamp, and exactly that is posted
// as its conclusion. A report object holds the *proto.Report it was posted
// with, and its ObjectCreated event carries it: that is what KF fuses, and
// what the object's properties are read out of. A conclusion object holds a
// Conclusion the PDME rewrites in place with every fold.
// KF runs synchronously inside the model's Create, on the posting goroutine,
// and its answer is the delivery's: a report it refuses is neither marked in
// the dedup window nor counted, and its sender is told.
//
// The OOSM is a repository of both kinds of conclusion (§3.1), and it keeps
// each at its current state: one conclusion object per pair, rewritten by
// every fold, and one report object per (machine, knowledge source,
// condition), the source's newest report on the pair (postReport).
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
	prog  *fusion.PrognosticFuser
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
	// refused parks KF's refusal of a report object, by id, for the accept
	// that posted it: an event handler cannot fail the Create that woke it.
	// (The refusal of an object nobody's accept posted has nobody to tell.)
	refused map[oosm.ObjectID]error
	// reports holds each knowledge source's current report object per
	// (machine, condition): the repository's retention rule (postReport).
	reports  map[reportKey]heldReport
	received int
	sub      *oosm.Subscription
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
		prog:     fusion.NewPrognosticFuser(),
		hist:     hist,
		ownHist:  ownHist,
		pairs:    make(map[[2]string]*pair),
		refused:  make(map[oosm.ObjectID]error),
		reports:  make(map[reportKey]heldReport),
		dedup:    proto.NewDedup(0),
		registry: registry,
	}
	// §5.1 step 2: new reports in the OOSM wake knowledge fusion, which fuses
	// the report the object holds, carried on the event. A refusal is parked
	// for the accept that made the post (postReport).
	p.sub = model.SubscribeClass(ReportClass, oosm.ObjectCreated, func(e oosm.Event) {
		if err := p.fuse(e.Value.(*proto.Report), p.observeSeverity); err != nil {
			p.mu.Lock()
			p.refused[e.Object] = err
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
// write-window hook. Install before traffic: deliveries already in flight
// when the hook lands are not bracketed.
func (p *PDME) SetInvalidator(inv Invalidator) {
	p.mu.Lock()
	p.inv = inv
	p.mu.Unlock()
}

func (p *PDME) invalidator() Invalidator {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inv
}

// Deliver implements proto.Sink: §5.1 step 1 — post the report into the
// OOSM. Fusion then runs via the model's event notification. The PDME keeps
// the report: its report object holds it until a newer report from the same
// source supersedes it (postReport), so the caller must not change it after
// handing it over.
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

// reportKey names what a report object is the current one of: one knowledge
// source's report on one (machine, condition) pair.
type reportKey struct{ sensed, source, condition string }

// heldReport is a key's current report object and when its report was sensed.
type heldReport struct {
	id oosm.ObjectID
	at time.Time
}

// supersedeLocked makes id, sensed at at, the key's current report unless the
// held one is newer, and returns the object the retention rule lets go: the
// one superseded, id itself, or the zero id when the key held nothing.
// Callers hold p.mu.
func (p *PDME) supersedeLocked(key reportKey, id oosm.ObjectID, at time.Time) oosm.ObjectID {
	held, ok := p.reports[key]
	if ok && at.Before(held.at) {
		return id
	}
	p.reports[key] = heldReport{id: id, at: at}
	return held.id
}

// postReport is §5.1 step 1: post the report into the OOSM. The model's
// event notification runs knowledge fusion before Create returns, on this
// goroutine; what it answered is this report's answer.
//
// The repository keeps each knowledge source's current report per (machine,
// condition), as KF keeps one conclusion per pair: the object with the latest
// timestamp, a tie going to the later arrival. Once KF has fused the post, the
// object it superseded is deleted — or the post itself, when it is older than
// the one held. A post KF refused is deleted at once and displaces nothing: it
// was never fused.
func (p *PDME) postReport(r *proto.Report) error {
	id, err := p.model.Create(ReportClass, r)
	if err != nil {
		return err
	}
	p.mu.Lock()
	refusal := p.refused[id]
	delete(p.refused, id)
	drop := id
	if refusal == nil {
		key := reportKey{r.SensedObjectID, r.KnowledgeSourceID, r.MachineConditionID}
		drop = p.supersedeLocked(key, id, r.Timestamp)
	}
	p.mu.Unlock()
	if !drop.IsZero() {
		// Best effort: the report's answer is its fusion's, whatever becomes
		// of the object.
		_ = p.model.Delete(drop)
	}
	return refusal
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
// Call before any traffic and before OpenJournal — replacing the window
// drops suppression history.
func (p *PDME) ConfigureDedup(window int) {
	p.mu.Lock()
	p.dedup = proto.NewDedup(window)
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
// when it returns. Call before any traffic — replacing the registry drops
// previously observed liveness history.
func (p *PDME) ConfigureHealth(cfg health.Config) error {
	registry, err := health.NewRegistry(cfg)
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.registry = registry
	p.mu.Unlock()
	p.diag.SetDiscounter(registry)
	return nil
}

// fuse is knowledge fusion's one pass over one report (package comment):
// inside the component's ordering section and the read side's write window it
// records the severity, folds the evidence into both fusion layers, posts the
// state that fold returned as the pair's conclusion (§5.1 step 4), and
// observes the DC's liveness. The live path and journal replay differ only in
// how the severity sample is recorded (observeSeverity, or the idempotent
// replaySeverity), so recovery reproduces the live state by construction.
func (p *PDME) fuse(r *proto.Report, recordSeverity func(channel string, at time.Time, severity float64) error) error {
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
	p.mu.Unlock()
	// §10.1 temporal reasoning: record the severity history in the
	// historian so developing faults can be projected forward (and, on
	// disk-backed stores, survive a PDME restart).
	if err := recordSeverity(pr.severity, r.Timestamp, r.Severity); err != nil {
		return err
	}
	// Evidence is attributed to the originating DC so the health registry
	// can discount a stale source's whole contribution. Reports without a
	// DC id stay anonymous and are never discounted.
	cs, err := p.diag.AddReportFrom(component, condition, r.DCID, r.Timestamp, r.Belief)
	if err != nil {
		return err
	}
	var fusedVec proto.PrognosticVector
	if len(r.Prognostics) > 0 {
		fusedVec, err = p.prog.AddReport(component, condition, r.Prognostics)
		if err != nil {
			return err
		}
	} else {
		fusedVec = p.prog.Fused(component, condition)
	}
	if err := p.postConclusion(pr, component, cs, fusedVec); err != nil {
		return err
	}
	// A fused report is liveness evidence for its DC, heartbeats or not.
	p.Health().ObserveReport(r.DCID, r.KnowledgeSourceID, r.Timestamp)
	return nil
}

// postConclusion writes the pair's conclusion object with the state the fold
// returned: all of it at the pair's first post, and afterwards, in place, only
// what a fold changes — the subject (component, condition, group) is the
// object's for good. Its updated_at is the state's, which never goes back.
// Callers hold the component's ordering section, which is what keeps
// lookup-then-create from making twins and orders every write of pr.
func (p *PDME) postConclusion(pr *pair, component string, cs fusion.ConditionState, vec proto.PrognosticVector) error {
	if c := pr.conclusion; c != nil {
		return p.model.Set(pr.id, conclusionFold, func() { c.fold(cs, vec) })
	}
	c := &Conclusion{component: component, condition: cs.Condition, group: cs.Group}
	c.fold(cs, vec)
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
// (belief, plausibility, group unknown, report count, reliability/degraded)
// in one atomic fusion read, plus the pair's fused prognostic vector.
func (p *PDME) ConditionSnapshot(component, condition string) (fusion.ConditionState, proto.PrognosticVector, error) {
	cs, err := p.diag.ConditionState(component, condition)
	if err != nil {
		return fusion.ConditionState{}, nil, err
	}
	return cs, p.prog.Fused(component, condition), nil
}

// FusedPrognostic returns the fused §7.3 vector for a pair.
func (p *PDME) FusedPrognostic(component, condition string) proto.PrognosticVector {
	return p.prog.Fused(component, condition)
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
			out = append(out, newItem(component, cb, p.prog.Fused(component, cb.Condition)))
		}
	}
	sortItems(out)
	return out
}

// GroupRead is one (component, failure group) block as the read side serves
// it: the fused diagnostic read of the group plus each member's prognostic.
type GroupRead struct {
	fusion.GroupState
	// Prognostics[i] is the fused §7.3 vector of Members[i] (nil when no
	// prognostic report has arrived for it).
	Prognostics []proto.PrognosticVector
	// Items are the block's rows of the prioritized list — one per member
	// with at least one report, in member order — exactly the rows
	// PrioritizedList holds for the block at the same instant.
	Items []MaintenanceItem
}

// GroupRead fuses one (component, group) block once (fusion.GroupState) and
// adds the members' prognostics. One report can change the read of its own
// block and of no other (§5.3), which makes the block the unit a read-side
// cache materializes and invalidates.
func (p *PDME) GroupRead(component, group string) (GroupRead, error) {
	gs, err := p.diag.GroupState(component, group)
	if err != nil {
		return GroupRead{}, err
	}
	gr := GroupRead{GroupState: gs, Prognostics: make([]proto.PrognosticVector, len(gs.Members))}
	for i, cs := range gs.Members {
		gr.Prognostics[i] = p.prog.Fused(component, cs.Condition)
		if cs.Reports > 0 {
			gr.Items = append(gr.Items, newItem(component, cs.ConditionBelief, gr.Prognostics[i]))
		}
	}
	return gr, nil
}

// GroupFactors returns the discount factors a GroupRead of the block would
// apply right now, without fusing anything (fusion.GroupFactors): equal
// factors and no report to the block since mean an equal read.
func (p *PDME) GroupFactors(component, group string) []float64 {
	return p.diag.GroupFactors(component, group)
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

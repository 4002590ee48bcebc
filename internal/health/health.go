// Package health is the PDME-side fleet-health registry: it watches the
// stream of DC heartbeats and reports (and, just as importantly, its
// silences) and maintains a per-DC liveness state machine plus per-source
// reliability factors.
//
// The paper's DLI reports carry believability factors (§5.5) and Knowledge
// Fusion is explicitly conservative (§5.3); this package applies the same
// idea to the monitoring fleet itself. A DC that goes quiet, restarts in a
// loop, or lags its schedule should not keep contributing full-strength
// evidence: its reports' reliability decays with age and state, and the
// fusion layer (fusion.DiagnosticFuser with a Discounter) shifts the
// forfeited confidence to Θ — beliefs degrade toward Unknown instead of
// freezing at their last fused values, and recover automatically when the
// source returns.
//
// The registry never reads the wall clock itself. It runs on one watermark,
// moved by what it observes: without a Clock, the timestamps of heartbeats
// and reports (event time — virtual-time simulations and chaos tests are
// fully deterministic, enforced by the noclock analyzer); with an injected
// Clock (pdmed passes time.Now), the clock alone, a ClockQuantum at a time —
// one more observation source, so a quiet fleet still ages.
package health

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/proto"
)

// State is a DC's liveness classification.
type State int

const (
	// StateUnknown means the registry has never heard from the DC.
	StateUnknown State = iota
	// StateAlive means the DC signalled within the late deadline.
	StateAlive
	// StateLate means the DC missed its deadline but is not yet presumed
	// down — reliability decays but evidence still counts.
	StateLate
	// StateSilent means nothing has been heard for the silent deadline; the
	// DC is presumed down and its evidence is additionally penalized.
	StateSilent
	// StateFlapping means the DC is restarting faster than the configured
	// rate: it is "alive" but untrustworthy (crash loops lose in-flight
	// analysis state), so its evidence is penalized until restarts age out.
	StateFlapping
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateLate:
		return "late"
	case StateSilent:
		return "silent"
	case StateFlapping:
		return "flapping"
	default:
		return "unknown"
	}
}

// MarshalJSON renders the state by name — snapshots feed operator-facing
// JSON endpoints, where a bare enum int is unreadable.
func (s State) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// Defaults for Config's zero values.
const (
	DefaultLateAfter        = 5 * time.Minute
	DefaultSilentAfter      = 15 * time.Minute
	DefaultFlapWindow       = 30 * time.Minute
	DefaultFreshFor         = 1 * time.Hour
	DefaultStalenessHorizon = 24 * time.Hour
)

// The flap count and the penalties on a silent or flapping DC's evidence
// are constants of the registry, not settings.
const (
	// flapRestarts is the restart count within FlapWindow that classifies a
	// DC as Flapping.
	flapRestarts = 3
	// silentPenalty multiplies the age-derived reliability of a Silent DC's
	// evidence.
	silentPenalty = 0.5
	// flapPenalty multiplies the age-derived reliability of a Flapping DC's
	// evidence.
	flapPenalty = 0.5
)

// ClockQuantum is the step an injected Clock moves the registry's time by.
// Inside a quantum time stands still and every answer is bit-equal; crossing
// one is an observation like any other (it moves Version). A second is far
// below every staleness threshold worth configuring and far above the rate
// consoles read at, so they read kept views between steps.
const ClockQuantum = time.Second

// Config parametrizes the registry's state machine and reliability curve.
type Config struct {
	// LateAfter is the silence duration after which a DC is Late
	// (0: DefaultLateAfter). Pick a small multiple of the heartbeat period.
	LateAfter time.Duration
	// SilentAfter is the silence duration after which a DC is Silent
	// (0: DefaultSilentAfter). Must exceed LateAfter.
	SilentAfter time.Duration
	// FlapWindow is the sliding window over which restarts are counted
	// (0: DefaultFlapWindow).
	FlapWindow time.Duration
	// FreshFor is the report age up to which evidence keeps full
	// reliability (0: DefaultFreshFor). Pick at least the slowest suite's
	// reporting period, or healthy sources will be discounted between runs.
	FreshFor time.Duration
	// StalenessHorizon is the report age at which reliability bottoms out
	// at ReliabilityFloor (0: DefaultStalenessHorizon). Between FreshFor
	// and the horizon reliability falls linearly.
	StalenessHorizon time.Duration
	// ReliabilityFloor is the minimum reliability factor, in [0,1). At the
	// default 0 a fully stale source's evidence is discounted away entirely
	// and its fused conditions decay to total ignorance.
	ReliabilityFloor float64
	// Clock supplies "now" for staleness evaluation, read in ClockQuantum
	// steps; observed timestamps then stop moving time, so a DC with a fast
	// clock cannot age everyone else's evidence. Nil runs the registry on
	// event time: now is the latest heartbeat/report timestamp observed,
	// which makes virtual-time simulations deterministic.
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.LateAfter <= 0 {
		c.LateAfter = DefaultLateAfter
	}
	if c.SilentAfter <= 0 {
		c.SilentAfter = DefaultSilentAfter
	}
	if c.FlapWindow <= 0 {
		c.FlapWindow = DefaultFlapWindow
	}
	if c.FreshFor <= 0 {
		c.FreshFor = DefaultFreshFor
	}
	if c.StalenessHorizon <= 0 {
		c.StalenessHorizon = DefaultStalenessHorizon
	}
	return c
}

// Validate checks the configuration's internal consistency (after default
// substitution).
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.SilentAfter <= c.LateAfter {
		return fmt.Errorf("health: SilentAfter %v must exceed LateAfter %v", c.SilentAfter, c.LateAfter)
	}
	if c.StalenessHorizon <= c.FreshFor {
		return fmt.Errorf("health: StalenessHorizon %v must exceed FreshFor %v", c.StalenessHorizon, c.FreshFor)
	}
	if c.ReliabilityFloor < 0 || c.ReliabilityFloor >= 1 {
		return fmt.Errorf("health: ReliabilityFloor %g outside [0,1)", c.ReliabilityFloor)
	}
	return nil
}

// dcRecord is the registry's per-DC state.
type dcRecord struct {
	lastHeartbeat time.Time
	lastReport    time.Time
	boot          uint64
	incarnation   uint64
	// restarts holds the observation times of incarnation changes, oldest
	// first, pruned to FlapWindow on read.
	restarts   []time.Time
	spoolDepth int
	suites     []proto.SuiteStatus
	// sources maps knowledge-source id to its last report timestamp.
	sources map[string]time.Time
}

// lastSeen is the DC's most recent sign of life on either channel.
func (r *dcRecord) lastSeen() time.Time {
	if r.lastReport.After(r.lastHeartbeat) {
		return r.lastReport
	}
	return r.lastHeartbeat
}

// Registry tracks fleet health. Safe for concurrent use; implements
// fusion's Discounter contract via Reliability.
type Registry struct {
	// cfg is not checkpointed: thresholds and clocks are boot-time config
	// from flags, not observation state.
	cfg Config

	mu sync.Mutex
	// watermark is the registry's now: the high-watermark of observed event
	// times, or of the injected Clock's quanta. It never moves backwards.
	watermark time.Time
	dcs       map[string]*dcRecord
	// version counts observations: heartbeats, reports and, under a Clock,
	// quanta crossed. Every Reliability/StateOf output is a pure function of
	// the observation history, so an unchanged version means unchanged
	// outputs — the read-side view cache keys its health-discounted entries
	// on it.
	version uint64
}

// NewRegistry builds a registry; zero Config fields take package defaults.
func NewRegistry(cfg Config) (*Registry, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Registry{cfg: cfg.withDefaults(), dcs: make(map[string]*dcRecord)}, nil
}

// now returns the staleness-evaluation time, the watermark — after folding in
// the injected Clock, if any: a quantum crossed since the last look is an
// observation, made here because nothing else announces it. A clock behind
// the watermark (a restored checkpoint, a stepped-back host clock) moves
// nothing. Callers must hold g.mu.
func (g *Registry) now() time.Time {
	if g.cfg.Clock != nil {
		if t := g.cfg.Clock().Truncate(ClockQuantum); t.After(g.watermark) {
			g.watermark = t
			g.version++
		}
	}
	return g.watermark
}

// Now exposes the registry's current notion of time (event watermark or
// quantized wall clock), for displays.
func (g *Registry) Now() time.Time {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.now()
}

// Version returns the registry's observation counter: it changes if and only
// if a heartbeat, a report or (under an injected Clock) a crossed quantum has
// been folded in. An unchanged version guarantees every Reliability and
// StateOf answer is unchanged too, which lets caches reuse health-discounted
// values without re-asking.
func (g *Registry) Version() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.now()
	return g.version
}

// advance folds an observed event time into the watermark. Under an injected
// Clock the clock alone moves time.
func (g *Registry) advance(at time.Time) {
	if g.cfg.Clock == nil && at.After(g.watermark) {
		g.watermark = at
	}
}

func (g *Registry) record(dcid string) *dcRecord {
	r, ok := g.dcs[dcid]
	if !ok {
		r = &dcRecord{sources: make(map[string]time.Time)}
		g.dcs[dcid] = r
	}
	return r
}

// ObserveHeartbeat folds one heartbeat into the registry; it implements
// proto.HeartbeatSink.
func (g *Registry) ObserveHeartbeat(hb *proto.Heartbeat) error {
	if err := hb.Validate(); err != nil {
		return err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.version++
	g.advance(hb.SentAt)
	r := g.record(hb.DCID)
	if hb.SentAt.After(r.lastHeartbeat) {
		r.lastHeartbeat = hb.SentAt
		r.spoolDepth = hb.SpoolDepth
		r.suites = hb.Suites
	}
	// A changed boot or incarnation id is a sender restart. The very first
	// heartbeat establishes the baseline without counting.
	if hb.Incarnation != 0 && hb.Incarnation != r.incarnation {
		if r.incarnation != 0 {
			r.restarts = append(r.restarts, g.now())
		}
		r.incarnation = hb.Incarnation
	}
	if hb.Boot != 0 && hb.Boot != r.boot {
		if r.boot != 0 && hb.Incarnation == 0 {
			// Boot-only senders (no incarnation id): count the boot change
			// itself so volatile-spool restarts are still visible.
			r.restarts = append(r.restarts, g.now())
		}
		r.boot = hb.Boot
	}
	r.pruneRestarts(g.now(), g.cfg.FlapWindow)
	return nil
}

// ObserveReport notes a delivered report from a DC's knowledge source.
// Reports are liveness evidence too: a DC whose heartbeats are lost but
// whose reports arrive is late at worst, never silent.
func (g *Registry) ObserveReport(dcid, source string, at time.Time) {
	if dcid == "" || at.IsZero() {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.version++
	g.advance(at)
	r := g.record(dcid)
	if at.After(r.lastReport) {
		r.lastReport = at
	}
	if source != "" {
		if prev, ok := r.sources[source]; !ok || at.After(prev) {
			r.sources[source] = at
		}
	}
}

func (r *dcRecord) pruneRestarts(now time.Time, window time.Duration) {
	cut := now.Add(-window)
	for len(r.restarts) > 0 && !r.restarts[0].After(cut) {
		r.restarts = r.restarts[1:]
	}
}

// stateLocked classifies one DC at time now. Callers hold g.mu.
func (g *Registry) stateLocked(r *dcRecord, now time.Time) State {
	if r == nil || r.lastSeen().IsZero() {
		return StateUnknown
	}
	r.pruneRestarts(now, g.cfg.FlapWindow)
	if len(r.restarts) >= flapRestarts {
		return StateFlapping
	}
	age := now.Sub(r.lastSeen())
	switch {
	case age <= g.cfg.LateAfter:
		return StateAlive
	case age <= g.cfg.SilentAfter:
		return StateLate
	default:
		return StateSilent
	}
}

// StateOf returns a DC's current liveness state.
func (g *Registry) StateOf(dcid string) State {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stateLocked(g.dcs[dcid], g.now())
}

// Reliability returns the Shafer discount factor for evidence from the
// given DC whose latest report carries the given timestamp: 1 while fresh,
// falling linearly to the floor at the staleness horizon, with a further
// multiplicative penalty while the DC is silent or flapping. It implements
// the fusion package's Discounter contract. An unknown DC (heartbeats not
// configured) is discounted by age alone.
func (g *Registry) Reliability(dcid string, lastReport time.Time) float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	now := g.now()
	alpha := g.ageFactor(now.Sub(lastReport))
	switch g.stateLocked(g.dcs[dcid], now) {
	case StateSilent:
		alpha *= silentPenalty
	case StateFlapping:
		alpha *= flapPenalty
	}
	if alpha < g.cfg.ReliabilityFloor {
		alpha = g.cfg.ReliabilityFloor
	}
	return alpha
}

// ageFactor maps a report age onto [floor, 1].
func (g *Registry) ageFactor(age time.Duration) float64 {
	if age <= g.cfg.FreshFor {
		return 1
	}
	if age >= g.cfg.StalenessHorizon {
		return g.cfg.ReliabilityFloor
	}
	span := g.cfg.StalenessHorizon - g.cfg.FreshFor
	frac := float64(age-g.cfg.FreshFor) / float64(span)
	return 1 - (1-g.cfg.ReliabilityFloor)*frac
}

// SourceAge is one knowledge source's last-report record.
type SourceAge struct {
	Source     string
	LastReport time.Time
}

// DCHealth is one DC's health snapshot.
type DCHealth struct {
	DCID  string
	State State
	// LastHeartbeat, LastReport, and LastSeen are the most recent
	// observation times (zero: never).
	LastHeartbeat time.Time
	LastReport    time.Time
	LastSeen      time.Time
	// SpoolDepth is the undelivered-report backlog announced by the last
	// heartbeat.
	SpoolDepth int
	// RecentRestarts counts sender restarts within the flap window.
	RecentRestarts int
	// Reliability is the discount factor evidence stamped LastReport would
	// receive right now.
	Reliability float64
	// Suites is the last heartbeat's per-suite last-run info.
	Suites []proto.SuiteStatus
	// Sources lists per-knowledge-source last-report times, sorted by
	// source id.
	Sources []SourceAge
}

// Snapshot returns every known DC's health, sorted by DC id.
func (g *Registry) Snapshot() []DCHealth {
	g.mu.Lock()
	ids := make([]string, 0, len(g.dcs))
	for id := range g.dcs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	now := g.now()
	out := make([]DCHealth, 0, len(ids))
	for _, id := range ids {
		r := g.dcs[id]
		h := DCHealth{
			DCID:           id,
			State:          g.stateLocked(r, now),
			LastHeartbeat:  r.lastHeartbeat,
			LastReport:     r.lastReport,
			LastSeen:       r.lastSeen(),
			SpoolDepth:     r.spoolDepth,
			RecentRestarts: len(r.restarts),
			Suites:         append([]proto.SuiteStatus(nil), r.suites...),
		}
		for src, at := range r.sources {
			h.Sources = append(h.Sources, SourceAge{Source: src, LastReport: at})
		}
		sort.Slice(h.Sources, func(i, j int) bool { return h.Sources[i].Source < h.Sources[j].Source })
		out = append(out, h)
	}
	g.mu.Unlock()
	// Reliability re-locks per DC; compute after releasing the registry.
	for i := range out {
		out[i].Reliability = g.Reliability(out[i].DCID, out[i].LastReport)
	}
	return out
}

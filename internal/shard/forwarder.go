package shard

import (
	"errors"
	"sync"
	"time"

	"repro/internal/oosm"
	"repro/internal/pdme"
	"repro/internal/proto"
	"repro/internal/uplink"
)

// ForwarderConfig parametrizes a shard PDME's upward summary stream.
type ForwarderConfig struct {
	// ShardID is this shard's identity on the wire: it keys the forwarding
	// spool, the aggregator's dedup window, and the aggregator's per-shard
	// health registry.
	ShardID string
	// AggregatorAddr is the aggregator PDME's summary-server address.
	AggregatorAddr string
	// SpoolDir persists the summary spool; empty keeps it in memory.
	SpoolDir string
	// SpoolCap, DialTimeout, SendTimeout, BackoffMin, BackoffMax pass
	// through to the underlying uplink (zero: uplink defaults).
	SpoolCap    int
	DialTimeout time.Duration
	SendTimeout time.Duration
	BackoffMin  time.Duration
	BackoffMax  time.Duration
	// Seed drives the uplink's backoff jitter, reproducibly.
	Seed int64
	// DialVia optionally rewrites the aggregator address before dialing
	// (the netfault hook).
	DialVia func(addr string) string
}

// ForwarderCounters counts the forwarder's conclusion-to-summary work; the
// transport half lives in the uplink Counters.
type ForwarderCounters struct {
	// Forwarded counts summaries handed to the uplink spool.
	Forwarded int64
	// Skipped counts conclusion events that produced no summary (conclusion
	// vanished or snapshot failed between event and read — benign races) and
	// pairs Resync found without a stamp.
	Skipped int64
	// Errors counts summaries the spool refused.
	Errors int64
}

// Forwarder subscribes to a shard PDME's fused-conclusion objects and
// forwards each write upward as a proto.FusedSummary over an ordinary
// uplink — the "uplink is source-agnostic" half of the hierarchy: the same
// spool/redial/dedup machinery that carries DC reports into the shard
// carries the shard's conclusions into the aggregator, so a dead aggregator
// costs nothing but spool depth and a restarted one replays exactly once.
//
// Forwarding is event-driven and synchronous with the model write (oosm
// publishes events without holding the model lock; DeliverSummary only
// appends to the spool), so the shard's ingest hot path gains one snapshot
// read and one spool append per conclusion write.
type Forwarder struct {
	engine *pdme.PDME
	cfg    ForwarderConfig
	up     *uplink.Uplink

	mu       sync.Mutex
	counters ForwarderCounters
	subs     []*oosm.Subscription
	closed   bool
}

// Forward attaches a forwarder to a shard PDME. Attach it after journal
// recovery and call Resync once: recovery rebuilds fusion state before the
// subscription exists, and Resync forwards that recovered state so the
// aggregator catches up even if nothing changes afterwards.
func Forward(engine *pdme.PDME, cfg ForwarderConfig) (*Forwarder, error) {
	if engine == nil {
		return nil, errors.New("shard: forwarder needs a PDME")
	}
	if cfg.ShardID == "" {
		return nil, errors.New("shard: forwarder needs a shard id")
	}
	addr := cfg.AggregatorAddr
	if cfg.DialVia != nil {
		addr = cfg.DialVia(addr)
	}
	up, err := uplink.New(uplink.Config{
		Addr:        addr,
		DCID:        cfg.ShardID,
		SpoolDir:    cfg.SpoolDir,
		SpoolCap:    cfg.SpoolCap,
		DialTimeout: cfg.DialTimeout,
		SendTimeout: cfg.SendTimeout,
		BackoffMin:  cfg.BackoffMin,
		BackoffMax:  cfg.BackoffMax,
		Seed:        cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	f := &Forwarder{engine: engine, cfg: cfg, up: up}
	model := engine.Model()
	f.subs = append(f.subs,
		model.SubscribeClass(pdme.ConclusionClass, oosm.ObjectCreated, f.onConclusion),
		model.SubscribeClass(pdme.ConclusionClass, oosm.ObjectUpdated, f.onConclusion),
	)
	return f, nil
}

// onConclusion turns one conclusion write into one spooled summary. It runs
// inside the engine's ordering section for the component (the write is the
// fuse's own post), so the snapshot forwardPair takes is the state just
// posted and a component's summaries spool in the order they were fused.
// The pair is all it needs of the object, and the event's value — the
// conclusion the object holds — names it without a read of the model.
func (f *Forwarder) onConclusion(e oosm.Event) {
	c, ok := e.Value.(*pdme.Conclusion)
	if !ok {
		f.count(func(c *ForwarderCounters) { c.Skipped++ })
		return
	}
	f.forwardPair(c.Subject())
}

// forwardPair snapshots and spools one (component, condition) summary,
// stamped with the snapshot's own UpdatedAt — the event time of the newest
// evidence fused in — and reports whether it was spooled. A pair with no
// stamp (restored from a checkpoint written before fusion state carried one,
// and not reported on since) is skipped: the wire refuses an unstamped
// summary.
func (f *Forwarder) forwardPair(component, condition string) bool {
	cs, vec, err := f.engine.ConditionSnapshot(component, condition)
	if err != nil || cs.UpdatedAt.IsZero() {
		f.count(func(c *ForwarderCounters) { c.Skipped++ })
		return false
	}
	s := &proto.FusedSummary{
		ShardID:   f.cfg.ShardID,
		Component: component,
		Condition: condition,
		Group:     cs.Group,
		// Dempster combination can overshoot the unit interval by a few ULPs
		// (plausibility 1+2e-16 on near-certain conclusions); clamping here
		// keeps the wire invariant [0,1] without silently dropping exactly
		// the most-urgent summaries at Validate.
		Belief:       clamp01(cs.Belief),
		Plausibility: clamp01(cs.Plausibility),
		Unknown:      clamp01(cs.Unknown),
		Reports:      cs.Reports,
		Reliability:  clamp01(cs.Reliability),
		Degraded:     cs.Degraded,
		Prognostics:  vec,
		UpdatedAt:    cs.UpdatedAt,
	}
	if err := f.up.DeliverSummary(s); err != nil {
		f.count(func(c *ForwarderCounters) { c.Errors++ })
		return false
	}
	f.count(func(c *ForwarderCounters) { c.Forwarded++ })
	return true
}

// clamp01 pins a mass back into [0,1]; fusion arithmetic may exceed the
// bounds by floating-point ULPs, never by anything meaningful.
func clamp01(v float64) float64 {
	switch {
	case v < 0:
		return 0
	case v > 1:
		return 1
	}
	return v
}

func (f *Forwarder) count(fn func(*ForwarderCounters)) {
	f.mu.Lock()
	fn(&f.counters)
	f.mu.Unlock()
}

// Resync forwards the shard's entire current state — one summary per
// prioritized pair, read from the engine's fusion state, so a shard restored
// from its checkpoint alone re-announces every pair with the right stamp —
// and returns how many summaries it spooled. Call it once after journal
// recovery, and after an aggregator's dedup window is known to have reset (a
// fresh aggregator spool dir).
func (f *Forwarder) Resync() int {
	n := 0
	for _, item := range f.engine.PrioritizedList() {
		if f.forwardPair(item.Component, item.Condition) {
			n++
		}
	}
	return n
}

// Heartbeat sends the shard's liveness beacon to the aggregator. The
// caller supplies the timestamp (mpros.Node.Heartbeat: the shard's own
// health-registry time).
func (f *Forwarder) Heartbeat(at time.Time) error {
	return f.up.SendHeartbeat(&proto.Heartbeat{SentAt: at})
}

// Flush blocks until the summary spool drains or the timeout elapses.
func (f *Forwarder) Flush(timeout time.Duration) error { return f.up.Flush(timeout) }

// Pending returns the number of unresolved spooled summaries.
func (f *Forwarder) Pending() int { return f.up.Pending() }

// Counters returns the forwarder's own counters.
func (f *Forwarder) Counters() ForwarderCounters {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counters
}

// Uplink returns the transport counters of the underlying uplink.
func (f *Forwarder) Uplink() uplink.Counters { return f.up.Counters() }

// Boot returns the forwarding spool's boot epoch.
func (f *Forwarder) Boot() uint64 { return f.up.Boot() }

// Close cancels the conclusion subscriptions and stops the uplink; a
// persistent spool keeps pending summaries for the next Forward.
func (f *Forwarder) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	subs := f.subs
	f.subs = nil
	f.mu.Unlock()
	for _, s := range subs {
		s.Cancel()
	}
	return f.up.Close()
}

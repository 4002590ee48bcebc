package shard

import (
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/proto"
	"repro/internal/uplink"
)

// Defaults for RouterConfig's zero values.
const (
	// DefaultFailoverThreshold is the number of observed no-progress pump
	// intervals (dial failures or retries with nothing acked while reports
	// are pending) before the router gives up on its shard and fails over
	// to the ring successor.
	DefaultFailoverThreshold = 6
)

// RouterConfig parametrizes a DC-side shard router.
type RouterConfig struct {
	// DCID names the routing DC; it is the ring key and the uplink identity.
	DCID string
	// Ring is the shard assignment; the router targets Ring.Assign(DCID).
	Ring *Ring
	// SpoolDir persists the store-and-forward spool. It is REQUIRED: the
	// whole failover contract is "swap the address, keep the spool", and
	// frames kept through a shard outage must survive a DC restart too.
	SpoolDir string
	// SpoolCap, DialTimeout, SendTimeout, BackoffMin, BackoffMax pass
	// through to the underlying uplink (zero: uplink defaults).
	SpoolCap    int
	DialTimeout time.Duration
	SendTimeout time.Duration
	BackoffMin  time.Duration
	BackoffMax  time.Duration
	// Seed drives the failover-threshold jitter and the uplink's backoff
	// jitter, reproducibly.
	Seed int64
	// FailoverThreshold is the stall count that triggers failover
	// (0: DefaultFailoverThreshold). The effective threshold is jittered
	// +[0,threshold) per router so a dead shard's DCs do not stampede the
	// successor in lockstep.
	FailoverThreshold int
}

// RouterStats counts the router's own decisions (the transport work is in
// the uplink's Counters).
type RouterStats struct {
	// Failovers counts stall-triggered re-routes to a ring successor.
	Failovers int
	// PerShard counts reports+summaries acked while each shard was the
	// target, keyed by member id.
	PerShard map[string]int64
}

// Router is a DC-side shard-aware uplink: it implements proto.Sink and the
// DC's HeartbeatUplink against whichever shard PDME the ring assigns,
// re-routing to the ring successor when the target stops making progress.
//
// Failover is decided ONLY inside Pump (and Flush, which pumps): the
// router itself never sleeps, never reads a clock, and never spawns a
// goroutine — the DC's own cadence (real or simulated) is the failure
// detector's clock, which keeps chaos tests fully deterministic about WHEN
// a DC may fail over.
type Router struct {
	cfg RouterConfig

	// up is the one uplink, opened by NewRouter and pointed at a new address
	// by every swap after that: its spool, boot id, pending frames and
	// counters are the router's for life.
	up *uplink.Uplink

	mu     sync.Mutex
	down   map[string]bool // members this router has failed away from
	target string
	stats  RouterStats
	// creditedAcks is how much of the uplink's Acked + DedupAcks stats.PerShard
	// already holds: what came since is the current target's.
	creditedAcks int64
	// progress watermarks over the uplink's counters
	lastAttempts int64 // Retried + DialFailures
	lastProgress int64 // Sent + Dropped
	stall        int
	threshold    int
}

// NewRouter opens the router's uplink to the ring-assigned shard. The first
// dial is lazy (inherited from uplink.New), so construction succeeds while
// the whole fleet is down.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.DCID == "" {
		return nil, errors.New("shard: router needs a DC id")
	}
	if cfg.Ring == nil {
		return nil, errors.New("shard: router needs a ring")
	}
	if cfg.SpoolDir == "" {
		return nil, errors.New("shard: router requires a persistent spool dir (failover keeps the spool)")
	}
	threshold := cfg.FailoverThreshold
	if threshold <= 0 {
		threshold = DefaultFailoverThreshold
	}
	rng := rand.New(rand.NewPCG(uint64(cfg.Seed), 0))
	r := &Router{
		cfg:       cfg,
		down:      make(map[string]bool),
		stats:     RouterStats{PerShard: make(map[string]int64)},
		threshold: threshold + rng.IntN(threshold),
	}
	r.target = cfg.Ring.Assign(cfg.DCID)
	addr, err := r.memberAddr(r.target)
	if err != nil {
		return nil, err
	}
	r.up, err = uplink.New(uplink.Config{
		Addr:        addr,
		DCID:        cfg.DCID,
		SpoolDir:    cfg.SpoolDir,
		SpoolCap:    cfg.SpoolCap,
		DialTimeout: cfg.DialTimeout,
		SendTimeout: cfg.SendTimeout,
		BackoffMin:  cfg.BackoffMin,
		BackoffMax:  cfg.BackoffMax,
		Seed:        rng.Int64(),
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// memberAddr is the address the uplink dials for a ring member.
func (r *Router) memberAddr(memberID string) (string, error) {
	addr, ok := r.cfg.Ring.MemberAddr(memberID)
	if !ok {
		return "", fmt.Errorf("shard: ring has no member %q", memberID)
	}
	return addr, nil
}

// retargetLocked points the uplink at another member. The swap is an address
// change and cannot fail half-way: the spool is not closed, reopened or
// re-read, so whatever is pending stays pending, towards the new target.
// Callers hold mu.
func (r *Router) retargetLocked(memberID string) error {
	addr, err := r.memberAddr(memberID)
	if err != nil {
		return err
	}
	c := r.up.Counters()
	r.stats.PerShard[r.target] += c.Acked + c.DedupAcks - r.creditedAcks
	r.creditedAcks = c.Acked + c.DedupAcks
	r.up.Retarget(addr)
	r.target = memberID
	r.lastAttempts = c.Retried + c.DialFailures
	r.lastProgress = c.Sent + c.Dropped
	r.stall = 0
	return nil
}

// Deliver implements proto.Sink: the report spools to the uplink, bound for
// whichever target holds when it is sent. It never blocks on the network and
// never triggers failover.
func (r *Router) Deliver(rep *proto.Report) error { return r.up.Deliver(rep) }

// SendHeartbeat implements the DC's heartbeat uplink against the current
// target.
func (r *Router) SendHeartbeat(hb *proto.Heartbeat) error { return r.up.SendHeartbeat(hb) }

// Pump runs one failure-detection step: if reports are pending and the
// uplink has attempted (dialed or retried) without progress (acks or
// drops) since the last Pump, the stall count rises; at the jittered
// threshold the router fails over to the ring successor. Call it once per
// DC tick. It returns true if a failover happened.
func (r *Router) Pump() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.up.Counters()
	attempts := c.Retried + c.DialFailures
	progress := c.Sent + c.Dropped
	switch {
	case r.up.Pending() == 0, progress > r.lastProgress:
		r.stall = 0
	case attempts > r.lastAttempts:
		r.stall++
	}
	r.lastAttempts = attempts
	r.lastProgress = progress
	if r.stall < r.threshold {
		return false
	}
	return r.failoverLocked()
}

// failoverLocked marks the current target down and re-targets the ring
// successor. False when no live successor exists (the router stays put and
// keeps retrying its current target).
func (r *Router) failoverLocked() bool {
	r.down[r.target] = true
	next, ok := r.cfg.Ring.Successor(r.cfg.DCID, r.down)
	if !ok || next == r.target {
		delete(r.down, r.target) // nowhere to go: keep trying everyone
		r.stall = 0
		return false
	}
	if err := r.retargetLocked(next); err != nil {
		r.stall = 0
		return false
	}
	r.stats.Failovers++
	return true
}

// Flush drives the spool empty, pumping the failure detector between
// attempts so an outage mid-flush resolves by failover instead of hanging:
// up to attempts rounds of the underlying uplink Flush(slice). The router
// itself stays clock-free — the uplink does all the waiting.
func (r *Router) Flush(attempts int, slice time.Duration) error {
	var err error
	for i := 0; i < attempts; i++ {
		if err = r.up.Flush(slice); err == nil {
			return nil
		}
		r.Pump()
	}
	return err
}

// Pending returns the number of unresolved spooled frames.
func (r *Router) Pending() int { return r.up.Pending() }

// Target returns the member currently routed to.
func (r *Router) Target() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.target
}

// Boot returns the spool's boot epoch (stable across failovers: the spool,
// and with it the boot id, is untouched by a swap).
func (r *Router) Boot() uint64 { return r.up.Boot() }

// Counters returns the uplink's transport counters, continuous across every
// target the router has had.
func (r *Router) Counters() uplink.Counters { return r.up.Counters() }

// Stats returns the router's failover/routing decisions. PerShard is keyed
// by member id and counts acks observed while that member was the target.
func (r *Router) Stats() RouterStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := RouterStats{
		Failovers: r.stats.Failovers,
		PerShard:  maps.Clone(r.stats.PerShard),
	}
	c := r.up.Counters()
	out.PerShard[r.target] += c.Acked + c.DedupAcks - r.creditedAcks
	return out
}

// Close stops the uplink; the persistent spool keeps any pending frames for
// the next NewRouter on the same dir.
func (r *Router) Close() error { return r.up.Close() }

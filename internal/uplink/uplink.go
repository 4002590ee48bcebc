// Package uplink is the resilient DC→PDME report transport. The paper's
// architecture sends every conclusion "over the ship's network to a
// centrally located machine" (§1.1) and flags communications instability on
// COTS shipboard networks as a deployment concern; telematics CBM practice
// treats intermittent uplinks as the norm and store-and-forward as the
// baseline answer. The uplink therefore wraps proto.Client with:
//
//   - automatic redial using exponential backoff with seeded jitter, plus
//     per-dial and per-send deadlines, so a dropped socket or PDME restart
//     heals without operator action;
//   - a persistent write-ahead spool (see spool.go): every report is
//     encoded into its wire frame once, appended before its first send
//     attempt and retired only on ack, so reports queued during an outage
//     survive both the outage and a DC process restart, with bounded
//     capacity and an oldest-first drop policy;
//   - monotonic per-DC sequence tagging on the wire, which the PDME-side
//     proto.Dedup window uses to suppress at-least-once redelivery — the
//     wire is at-least-once, the fusion effect exactly-once.
//
// Deliver is asynchronous: it returns once the report is durably spooled,
// and a single sender goroutine drains the spool in sequence order, a run at
// a time: the head-of-line frames of one kind — reports or, on a shard's
// forwarding uplink, fused summaries — (up to proto.MaxRun) are written
// together, flushed once, and retired as their acks come back in order, so
// a journaling PDME can make the whole run durable with one fsync. Acks stay
// per frame; a transport failure mid-run retires what was acked and resends
// the rest, which the PDME's dedup window then recognizes. Flush blocks
// until the spool is empty (everything acked or dropped).
package uplink

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/proto"
)

// Defaults for Config's zero values.
const (
	DefaultSpoolCap    = 8192
	DefaultDialTimeout = 5 * time.Second
	DefaultSendTimeout = 10 * time.Second
	DefaultBackoffMin  = 50 * time.Millisecond
	DefaultBackoffMax  = 15 * time.Second
)

// Config parametrizes an uplink.
type Config struct {
	// Addr is the PDME report server address.
	Addr string
	// DCID names the sending data concentrator; it keys the spool file and
	// the server-side dedup window and must match the reports' DCID.
	DCID string
	// SpoolDir persists the store-and-forward spool; empty keeps it in
	// memory (reports then survive outages but not a process restart).
	SpoolDir string
	// SpoolCap bounds pending reports; beyond it the oldest are dropped
	// (0: DefaultSpoolCap).
	SpoolCap int
	// DialTimeout bounds each connection attempt (0: DefaultDialTimeout).
	DialTimeout time.Duration
	// SendTimeout bounds each send+ack exchange (0: DefaultSendTimeout).
	SendTimeout time.Duration
	// BackoffMin/BackoffMax bound the exponential redial backoff
	// (0: DefaultBackoffMin/DefaultBackoffMax).
	BackoffMin time.Duration
	BackoffMax time.Duration
	// Seed drives the jitter's reproducible randomness.
	Seed int64
}

func (c *Config) applyDefaults() {
	if c.SpoolCap <= 0 {
		c.SpoolCap = DefaultSpoolCap
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = DefaultDialTimeout
	}
	if c.SendTimeout <= 0 {
		c.SendTimeout = DefaultSendTimeout
	}
	if c.BackoffMin <= 0 {
		c.BackoffMin = DefaultBackoffMin
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = DefaultBackoffMax
	}
}

// Counters is a snapshot of the uplink's delivery statistics. Every counter
// is per frame, however many frames shared an exchange.
type Counters struct {
	// Sent counts frames the server acked (including duplicate acks).
	Sent int64
	// Acked counts reports confirmed fused by the PDME (first delivery).
	Acked int64
	// Retried counts frames whose exchange failed in transit — written, or
	// about to be, when the transport broke before their ack — and that were
	// rescheduled.
	Retried int64
	// Spooled counts reports accepted into the spool (every Deliver).
	Spooled int64
	// Replayed counts reports delivered after surviving a reconnect or a
	// process restart (attempts beyond the first, or recovered from disk).
	Replayed int64
	// Dropped counts reports abandoned: capacity-policy evictions plus
	// permanent server rejections.
	Dropped int64
	// CapacityDrops counts the oldest-first evictions alone — reports lost
	// because the spool hit capacity during an outage. They are included in
	// Dropped; a non-zero value here is silent data loss that operators
	// should see (raise SpoolCap or fix the link).
	CapacityDrops int64
	// DedupAcks counts acks the server flagged as duplicate suppression —
	// redelivery the PDME had already fused exactly once.
	DedupAcks int64
	// DialFailures counts connection attempts that never produced a live
	// socket. Shard routers watch it (together with Retried) as the
	// no-progress signal that triggers ring failover.
	DialFailures int64
	// HeartbeatsSent counts acked heartbeat frames.
	HeartbeatsSent int64
	// HeartbeatsDropped counts heartbeats abandoned because no connection
	// could be made or the exchange failed. Heartbeats are never spooled:
	// a missing heartbeat IS the outage signal the health registry wants.
	HeartbeatsDropped int64
}

// Uplink is a resilient report sender; it implements proto.Sink so it slots
// in wherever a DC expects an uplink.
type Uplink struct {
	cfg Config

	mu    sync.Mutex
	spool *spool
	// addr is where the sender dials (Config.Addr until Retarget moves it);
	// client is its connection and dialed the address that was dialed for.
	// Only the sender goroutine opens, uses and drops a connection.
	addr     string
	client   *proto.Client
	dialed   string
	counters Counters
	closed   bool
	// incarnation identifies this sender process instance for flap
	// detection: unlike the spool's boot id it never persists, so it
	// changes on every restart even with a durable spool.
	incarnation uint64
	// hbPending is a one-slot heartbeat mailbox (latest wins): heartbeats
	// carry point-in-time state, so an undeliverable one is superseded, not
	// queued.
	hbPending *proto.Heartbeat

	// drained, when non-nil, is closed once the spool and the heartbeat
	// mailbox are both empty: Flush waits on it instead of polling.
	drained chan struct{}

	wake chan struct{} // buffered(1): signals the sender that work arrived
	// retargeted (buffered(1)) cuts short the backoff the sender owes the
	// address it has just been moved away from.
	retargeted chan struct{}
	stop       chan struct{}
	wg         sync.WaitGroup
	rng        *rand.Rand // guarded by mu (jitter only)
}

// New opens (recovering any persisted spool) and starts an uplink. The
// first dial happens lazily on the first pending report, so New succeeds
// while the PDME is down — that is the point.
func New(cfg Config) (*Uplink, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("uplink: missing PDME address")
	}
	if cfg.DCID == "" {
		return nil, fmt.Errorf("uplink: missing DC id")
	}
	cfg.applyDefaults()
	sp, err := openSpool(cfg.SpoolDir, cfg.DCID, cfg.SpoolCap)
	if err != nil {
		return nil, err
	}
	incarnation, err := newBootID()
	if err != nil {
		_ = sp.close() // best-effort: the open spool is the only resource held
		return nil, err
	}
	u := &Uplink{
		cfg:         cfg,
		spool:       sp,
		addr:        cfg.Addr,
		incarnation: incarnation,
		wake:        make(chan struct{}, 1),
		retargeted:  make(chan struct{}, 1),
		stop:        make(chan struct{}),
		rng:         rand.New(rand.NewPCG(uint64(cfg.Seed), 0)),
	}
	u.wg.Add(1)
	go func() {
		defer u.wg.Done()
		u.run()
	}()
	if len(sp.pending) > 0 {
		u.signal()
	}
	return u, nil
}

// Deliver implements proto.Sink: the report is framed under a fresh sequence
// number, durably spooled and delivered asynchronously, oldest first. It only
// errors when the report is invalid or unencodable or the spool refuses it.
//
//mpros:ingest report intake from diagnosis; must never block on the sender goroutine
func (u *Uplink) Deliver(r *proto.Report) error {
	if err := r.Validate(); err != nil {
		return err
	}
	return u.enqueue(&proto.Delivery{Report: r, DCID: r.DCID})
}

// DeliverSummary spools one PDME→PDME fused summary for asynchronous
// delivery. Summaries share the report FIFO, sequence space, capacity
// policy, and server-side dedup window, so a shard uplink pointed at an
// aggregator inherits the whole store-and-forward contract unchanged.
//
//mpros:ingest summary intake from the shard forwarder; must never block on the sender goroutine
func (u *Uplink) DeliverSummary(s *proto.FusedSummary) error {
	if err := s.Validate(); err != nil {
		return err
	}
	return u.enqueue(&proto.Delivery{Summary: s, DCID: u.cfg.DCID})
}

// enqueue spools one validated payload under the sender id its frame names —
// a report's DC, a summary's forwarding shard — and wakes the sender.
func (u *Uplink) enqueue(d *proto.Delivery) error {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return errors.New("uplink: closed")
	}
	_, droppedSeqs, err := u.spool.add(d)
	if err == nil {
		u.counters.Spooled++
		u.counters.Dropped += int64(len(droppedSeqs))
		u.counters.CapacityDrops += int64(len(droppedSeqs))
	}
	u.mu.Unlock()
	if err != nil {
		return err
	}
	u.signal()
	return nil
}

// Retarget points the uplink at another server. Nothing else changes hands:
// the spool with its boot id and sequence space, the pending frames, the
// counters and the one sender goroutine all carry over, so a frame queued for
// the old server goes to the new one as it stands. The sender drops its
// connection and dials the new address at its next attempt, without sitting
// out a backoff earned against the old one; an exchange already on the wire
// finishes where it is — answered there, or failed and resent here.
func (u *Uplink) Retarget(addr string) {
	u.mu.Lock()
	u.addr = addr
	u.mu.Unlock()
	select {
	case u.retargeted <- struct{}{}:
	default:
	}
}

// Boot returns the spool's boot incarnation — the epoch half of the wire's
// (boot, seq) delivery tag. It persists with a durable spool, so replays
// after a process restart stay inside the same dedup window.
func (u *Uplink) Boot() uint64 { return u.spool.boot }

// SendHeartbeat queues a fleet-health heartbeat for delivery. The uplink
// fills in its own identity (DCID, spool boot id, process incarnation) and
// the current spool depth; the caller supplies SentAt and per-suite status.
// Heartbeats use a one-slot latest-wins mailbox and are never spooled or
// retried across backoff: if the link is down the heartbeat is dropped and
// counted, and the resulting silence is exactly what tells the PDME's
// health registry the DC is unreachable.
func (u *Uplink) SendHeartbeat(hb *proto.Heartbeat) error {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return errors.New("uplink: closed")
	}
	filled := *hb
	if filled.DCID == "" {
		filled.DCID = u.cfg.DCID
	}
	filled.Boot = u.spool.boot
	filled.Incarnation = u.incarnation
	filled.SpoolDepth = len(u.spool.pending)
	err := filled.Validate()
	if err == nil {
		u.hbPending = &filled
	}
	u.mu.Unlock()
	if err != nil {
		return err
	}
	u.signal()
	return nil
}

// flushHeartbeat delivers the pending heartbeat, if any, with a single
// connection attempt and no retry. The heartbeat stays in the mailbox until
// its one attempt is over — so Flush can wait for it — unless a newer one
// replaces it meanwhile.
func (u *Uplink) flushHeartbeat() {
	u.mu.Lock()
	hb := u.hbPending
	u.mu.Unlock()
	if hb == nil {
		return
	}
	sent := u.attemptHeartbeat(hb)
	u.mu.Lock()
	defer u.mu.Unlock()
	if sent {
		u.counters.HeartbeatsSent++
	} else {
		u.counters.HeartbeatsDropped++
	}
	if u.hbPending == hb {
		u.hbPending = nil
	}
	u.noteDrained()
}

// attemptHeartbeat makes the one delivery attempt for hb.
func (u *Uplink) attemptHeartbeat(hb *proto.Heartbeat) bool {
	if !u.ensureConnected() {
		return false
	}
	u.mu.Lock()
	client := u.client
	u.mu.Unlock()
	if client == nil {
		return false
	}
	err := client.SendHeartbeat(hb)
	if err != nil && !errors.Is(err, proto.ErrRejected) {
		// Transport failure: the connection is suspect. (A rejection means
		// the link is fine and the server refused the frame — old PDME,
		// registry fault — with nothing to retry.)
		u.mu.Lock()
		if u.client != nil {
			_ = u.client.Close()
			u.client = nil
		}
		u.mu.Unlock()
	}
	return err == nil
}

// noteDrained wakes Flush once nothing handed to the uplink is unresolved.
// Callers hold mu.
func (u *Uplink) noteDrained() {
	if len(u.spool.pending) == 0 && u.hbPending == nil && u.drained != nil {
		close(u.drained)
		u.drained = nil
	}
}

// Pending returns how many reports await acknowledgement.
func (u *Uplink) Pending() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return len(u.spool.pending)
}

// Counters returns a snapshot of the delivery statistics.
func (u *Uplink) Counters() Counters {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.counters
}

// Flush blocks until every spooled report is resolved (acked or dropped)
// and the heartbeat in the mailbox, if any, has had its one attempt, or the
// timeout elapses.
func (u *Uplink) Flush(timeout time.Duration) error {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		u.mu.Lock()
		pending := len(u.spool.pending)
		busy := pending > 0 || u.hbPending != nil
		if busy && u.drained == nil {
			u.drained = make(chan struct{})
		}
		drained := u.drained
		u.mu.Unlock()
		if !busy {
			return nil
		}
		select {
		case <-drained:
		case <-timer.C:
			return fmt.Errorf("uplink: flush timed out with %d reports pending", pending)
		}
	}
}

// Close stops the sender and closes the connection and spool file. Pending
// reports stay in a persistent spool and replay on the next New.
func (u *Uplink) Close() error {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return nil
	}
	u.closed = true
	u.mu.Unlock()
	close(u.stop)
	u.wg.Wait()
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.client != nil {
		_ = u.client.Close()
		u.client = nil
	}
	return u.spool.close()
}

func (u *Uplink) signal() {
	select {
	case u.wake <- struct{}{}:
	default:
	}
}

// run is the single sender goroutine: it drains the spool in order, a run
// at a time, redialing with backoff across transport failures.
func (u *Uplink) run() {
	backoff := u.cfg.BackoffMin
	var runBuf [proto.MaxRun]*pendingRec
	var frames [proto.MaxRun]proto.Delivery
	for {
		select {
		case <-u.stop:
			return
		case <-u.wake:
		}
		u.flushHeartbeat()
		for {
			u.mu.Lock()
			run := u.spool.headRun(runBuf[:0])
			u.mu.Unlock()
			if len(run) == 0 {
				break
			}
			u.flushHeartbeat()
			if !u.ensureConnected() {
				// The run is now outage-delayed; count its eventual delivery
				// as a replay.
				u.mu.Lock()
				for _, rec := range run {
					rec.attempts++
				}
				u.counters.DialFailures++
				u.mu.Unlock()
				if !u.sleepBackoff(&backoff) {
					return
				}
				continue
			}
			answered, err := u.sendRun(run, frames[:len(run)])
			u.retire(run[:answered], frames[:answered])
			clear(frames[:len(run)]) // an idle sender pins no frame,
			clear(run[:answered])    // nor the retired records that held them
			if answered > 0 {
				backoff = u.cfg.BackoffMin
			}
			if err != nil {
				// Transport failure: the connection is suspect. Drop it, mark
				// the attempt on every frame left unanswered, and retry after
				// backoff; frames the server did take are acked as duplicates
				// on the resend.
				u.mu.Lock()
				for _, rec := range run[answered:] {
					rec.attempts++
				}
				u.counters.Retried += int64(len(run) - answered)
				if u.client != nil {
					_ = u.client.Close()
					u.client = nil
				}
				u.mu.Unlock()
				if !u.sleepBackoff(&backoff) {
					return
				}
			}
			select {
			case <-u.stop:
				return
			default:
			}
		}
	}
}

// ensureConnected dials if there is no live connection to the address the
// uplink points at, dropping one to an address it was retargeted away from.
// False means the dial failed (caller backs off) — unless the uplink is
// stopping.
func (u *Uplink) ensureConnected() bool {
	for {
		u.mu.Lock()
		addr, stale := u.addr, u.client
		if stale != nil && u.dialed == addr {
			u.mu.Unlock()
			return true
		}
		u.client = nil
		u.mu.Unlock()
		if stale != nil {
			_ = stale.Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), u.cfg.DialTimeout)
		client, err := proto.DialContext(ctx, addr)
		cancel()
		if err != nil {
			return false
		}
		client.SetTimeout(u.cfg.SendTimeout)
		u.mu.Lock()
		u.client, u.dialed = client, addr
		u.mu.Unlock()
		// Retargeted under the dial: go round again and drop it.
	}
}

// sendRun performs one exchange for the head-of-line run, leaving each
// answered frame's outcome in frames: a duplicate ack in Dup, a permanent
// refusal (validation, unknown condition, a kind the receiving tier does not
// take — the link is fine but the server will never accept the frame) in Err.
// It returns how many frames were answered and the transport error, if any,
// that left the rest unanswered.
func (u *Uplink) sendRun(run []*pendingRec, frames []proto.Delivery) (answered int, err error) {
	u.mu.Lock()
	client := u.client
	u.mu.Unlock()
	if client == nil {
		return 0, errors.New("uplink: not connected")
	}
	for i, rec := range run {
		frames[i] = proto.Delivery{Frame: rec.frame}
	}
	return client.SendRun(frames)
}

// retire resolves the answered frames of a run out of the spool with one
// spool write, and updates the counters frame by frame. A frame the capacity
// policy evicted while it was in flight was counted as dropped then; its
// late ack counts for nothing.
func (u *Uplink) retire(run []*pendingRec, frames []proto.Delivery) {
	if len(run) == 0 {
		return
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	_ = u.spool.resolve(run)
	for i, rec := range run {
		switch {
		case rec.evicted:
		case frames[i].Err != nil:
			// Dropped so the queue keeps moving.
			u.counters.Dropped++
		default:
			u.counters.Sent++
			if frames[i].Dup {
				u.counters.DedupAcks++
			} else {
				u.counters.Acked++
			}
			if rec.attempts > 0 || rec.recovered {
				u.counters.Replayed++
			}
		}
	}
	u.noteDrained()
}

// sleepBackoff sleeps the current backoff with ±50% jitter, doubling it for
// next time — or, retargeted, returns at once with the backoff reset: the new
// address has failed nobody yet. False means the uplink is stopping.
func (u *Uplink) sleepBackoff(backoff *time.Duration) bool {
	u.mu.Lock()
	jitter := 0.5 + u.rng.Float64()
	u.mu.Unlock()
	d := time.Duration(float64(*backoff) * jitter)
	*backoff *= 2
	if *backoff > u.cfg.BackoffMax {
		*backoff = u.cfg.BackoffMax
	}
	select {
	case <-u.stop:
		return false
	case <-u.retargeted:
		*backoff = u.cfg.BackoffMin
		return true
	case <-time.After(d):
		return true
	}
}

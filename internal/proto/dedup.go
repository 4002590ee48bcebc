package proto

import "sync"

// DefaultDedupWindow is the per-DC sequence window NewDedup uses when the
// caller passes a non-positive size.
const DefaultDedupWindow = 4096

// Dedup is a per-DC sliding sequence window that turns the wire's
// at-least-once delivery into an exactly-once fusion effect: a report
// resent after a lost ack (or replayed from a DC's spool after a restart)
// is recognized by its (DC id, sequence) tag and acknowledged without a
// second sink delivery — Dempster-Shafer fusion never double-counts
// evidence.
//
// The window tracks, per DC, the highest sequence marked plus the set of
// marked sequences within `window` of it. A sequence at or below the
// window floor is assumed already delivered: DC spools replay oldest-first,
// so a sequence can only fall that far behind after thousands of later
// sequences were acked, which requires it to have been acked itself (or
// deliberately dropped by the sender's capacity policy — in which case
// suppressing it keeps the drop decision final).
//
// Sequences are scoped to a sender boot incarnation: a DC whose sequence
// counter did not survive a restart (volatile spool) announces a new boot
// id, and the first delivery under the new boot resets that DC's window —
// otherwise the restarted counter would restart below the old floor and
// every fresh report would be silently swallowed as "already delivered".
// Persistent spools keep their boot id across restarts, preserving
// suppression of replayed-but-already-fused reports. One live sender per
// DC id is assumed; two interleaving boots would flap the window.
//
// Safe for concurrent use by all server connections; share one Dedup across
// server restarts to keep suppression working through a PDME bounce.
type Dedup struct {
	// window is not checkpointed: capacity is construction config, and
	// Restore keeps it and prunes restored sequences against it.
	window uint64

	mu   sync.Mutex
	dcs  map[string]*dedupWindow
	hits int64
}

type dedupWindow struct {
	boot   uint64
	maxSeq uint64
	seen   map[uint64]struct{}
}

// NewDedup returns a window of the given size per DC (<=0: the default).
func NewDedup(window int) *Dedup {
	if window <= 0 {
		window = DefaultDedupWindow
	}
	return &Dedup{window: uint64(window), dcs: make(map[string]*dedupWindow)}
}

// Seen reports whether (dcid, seq) was already marked under the same boot
// (or is below the window floor and therefore presumed delivered). A
// different boot is a restarted sender: nothing it sends is a duplicate.
// A hit is counted.
func (d *Dedup) Seen(dcid string, boot, seq uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	w, ok := d.dcs[dcid]
	if !ok || w.boot != boot {
		return false
	}
	if w.maxSeq > d.window && seq <= w.maxSeq-d.window {
		d.hits++
		return true
	}
	if _, dup := w.seen[seq]; dup {
		d.hits++
		return true
	}
	return false
}

// Mark records a delivered sequence, advancing the window and dropping the
// sequences that left it. A sequence at or below the floor is not stored:
// Seen already presumes it delivered. A boot change resets the DC's window
// to the new incarnation.
func (d *Dedup) Mark(dcid string, boot, seq uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	w, ok := d.dcs[dcid]
	if !ok || w.boot != boot {
		w = &dedupWindow{boot: boot, seen: make(map[uint64]struct{})}
		d.dcs[dcid] = w
	}
	oldFloor := w.floor(d.window)
	if seq > w.maxSeq {
		w.maxSeq = seq
	}
	floor := w.floor(d.window)
	w.prune(oldFloor, floor)
	if seq > floor {
		w.seen[seq] = struct{}{}
	}
}

// floor is the highest sequence presumed delivered without being stored.
func (w *dedupWindow) floor(window uint64) uint64 {
	if w.maxSeq <= window {
		return 0
	}
	return w.maxSeq - window
}

// prune drops the stored sequences in (oldFloor, newFloor]. The usual
// advance is a step of one; a jump wider than the stored set (a sender that
// skipped ahead, or a restored snapshot) ranges over the set instead, so
// the cost is bounded by the window, never by the wire's sequence gap.
func (w *dedupWindow) prune(oldFloor, newFloor uint64) {
	if newFloor-oldFloor > uint64(len(w.seen)) {
		for s := range w.seen {
			if s <= newFloor {
				delete(w.seen, s)
			}
		}
		return
	}
	for s := oldFloor + 1; s <= newFloor; s++ {
		delete(w.seen, s)
	}
}

// Hits returns how many duplicate deliveries were suppressed.
func (d *Dedup) Hits() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.hits
}

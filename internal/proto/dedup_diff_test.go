package proto

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// refDedup is the window as it was before Mark learned to drop only the
// sequences an advance pushes out: every Mark stores its sequence, and every
// advancing Mark scans the whole stored set for entries at or below the new
// floor. It is kept here as the oracle the production window is compared
// against; nothing outside this file uses it.
type refDedup struct {
	window uint64
	dcs    map[string]*dedupWindow
	hits   int64
}

func newRefDedup(window int) *refDedup {
	return &refDedup{window: uint64(window), dcs: make(map[string]*dedupWindow)}
}

func (d *refDedup) seen(dcid string, boot, seq uint64) bool {
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

func (d *refDedup) mark(dcid string, boot, seq uint64) {
	w, ok := d.dcs[dcid]
	if !ok || w.boot != boot {
		w = &dedupWindow{boot: boot, seen: make(map[uint64]struct{})}
		d.dcs[dcid] = w
	}
	w.seen[seq] = struct{}{}
	if seq > w.maxSeq {
		w.maxSeq = seq
		if w.maxSeq > d.window {
			floor := w.maxSeq - d.window
			for s := range w.seen {
				if s <= floor {
					delete(w.seen, s)
				}
			}
		}
	}
}

func (d *refDedup) restore(st DedupState) {
	d.hits = st.Hits
	d.dcs = make(map[string]*dedupWindow, len(st.DCs))
	for _, dc := range st.DCs {
		w := &dedupWindow{boot: dc.Boot, maxSeq: dc.MaxSeq, seen: make(map[uint64]struct{}, len(dc.Seen))}
		for _, s := range dc.Seen {
			w.seen[s] = struct{}{}
		}
		d.dcs[dc.DCID] = w
	}
}

// state exports the reference window through the production encoder. With
// aboveFloor set, entries at or below each DC's floor are left out: the
// reference keeps a late below-floor mark until the next advance scans it
// away, the production window never stores it, and Seen cannot tell the two
// apart.
func (d *refDedup) state(aboveFloor bool) DedupState {
	real := &Dedup{window: d.window, dcs: make(map[string]*dedupWindow, len(d.dcs)), hits: d.hits}
	for dcid, w := range d.dcs {
		cp := &dedupWindow{boot: w.boot, maxSeq: w.maxSeq, seen: make(map[uint64]struct{}, len(w.seen))}
		for s := range w.seen {
			if !aboveFloor || s > cp.floor(d.window) {
				cp.seen[s] = struct{}{}
			}
		}
		real.dcs[dcid] = cp
	}
	return real.State()
}

// TestDedupMatchesReferenceWindow drives the production window and the
// reference with the same seeded operation streams and requires the same
// Seen answer on every probe, the same hit count, and the same exported
// state above the floor — across in-order delivery, reordering inside the
// window, late marks far behind it, sequence jumps wider than the window,
// boot changes, and checkpoint round trips (including a restore of a state
// that still holds below-floor entries, as a reference-written checkpoint
// can).
func TestDedupMatchesReferenceWindow(t *testing.T) {
	for _, window := range []int{1, 4, 64, 1024} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("window=%d/seed=%d", window, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed*7919 + int64(window)))
				got, ref := NewDedup(window), newRefDedup(window)
				dcs := []string{"dc-1", "dc-2", "dc-3"}
				boots := map[string]uint64{"dc-1": 1, "dc-2": 1, "dc-3": 1}
				next := map[string]uint64{}
				w := uint64(window)
				for op := 0; op < 6000; op++ {
					dc := dcs[rng.Intn(len(dcs))]
					head := next[dc]
					var seq uint64
					switch r := rng.Intn(100); {
					case r < 55: // in order
						head++
						seq = head
					case r < 75: // reordered inside the window
						seq = head - min(head, uint64(rng.Int63n(int64(w)+1)))
					case r < 85: // late, far behind the window
						seq = uint64(rng.Int63n(int64(head) + 1))
					case r < 90: // the sender skipped ahead
						head += uint64(rng.Int63n(int64(3*w) + 2))
						seq = head
					case r < 93: // sender restart: new boot, counter from 1
						boots[dc]++
						head = 1
						seq = 1
					case r < 96: // checkpoint round trip
						st := ref.state(false)
						got.Restore(st)
						ref.restore(st)
						continue
					default: // probe only, anywhere around the head
						seq = head + uint64(rng.Intn(3))
					}
					next[dc] = head
					if seq == 0 {
						seq = 1
					}
					boot := boots[dc]
					if rng.Intn(20) == 0 {
						boot-- // a straggler from the previous incarnation
					}
					g, r := got.Seen(dc, boot, seq), ref.seen(dc, boot, seq)
					if g != r {
						t.Fatalf("op %d: Seen(%s, boot %d, seq %d) = %v, reference %v", op, dc, boot, seq, g, r)
					}
					// The server marks what Seen let through; journal replay and
					// the PDME's in-accept mark repeat marks Seen would suppress.
					if !g || rng.Intn(3) == 0 {
						got.Mark(dc, boot, seq)
						ref.mark(dc, boot, seq)
					}
					if op%97 == 0 {
						if gs, rs := got.State(), ref.state(true); !reflect.DeepEqual(gs, rs) {
							t.Fatalf("op %d: state diverged\n got %+v\nwant %+v", op, gs, rs)
						}
					}
				}
				if got.Hits() != ref.hits {
					t.Errorf("hits %d, reference %d", got.Hits(), ref.hits)
				}
				if gs, rs := got.State(), ref.state(true); !reflect.DeepEqual(gs, rs) {
					t.Errorf("final state diverged\n got %+v\nwant %+v", gs, rs)
				}
			})
		}
	}
}

// TestDedupRestoreUnderSmallerWindow: a snapshot taken under a wide window
// and restored into a narrower one keeps only what the narrow floor admits,
// and stays bounded afterwards — Mark removes only what an advance pushes
// out, so anything Restore let in below the floor would never leave.
func TestDedupRestoreUnderSmallerWindow(t *testing.T) {
	wide := NewDedup(64)
	for seq := uint64(1); seq <= 64; seq++ {
		wide.Mark("dc-1", 1, seq)
	}
	narrow := NewDedup(8)
	narrow.Restore(wide.State())
	if n := len(narrow.State().DCs[0].Seen); n != 8 {
		t.Fatalf("%d sequences stored after restore into an 8-wide window, want 8", n)
	}
	for seq := uint64(65); seq <= 200; seq++ {
		narrow.Mark("dc-1", 1, seq)
	}
	if n := len(narrow.State().DCs[0].Seen); n != 8 {
		t.Errorf("%d sequences stored after 136 more marks, want 8", n)
	}
	for seq := uint64(1); seq <= 200; seq++ {
		if !narrow.Seen("dc-1", 1, seq) {
			t.Errorf("seq %d not suppressed", seq)
		}
	}
}

package proto

import "sort"

// DedupState is a serializable snapshot of a Dedup window, part of the
// PDME's durable checkpoint: recovering it is what lets a restarted PDME
// keep suppressing spool replays of reports it fused before the crash.
type DedupState struct {
	Hits int64          `json:"hits,omitempty"`
	DCs  []DedupDCState `json:"dcs,omitempty"`
}

// DedupDCState is one DC's window: the boot incarnation it is scoped to,
// the highest marked sequence, and the marked sequences still inside the
// window (sorted ascending for a deterministic encoding).
type DedupDCState struct {
	DCID   string   `json:"dcid"`
	Boot   uint64   `json:"boot"`
	MaxSeq uint64   `json:"max_seq"`
	Seen   []uint64 `json:"seen,omitempty"`
}

// State snapshots the window for checkpointing. DCs and sequences are
// sorted so identical windows encode identically.
func (d *Dedup) State() DedupState {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := DedupState{Hits: d.hits}
	for dcid, w := range d.dcs {
		seen := make([]uint64, 0, len(w.seen))
		for s := range w.seen {
			seen = append(seen, s)
		}
		sort.Slice(seen, func(i, k int) bool { return seen[i] < seen[k] })
		st.DCs = append(st.DCs, DedupDCState{DCID: dcid, Boot: w.boot, MaxSeq: w.maxSeq, Seen: seen})
	}
	sort.Slice(st.DCs, func(i, k int) bool { return st.DCs[i].DCID < st.DCs[k].DCID })
	return st
}

// Restore replaces the window contents with a snapshot. The window
// capacity stays as configured at construction; sequences at or below the
// floor it implies are dropped here, because Mark only ever removes what
// an advance pushes out.
func (d *Dedup) Restore(st DedupState) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.hits = st.Hits
	d.dcs = make(map[string]*dedupWindow, len(st.DCs))
	for _, dc := range st.DCs {
		w := &dedupWindow{boot: dc.Boot, maxSeq: dc.MaxSeq, seen: make(map[uint64]struct{}, len(dc.Seen))}
		for _, s := range dc.Seen {
			w.seen[s] = struct{}{}
		}
		w.prune(0, w.floor(d.window))
		d.dcs[dc.DCID] = w
	}
}

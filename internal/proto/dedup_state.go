package proto

import (
	"cmp"
	"slices"
	"sort"
	"strconv"
)

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

// State snapshots the window, DCs and sequences sorted so identical windows
// encode identically. The checkpoint writes a Capture instead; State is the
// reference its bytes are tested against, and what Restore reads is State's
// JSON.
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

// DedupCapture is a window copied for the checkpoint writer: State's content,
// unsorted, with every DC's sequences in one backing array, so the copy is all
// the caller's lock pays for. AppendJSON sorts it and writes it.
type DedupCapture struct {
	hits int64
	dcs  []DedupDCState
}

// Capture copies the window.
func (d *Dedup) Capture() DedupCapture {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, w := range d.dcs {
		n += len(w.seen)
	}
	seen := make([]uint64, 0, n)
	c := DedupCapture{hits: d.hits, dcs: make([]DedupDCState, 0, len(d.dcs))}
	for dcid, w := range d.dcs {
		lo := len(seen)
		for s := range w.seen {
			seen = append(seen, s)
		}
		c.dcs = append(c.dcs, DedupDCState{DCID: dcid, Boot: w.boot, MaxSeq: w.maxSeq, Seen: seen[lo:len(seen):len(seen)]})
	}
	return c
}

// AppendJSON appends the captured window exactly as json.Marshal writes the
// State taken at the same moment. It sorts the capture in place.
func (c *DedupCapture) AppendJSON(dst []byte) []byte {
	slices.SortFunc(c.dcs, func(a, b DedupDCState) int { return cmp.Compare(a.DCID, b.DCID) })
	dst = append(dst, '{')
	if c.hits != 0 {
		dst = append(dst, `"hits":`...)
		dst = strconv.AppendInt(dst, c.hits, 10)
	}
	if len(c.dcs) > 0 {
		if c.hits != 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `"dcs":[`...)
		for i, dc := range c.dcs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"dcid":`...)
			dst = AppendMarshalString(dst, dc.DCID)
			dst = append(dst, `,"boot":`...)
			dst = strconv.AppendUint(dst, dc.Boot, 10)
			dst = append(dst, `,"max_seq":`...)
			dst = strconv.AppendUint(dst, dc.MaxSeq, 10)
			if len(dc.Seen) > 0 {
				slices.Sort(dc.Seen)
				dst = append(dst, `,"seen":[`...)
				for k, s := range dc.Seen {
					if k > 0 {
						dst = append(dst, ',')
					}
					dst = strconv.AppendUint(dst, s, 10)
				}
				dst = append(dst, ']')
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

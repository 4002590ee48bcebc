package fusion

import (
	"cmp"
	"slices"
	"strconv"
	"time"

	"repro/internal/dempster"
	"repro/internal/proto"
)

// Checkpoint capture: the PDME's checkpoint writer holds its accept lock only
// while it copies what a later report would change in place, and formats
// after releasing it. A source's mass is copied too, into one flat pair of
// arrays per capture, because a fold writes the source's mass in place
// (AddReportFrom). A fused prognostic vector is held by reference: each
// AddReport replaces it and never writes into it. What the writer emits is
// byte for byte json.Marshal of the Snapshot taken at the same moment;
// Snapshot stays the reference it is tested against.

// DiagnosticCapture is a DiagnosticFuser's evidence as Capture found it.
type DiagnosticCapture struct {
	totalFused int
	blocks     []capturedBlock
}

type capturedBlock struct {
	component, group string
	frame            *dempster.Frame
	sources          []capturedSource
	reports          []conditionCount
	newest           []conditionStamp
}

type capturedSource struct {
	id string
	// sets and vals are the source's mass: its focal sets, ascending, and
	// their masses.
	sets       []dempster.Set
	vals       []float64
	lastReport time.Time
	conditions []string
}

type conditionCount struct {
	condition string
	n         int
}

type conditionStamp struct {
	condition string
	at        time.Time
}

// Capture copies the fuser's mutable state, masses included, unsorted, into
// a few arrays that the blocks slice.
func (df *DiagnosticFuser) Capture() *DiagnosticCapture {
	df.mu.RLock()
	defer df.mu.RUnlock()
	var nBlocks, nSources, nFocal, nReports, nNewest int
	//lint:allow maporder only sizes the capture
	for _, byGroup := range df.states {
		nBlocks += len(byGroup)
		//lint:allow maporder only sizes the capture
		for _, st := range byGroup {
			nSources += len(st.sources)
			nReports += len(st.reports)
			nNewest += len(st.newest)
			for _, id := range st.ids {
				nFocal += len(st.sources[id].mass.FocalSets())
			}
		}
	}
	c := &DiagnosticCapture{totalFused: df.totalFusedN, blocks: make([]capturedBlock, 0, nBlocks)}
	sources := make([]capturedSource, 0, nSources)
	sets, vals := make([]dempster.Set, 0, nFocal), make([]float64, 0, nFocal)
	// A condition some source reported is a reported condition; with one
	// source per condition the two counts are equal.
	conds := make([]string, 0, nReports)
	reports := make([]conditionCount, 0, nReports)
	newest := make([]conditionStamp, 0, nNewest)
	// Sources come in id order (ids); AppendJSON sorts the rest.
	//lint:allow maporder AppendJSON sorts blocks and conditions before writing them
	for component, byGroup := range df.states {
		//lint:allow maporder as above
		for group, st := range byGroup {
			b := capturedBlock{component: component, group: group, frame: st.frame}
			s0 := len(sources)
			for _, id := range st.ids {
				src := st.sources[id]
				c0 := len(conds)
				//lint:allow maporder as above
				for cond := range src.conditions {
					conds = append(conds, cond)
				}
				f0 := len(sets)
				sets = append(sets, src.mass.FocalSets()...)
				vals = append(vals, src.mass.Values()...)
				sources = append(sources, capturedSource{id: id,
					sets: sets[f0:len(sets):len(sets)], vals: vals[f0:len(vals):len(vals)],
					lastReport: src.lastReport, conditions: conds[c0:len(conds):len(conds)]})
			}
			b.sources = sources[s0:len(sources):len(sources)]
			r0 := len(reports)
			//lint:allow maporder as above
			for cond, n := range st.reports {
				reports = append(reports, conditionCount{cond, n})
			}
			b.reports = reports[r0:len(reports):len(reports)]
			n0 := len(newest)
			//lint:allow maporder as above
			for cond, at := range st.newest {
				newest = append(newest, conditionStamp{cond, at})
			}
			b.newest = newest[n0:len(newest):len(newest)]
			c.blocks = append(c.blocks, b)
		}
	}
	return c
}

// membersKey names one focal set of one failure group: its members' JSON is
// the same in every block and every source of the group.
type membersKey struct {
	group string
	set   dempster.Set
}

// AppendJSON appends the capture exactly as json.Marshal writes the
// DiagnosticState Snapshot returned at the same moment. It sorts the capture
// in place. It fails where json.Marshal fails: on a NaN or infinite mass, or
// a time outside RFC 3339.
func (c *DiagnosticCapture) AppendJSON(dst []byte) ([]byte, error) {
	slices.SortFunc(c.blocks, func(a, b capturedBlock) int {
		return cmp.Or(cmp.Compare(a.component, b.component), cmp.Compare(a.group, b.group))
	})
	dst = append(dst, `{"groups":`...)
	if len(c.blocks) == 0 {
		dst = append(dst, "null"...)
	} else {
		members := make(map[membersKey][]byte)
		var err error
		dst = append(dst, '[')
		for i := range c.blocks {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = c.blocks[i].appendJSON(dst, members); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"total_fused":`...)
	dst = strconv.AppendInt(dst, int64(c.totalFused), 10)
	return append(dst, '}'), nil
}

// appendJSON writes one block as its GroupSnapshot. members memoizes each
// focal set's member list.
func (b *capturedBlock) appendJSON(dst []byte, members map[membersKey][]byte) ([]byte, error) {
	var err error
	dst = append(dst, `{"component":`...)
	dst = proto.AppendMarshalString(dst, b.component)
	dst = append(dst, `,"group":`...)
	dst = proto.AppendMarshalString(dst, b.group)
	dst = append(dst, `,"sources":`...)
	if len(b.sources) == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range b.sources {
			if i > 0 {
				dst = append(dst, ',')
			}
			src := &b.sources[i]
			dst = append(dst, `{"source":`...)
			dst = proto.AppendMarshalString(dst, src.id)
			dst = append(dst, `,"last_report":`...)
			if dst, err = proto.AppendMarshalTime(dst, src.lastReport); err != nil {
				return dst, err
			}
			if len(src.conditions) > 0 {
				slices.Sort(src.conditions)
				dst = append(dst, `,"conditions":`...)
				dst = proto.AppendMarshalStrings(dst, src.conditions)
			}
			dst = append(dst, `,"focal":`...)
			if len(src.sets) == 0 {
				dst = append(dst, "null"...)
			} else {
				dst = append(dst, '[')
				for k, set := range src.sets {
					if k > 0 {
						dst = append(dst, ',')
					}
					key := membersKey{b.group, set}
					names, ok := members[key]
					if !ok {
						names = proto.AppendMarshalStrings(nil, b.frame.Names(set))
						members[key] = names
					}
					dst = append(dst, `{"members":`...)
					dst = append(dst, names...)
					dst = append(dst, `,"mass":`...)
					if dst, err = proto.AppendMarshalFloat(dst, src.vals[k]); err != nil {
						return dst, err
					}
					dst = append(dst, '}')
				}
				dst = append(dst, ']')
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if len(b.reports) > 0 {
		slices.SortFunc(b.reports, func(x, y conditionCount) int { return cmp.Compare(x.condition, y.condition) })
		dst = append(dst, `,"reports":{`...)
		for i, r := range b.reports {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = proto.AppendMarshalString(dst, r.condition)
			dst = append(dst, ':')
			dst = strconv.AppendInt(dst, int64(r.n), 10)
		}
		dst = append(dst, '}')
	}
	if len(b.newest) > 0 {
		slices.SortFunc(b.newest, func(x, y conditionStamp) int { return cmp.Compare(x.condition, y.condition) })
		dst = append(dst, `,"newest":{`...)
		for i, n := range b.newest {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = proto.AppendMarshalString(dst, n.condition)
			dst = append(dst, ':')
			if dst, err = proto.AppendMarshalTime(dst, n.at); err != nil {
				return dst, err
			}
		}
		dst = append(dst, '}')
	}
	return append(dst, '}'), nil
}

// PrognosticCapture is a PrognosticFuser's fused vectors as Capture found
// them; the vectors are shared.
type PrognosticCapture []PrognosticEntry

// Capture copies the fuser's (component, condition) → vector table, unsorted.
func (pf *PrognosticFuser) Capture() PrognosticCapture {
	pf.mu.RLock()
	defer pf.mu.RUnlock()
	c := make(PrognosticCapture, 0, len(pf.fused))
	//lint:allow maporder AppendJSON sorts the entries before writing them
	for k, v := range pf.fused {
		c = append(c, PrognosticEntry{k.component, k.condition, v})
	}
	return c
}

// AppendJSON appends the capture exactly as json.Marshal writes the
// PrognosticState Snapshot returned at the same moment. It sorts the capture
// in place.
func (c PrognosticCapture) AppendJSON(dst []byte) ([]byte, error) {
	slices.SortFunc(c, func(a, b PrognosticEntry) int {
		return cmp.Or(cmp.Compare(a.Component, b.Component), cmp.Compare(a.Condition, b.Condition))
	})
	dst = append(dst, '[')
	var err error
	for i, e := range c {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"component":`...)
		dst = proto.AppendMarshalString(dst, e.Component)
		dst = append(dst, `,"condition":`...)
		dst = proto.AppendMarshalString(dst, e.Condition)
		dst = append(dst, `,"vector":`...)
		v := e.Vector
		if len(v) == 0 {
			v = nil // Snapshot's copy of an empty vector is nil
		}
		if dst, err = proto.AppendPrognosticsJSON(dst, v); err != nil {
			return dst, err
		}
		dst = append(dst, '}')
	}
	return append(dst, ']'), nil
}

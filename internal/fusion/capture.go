package fusion

import (
	"cmp"
	"maps"
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
	component string
	group     *groupFrame
	sources   []capturedSource
	// reports and newest are the block's, by member position.
	reports []int
	newest  []time.Time
}

type capturedSource struct {
	id string
	// sets and vals are the source's mass: its focal sets, ascending, and
	// their masses.
	sets       []dempster.Set
	vals       []float64
	lastReport time.Time
	conditions dempster.Set
}

// Capture copies the fuser's mutable state, masses included, into a few
// arrays that the blocks slice. It walks the components in name order, each
// one's blocks in group order and each block's sources in id order: the
// order AppendJSON writes them in.
func (df *DiagnosticFuser) Capture() *DiagnosticCapture {
	df.mu.RLock()
	defer df.mu.RUnlock()
	components := slices.Sorted(maps.Keys(df.states))
	var nBlocks, nSources, nFocal, nMembers int
	for _, component := range components {
		for _, st := range df.states[component] {
			if st == nil {
				continue
			}
			nBlocks++
			nSources += len(st.sources)
			nMembers += len(st.reports)
			for i := range st.sources {
				nFocal += len(st.sources[i].mass.FocalSets())
			}
		}
	}
	c := &DiagnosticCapture{totalFused: df.totalFusedN, blocks: make([]capturedBlock, 0, nBlocks)}
	sources := make([]capturedSource, 0, nSources)
	sets, vals := make([]dempster.Set, 0, nFocal), make([]float64, 0, nFocal)
	reports, newest := make([]int, 0, nMembers), make([]time.Time, 0, nMembers)
	for _, component := range components {
		for g, st := range df.states[component] {
			if st == nil {
				continue
			}
			s0 := len(sources)
			for i := range st.sources {
				src := &st.sources[i]
				f0 := len(sets)
				sets = append(sets, src.mass.FocalSets()...)
				vals = append(vals, src.mass.Values()...)
				sources = append(sources, capturedSource{id: src.id,
					sets: sets[f0:len(sets):len(sets)], vals: vals[f0:len(vals):len(vals)],
					lastReport: src.lastReport, conditions: src.conditions})
			}
			r0 := len(reports)
			reports = append(reports, st.reports...)
			newest = append(newest, st.newest...)
			c.blocks = append(c.blocks, capturedBlock{component: component, group: &df.groups[g],
				sources: sources[s0:len(sources):len(sources)],
				reports: reports[r0:len(reports):len(reports)], newest: newest[r0:len(newest):len(newest)]})
		}
	}
	return c
}

// membersKey names one focal set of one failure group: its members' JSON is
// the same in every block and every source of the group.
type membersKey struct {
	group *groupFrame
	set   dempster.Set
}

// AppendJSON appends the capture exactly as json.Marshal writes the
// DiagnosticState Snapshot returned at the same moment. It fails where
// json.Marshal fails: on a NaN or infinite mass, or a time outside RFC 3339.
func (c *DiagnosticCapture) AppendJSON(dst []byte) ([]byte, error) {
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
	g := b.group
	dst = append(dst, `{"component":`...)
	dst = proto.AppendMarshalString(dst, b.component)
	dst = append(dst, `,"group":`...)
	dst = proto.AppendMarshalString(dst, g.name)
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
			if src.conditions != 0 {
				dst = append(dst, `,"conditions":[`...)
				n := 0
				for _, pos := range g.byName {
					if src.conditions.Contains(dempster.Singleton(pos)) {
						if n > 0 {
							dst = append(dst, ',')
						}
						dst = proto.AppendMarshalString(dst, g.members[pos])
						n++
					}
				}
				dst = append(dst, ']')
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
					key := membersKey{g, set}
					names, ok := members[key]
					if !ok {
						names = proto.AppendMarshalStrings(nil, g.frame.Names(set))
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
	// A member with no count or no stamp is absent from Reports or Newest.
	n := 0
	for _, pos := range g.byName {
		if count := b.reports[pos]; count != 0 {
			if n == 0 {
				dst = append(dst, `,"reports":{`...)
			} else {
				dst = append(dst, ',')
			}
			dst = proto.AppendMarshalString(dst, g.members[pos])
			dst = append(dst, ':')
			dst = strconv.AppendInt(dst, int64(count), 10)
			n++
		}
	}
	if n > 0 {
		dst = append(dst, '}')
	}
	n = 0
	for _, pos := range g.byName {
		if at := b.newest[pos]; !at.IsZero() {
			if n == 0 {
				dst = append(dst, `,"newest":{`...)
			} else {
				dst = append(dst, ',')
			}
			dst = proto.AppendMarshalString(dst, g.members[pos])
			dst = append(dst, ':')
			if dst, err = proto.AppendMarshalTime(dst, at); err != nil {
				return dst, err
			}
			n++
		}
	}
	if n > 0 {
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

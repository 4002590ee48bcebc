package fusion

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"time"

	"repro/internal/dempster"
	"repro/internal/proto"
)

// Checkpoint snapshots for the PDME's durable journal. Every slice is
// sorted so identical fusion states encode identically, and masses are
// carried as focal-set member lists so a snapshot survives frame-layout
// changes as long as group membership itself is unchanged. Float64 values
// round-trip bit-exactly through JSON (Go emits the shortest
// uniquely-decoding representation), which is what lets a recovered PDME
// reproduce RankedAll/Belief output bit-for-bit.

// FocalMass is one focal set of a source's accumulated evidence.
type FocalMass struct {
	// Members are the frame hypotheses in the focal set (condition names
	// plus the reserved unknown hypothesis), sorted by frame order.
	Members []string `json:"members"`
	Mass    float64  `json:"mass"`
}

// SourceSnapshot is one knowledge source's evidence within a group state.
type SourceSnapshot struct {
	Source     string      `json:"source"`
	LastReport time.Time   `json:"last_report,omitempty"`
	Conditions []string    `json:"conditions,omitempty"`
	Focal      []FocalMass `json:"focal"`
}

// GroupSnapshot is the full per-(component, logical failure group) state.
type GroupSnapshot struct {
	Component string           `json:"component"`
	Group     string           `json:"group"`
	Sources   []SourceSnapshot `json:"sources"`
	// Reports counts per-condition report arrivals, keyed by condition.
	Reports map[string]int `json:"reports,omitempty"`
	// Newest is each condition's UpdatedAt: the sensed-at time of the newest
	// evidence folded in (absent for conditions with no timestamped report,
	// and from checkpoints written before the field existed).
	Newest map[string]time.Time `json:"newest,omitempty"`
}

// DiagnosticState is a serializable snapshot of a DiagnosticFuser.
type DiagnosticState struct {
	Groups     []GroupSnapshot `json:"groups"`
	TotalFused int             `json:"total_fused"`
}

// Snapshot copies the fuser's accumulated evidence, sorted. The checkpoint
// writes a Capture instead (capture.go); Snapshot is the reference its bytes
// are tested against, and DiagnosticState is what Restore reads.
func (df *DiagnosticFuser) Snapshot() DiagnosticState {
	df.mu.RLock()
	defer df.mu.RUnlock()
	st := DiagnosticState{TotalFused: df.totalFusedN}
	for _, component := range slices.Sorted(maps.Keys(df.states)) {
		for g, gs := range df.states[component] {
			if gs == nil {
				continue
			}
			snap := gs.Snapshot(&df.groups[g])
			snap.Component, snap.Group = component, df.groups[g].name
			st.Groups = append(st.Groups, snap)
		}
	}
	return st
}

// Snapshot captures one block of group g, sources sorted by id. The caller
// names the block it belongs to.
func (gs *groupState) Snapshot(g *groupFrame) GroupSnapshot {
	var snap GroupSnapshot
	for i := range gs.sources {
		src := &gs.sources[i]
		ss := SourceSnapshot{Source: src.id, LastReport: src.lastReport, Conditions: g.names(src.conditions)}
		vals := src.mass.Values()
		for k, set := range src.mass.FocalSets() {
			ss.Focal = append(ss.Focal, FocalMass{
				Members: g.frame.Names(set),
				Mass:    vals[k],
			})
		}
		snap.Sources = append(snap.Sources, ss)
	}
	for pos, cond := range g.members {
		if n := gs.reports[pos]; n != 0 {
			if snap.Reports == nil {
				snap.Reports = make(map[string]int)
			}
			snap.Reports[cond] = n
		}
		if at := gs.newest[pos]; !at.IsZero() {
			if snap.Newest == nil {
				snap.Newest = make(map[string]time.Time)
			}
			snap.Newest[cond] = at
		}
	}
	return snap
}

// Restore replaces the fuser's evidence with a snapshot. The group
// configuration is NOT part of the snapshot — it comes from construction —
// so a snapshot naming a group or condition the current configuration does
// not know, or a condition outside the group it is filed under, is refused
// rather than silently misfiled; so is a block or a source named twice.
func (df *DiagnosticFuser) Restore(st DiagnosticState) error {
	df.mu.Lock()
	defer df.mu.Unlock()
	states := make(map[string][]*groupState)
	for _, snap := range st.Groups {
		g, err := df.group(snap.Group)
		if err != nil {
			return err
		}
		blocks := states[snap.Component]
		if blocks == nil {
			blocks = make([]*groupState, len(df.groups))
			states[snap.Component] = blocks
		}
		if blocks[g] != nil {
			return fmt.Errorf("fusion: restore %s/%s: block named twice", snap.Component, snap.Group)
		}
		if blocks[g], err = restoreBlock(&df.groups[g], snap); err != nil {
			return fmt.Errorf("fusion: restore %s/%s: %w", snap.Component, snap.Group, err)
		}
	}
	df.states = states
	df.totalFusedN = st.TotalFused
	return nil
}

// restoreBlock builds a block of group g from its snapshot. Each mass comes
// back exactly as captured, a focal set with mass 0 included. A snapshot
// written before Newest existed restores with zero stamps: those pairs stay
// unstamped until their next report.
func restoreBlock(g *groupFrame, snap GroupSnapshot) (*groupState, error) {
	gs := newGroupState(len(g.members))
	reported, stamped := 0, 0
	for pos, cond := range g.members {
		if n, ok := snap.Reports[cond]; ok {
			gs.reports[pos], reported = n, reported+1
		}
		if at, ok := snap.Newest[cond]; ok {
			gs.newest[pos], stamped = at, stamped+1
		}
	}
	if reported != len(snap.Reports) || stamped != len(snap.Newest) {
		return nil, fmt.Errorf("reports or newest name a condition that is not a member of the group")
	}
	other := dempster.Singleton(len(g.members))
	for _, ss := range snap.Sources {
		conditions, err := g.frame.SetOf(ss.Conditions...)
		if err == nil && conditions.Contains(other) {
			err = fmt.Errorf("condition name %q is reserved", otherHypothesis)
		}
		if err != nil {
			return nil, fmt.Errorf("source %q: %w", ss.Source, err)
		}
		src := sourceEvidence{id: ss.Source, mass: *dempster.NewMass(g.frame), lastReport: ss.LastReport, conditions: conditions}
		for _, fm := range ss.Focal {
			set, err := g.frame.SetOf(fm.Members...)
			if err == nil {
				err = src.mass.Put(set, fm.Mass)
			}
			if err != nil {
				return nil, fmt.Errorf("source %q: %w", ss.Source, err)
			}
		}
		i, dup := gs.source(ss.Source)
		if dup {
			return nil, fmt.Errorf("source %q named twice", ss.Source)
		}
		gs.sources = slices.Insert(gs.sources, i, src)
	}
	return gs, nil
}

// PrognosticEntry is one fused (component, condition) prognostic vector.
type PrognosticEntry struct {
	Component string                 `json:"component"`
	Condition string                 `json:"condition"`
	Vector    proto.PrognosticVector `json:"vector"`
}

// PrognosticState is a serializable snapshot of a PrognosticFuser, sorted
// by (component, condition).
type PrognosticState []PrognosticEntry

// Snapshot copies the fused prognostic vectors, sorted: the reference for
// PrognosticCapture's bytes, as DiagnosticFuser.Snapshot is for its capture.
func (pf *PrognosticFuser) Snapshot() PrognosticState {
	pf.mu.RLock()
	defer pf.mu.RUnlock()
	st := make(PrognosticState, 0, len(pf.fused))
	for _, k := range slices.SortedFunc(maps.Keys(pf.fused), func(a, b progKey) int {
		return cmp.Or(cmp.Compare(a.component, b.component), cmp.Compare(a.condition, b.condition))
	}) {
		st = append(st, PrognosticEntry{k.component, k.condition, append(proto.PrognosticVector(nil), pf.fused[k]...)})
	}
	return st
}

// Restore replaces the fuser's vectors with a snapshot.
func (pf *PrognosticFuser) Restore(st PrognosticState) error {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	fused := make(map[progKey]proto.PrognosticVector, len(st))
	for _, e := range st {
		if e.Component == "" || e.Condition == "" {
			return fmt.Errorf("fusion: restore: entry missing component or condition")
		}
		if err := e.Vector.Validate(); err != nil {
			return fmt.Errorf("fusion: restore %s/%s: %w", e.Component, e.Condition, err)
		}
		fused[progKey{e.Component, e.Condition}] = append(proto.PrognosticVector(nil), e.Vector...)
	}
	pf.fused = fused
	return nil
}

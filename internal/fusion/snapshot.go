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
// reproduce Ranked/Belief output bit-for-bit.

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
		byGroup := df.states[component]
		for _, group := range slices.Sorted(maps.Keys(byGroup)) {
			snap := byGroup[group].Snapshot()
			snap.Component, snap.Group = component, group
			st.Groups = append(st.Groups, snap)
		}
	}
	return st
}

// Snapshot captures one group state, sources sorted by id. The caller names
// the block it belongs to.
func (gs *groupState) Snapshot() GroupSnapshot {
	var snap GroupSnapshot
	for _, id := range gs.ids {
		src := gs.sources[id]
		ss := SourceSnapshot{Source: id, LastReport: src.lastReport,
			Conditions: slices.Sorted(maps.Keys(src.conditions))}
		vals := src.mass.Values()
		for k, set := range src.mass.FocalSets() {
			ss.Focal = append(ss.Focal, FocalMass{
				Members: gs.frame.Names(set),
				Mass:    vals[k],
			})
		}
		snap.Sources = append(snap.Sources, ss)
	}
	if len(gs.reports) > 0 {
		snap.Reports = maps.Clone(gs.reports)
	}
	if len(gs.newest) > 0 {
		snap.Newest = maps.Clone(gs.newest)
	}
	return snap
}

// Restore replaces the fuser's evidence with a snapshot. The group
// configuration is NOT part of the snapshot — it comes from construction —
// so a snapshot naming a group or condition the current configuration does
// not know is refused rather than silently misfiled.
func (df *DiagnosticFuser) Restore(st DiagnosticState) error {
	df.mu.Lock()
	defer df.mu.Unlock()
	states := make(map[string]map[string]*groupState)
	for _, snap := range st.Groups {
		if _, ok := df.groups[snap.Group]; !ok {
			return fmt.Errorf("fusion: restore: unknown group %q", snap.Group)
		}
		frame, err := newGroupFrame(df.groups, snap.Group)
		if err != nil {
			return err
		}
		gs := newGroupState(frame)
		if err := gs.Restore(snap); err != nil {
			return fmt.Errorf("fusion: restore %s/%s %w", snap.Component, snap.Group, err)
		}
		byGroup, ok := states[snap.Component]
		if !ok {
			byGroup = make(map[string]*groupState)
			states[snap.Component] = byGroup
		}
		byGroup[snap.Group] = gs
	}
	df.states = states
	df.totalFusedN = st.TotalFused
	return nil
}

// Restore fills a fresh group state (newGroupState over the group's frame)
// from its snapshot. Each mass comes back exactly as captured, a focal set
// with mass 0 included. A snapshot written before Newest existed restores
// with zero stamps: those pairs stay unstamped until their next report.
func (gs *groupState) Restore(snap GroupSnapshot) error {
	maps.Copy(gs.reports, snap.Reports)
	maps.Copy(gs.newest, snap.Newest)
	for _, ss := range snap.Sources {
		src := &sourceEvidence{
			mass:       dempster.NewMass(gs.frame),
			lastReport: ss.LastReport,
			conditions: make(map[string]struct{}, len(ss.Conditions)),
		}
		for _, c := range ss.Conditions {
			src.conditions[c] = struct{}{}
		}
		for _, fm := range ss.Focal {
			set, err := gs.frame.SetOf(fm.Members...)
			if err == nil {
				err = src.mass.Put(set, fm.Mass)
			}
			if err != nil {
				return fmt.Errorf("source %q: %w", ss.Source, err)
			}
		}
		gs.sources[ss.Source] = src
	}
	gs.ids = slices.Sorted(maps.Keys(gs.sources))
	return nil
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

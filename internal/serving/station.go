package serving

import (
	"fmt"

	"repro/internal/historian"
	"repro/internal/pdme"
	"repro/internal/proto"
	"repro/internal/trend"
)

// This file is the station's side of the tier: the PDME as a source — its
// block is one logical failure group's fused frame on one component
// (pdme.GroupRead, one Dempster combination), its factors are the discount
// factors of the block's sources (pdme.AppendGroupFactors), its fresh path is
// pdme.PrioritizedList — and what only a station has: per-pair belief views
// with their prognostic vectors, and the historian's trends. A write reaches
// the tier one way, the window the PDME's one fuse body opens around every
// report, so the tier subscribes to nothing in the ship model.

// pdmeSource is a station's PDME as the tier's source.
type pdmeSource struct{ *pdme.PDME }

func itemRow(it pdme.MaintenanceItem) (*row, error) {
	key := pdme.RankKey{Belief: it.Belief, HasPrognostic: it.HasPrognostic,
		TimeToHalf: it.TimeToHalf, Component: it.Component, Condition: it.Condition}
	return newRow(key, it, rowJSON{
		Component:         it.Component,
		Condition:         it.Condition,
		Group:             it.Group,
		Belief:            it.Belief,
		Plausibility:      it.Plausibility,
		Reports:           it.Reports,
		Reliability:       it.Reliability,
		Degraded:          it.Degraded,
		TimeToHalfSeconds: it.TimeToHalf.Seconds(),
		HasPrognostic:     it.HasPrognostic,
	})
}

// read materializes one block: one group read, the members' views, the
// reported members' rows with their JSON.
func (s pdmeSource) read(key blockKey) *fused {
	gr, err := s.GroupRead(key.component, key.group)
	if err != nil {
		return &fused{err: err}
	}
	m := &fused{
		members: make([]BeliefView, len(gr.Members)),
		rows:    make([]*row, len(gr.Items)),
		factors: gr.Factors,
	}
	for i, cs := range gr.Members {
		m.members[i] = BeliefView{
			Component:    key.component,
			Condition:    cs.Condition,
			Group:        cs.Group,
			Belief:       cs.Belief,
			Plausibility: cs.Plausibility,
			Unknown:      cs.Unknown,
			Reports:      cs.Reports,
			Reliability:  cs.Reliability,
			Degraded:     cs.Degraded,
			Prognostic:   cs.Prognostics,
		}
	}
	for i, it := range gr.Items {
		if m.rows[i], err = itemRow(it); err != nil {
			return &fused{err: err}
		}
	}
	return m
}

func (s pdmeSource) factors(dst []float64, key blockKey) []float64 {
	return s.AppendGroupFactors(dst, key.component, key.group)
}

func (s pdmeSource) fresh() []*row {
	items := s.PrioritizedList()
	rows := make([]*row, 0, len(items))
	for _, it := range items {
		if r, err := itemRow(it); err == nil {
			rows = append(rows, r)
		}
	}
	return rows
}

// Open attaches a serving tier to the engine by installing the write-window
// hook (one tier per PDME — a second Open replaces the first's hook). Close
// detaches it.
func Open(engine *pdme.PDME, _ Options) (*Views, error) {
	if engine == nil {
		return nil, fmt.Errorf("serving: nil engine")
	}
	v := open(pdmeSource{engine})
	v.engine = engine
	return v, nil
}

// Engine returns the PDME the tier serves.
func (v *Views) Engine() *pdme.PDME { return v.engine }

// Items returns the list most-urgent-first, exactly pdme.PrioritizedList. It
// is assembled per call; the view itself holds only the shared rows.
func (rv RankedView) Items() []pdme.MaintenanceItem {
	if len(rv.rows) == 0 {
		return nil
	}
	items := make([]pdme.MaintenanceItem, len(rv.rows))
	for i, r := range rv.rows {
		items[i] = r.item.(pdme.MaintenanceItem)
	}
	return items
}

// BeliefView is the materialized per-pair belief state: the full fused
// diagnostic read (belief, plausibility, group unknown, health-discounted
// reliability) plus the fused prognostic vector.
type BeliefView struct {
	Component    string                 `json:"component"`
	Condition    string                 `json:"condition"`
	Group        string                 `json:"group"`
	Belief       float64                `json:"belief"`
	Plausibility float64                `json:"plausibility"`
	Unknown      float64                `json:"unknown"`
	Reports      int                    `json:"reports"`
	Reliability  float64                `json:"reliability"`
	Degraded     bool                   `json:"degraded"`
	Prognostic   proto.PrognosticVector `json:"prognostics,omitempty"`
	// Gen is the block's generation at serve time; Cached and Epoch mirror
	// RankedView's serve metadata, for the pair's block.
	Gen    uint64 `json:"gen"`
	Cached bool   `json:"cached"`
	Epoch  uint64 `json:"epoch,omitempty"`
}

// view reads one condition's view out of a served block and stamps it with
// the serve metadata.
func (s served) view(condition string) (BeliefView, error) {
	if s.mat.err != nil {
		return BeliefView{}, s.mat.err
	}
	for _, bv := range s.mat.members {
		if bv.Condition == condition {
			bv.Gen, bv.Cached, bv.Epoch = s.gen, s.cached, s.epoch
			return bv, nil
		}
	}
	return BeliefView{}, fmt.Errorf("serving: condition %q missing from its group's read", condition)
}

// Belief serves one pair's fused state out of its block: fused when the
// block was touched by a write to any condition of the pair's failure group
// on that component, or when its sources' discount factors changed, and
// served as kept otherwise — whatever was reported about other machines.
func (v *Views) Belief(component, condition string) (BeliefView, error) {
	if component == "" {
		return BeliefView{}, fmt.Errorf("serving: empty component")
	}
	group, err := v.engine.GroupOf(condition)
	if err != nil {
		return BeliefView{}, err
	}
	return v.block(blockKey{component, group}).view(condition)
}

// TrendView is a snapshot-isolated severity-history read: the raw points,
// the per-day rollup envelope, and (when three or more points exist) the
// fitted projection to the severity threshold.
type TrendView struct {
	Component string             `json:"component"`
	Condition string             `json:"condition"`
	Threshold float64            `json:"threshold"`
	History   []trend.Point      `json:"history,omitempty"`
	Rollups   []historian.Rollup `json:"rollups,omitempty"`
	// Projection is nil when the pair has too few points to fit.
	Projection *trend.Projection `json:"projection,omitempty"`
	// ProjectionError explains a nil Projection.
	ProjectionError string `json:"projection_error,omitempty"`
}

// Trend reads a pair's severity history, rollup envelope, and threshold
// projection from the historian. The read is snapshot-isolated (sealed
// segments are shared immutably, the head is copied under a read lock), so
// arbitrarily long range reads never block ingest — and are never cached,
// since the snapshot is already consistent by construction.
func (v *Views) Trend(component, condition string, threshold float64) TrendView {
	tv := TrendView{
		Component: component,
		Condition: condition,
		Threshold: threshold,
		History:   v.engine.SeverityHistory(component, condition),
		Rollups:   v.engine.SeverityRollups(component, condition),
	}
	proj, err := trend.ProjectPoints(tv.History, threshold)
	if err != nil {
		tv.ProjectionError = err.Error()
		return tv
	}
	tv.Projection = &proj
	return tv
}

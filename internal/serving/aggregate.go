package serving

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"repro/internal/pdme"
	"repro/internal/shard"
)

// This file is the fleet's side of the tier: the aggregator as a source, and
// the endpoints cmd/pdmed mounts in -aggregator mode.
//
//	GET /ranked[?top=k]                global prioritized list (its first k rows) + coverage
//	GET /belief?component=&condition=  one pair's global state + coverage
//	GET /coverage                      per-shard coverage report alone
//
// The aggregator's block is one component's held pairs of one failure group
// — the unit the owning shard's own tier serves, as that shard last
// summarised it (shard.Aggregator.BlockRead). The aggregator indexes what it
// holds by that block, so a read or a re-ask walks the block's own pairs and
// no other. An accepted summary dirties its block and no other; a stale or
// duplicate one dirties nothing. Its factors are, per held pair, the owning
// shard's discount α and the shard's liveness state: a row prints both, so
// both must be bit-equal for a kept row to stand. Every summary moves the
// shard registry's version, so every read after one asks each block's factors
// again (shard.Aggregator.AppendBlockFactors, into a buffer the tier reuses;
// no row is rebuilt unless they differ). Its fresh path is GlobalRanked.
//
// The graceful-degradation contract: these endpoints NEVER fail because a
// shard is down. A missing shard shows up as degraded rows, rising unknown
// mass, and coverage metadata — a labeled partial answer, not an error.
// The only 4xx is a malformed request (missing query parameters, a top that
// is not a positive integer).

// aggregatorSource is a fleet's aggregator as the tier's source.
type aggregatorSource struct{ *shard.Aggregator }

// globalItemJSON is the wire shape of one global maintenance-list row.
type globalItemJSON struct {
	Component         string    `json:"component"`
	Condition         string    `json:"condition"`
	Group             string    `json:"group,omitempty"`
	Belief            float64   `json:"belief"`
	Plausibility      float64   `json:"plausibility"`
	Unknown           float64   `json:"unknown"`
	Reports           int       `json:"reports"`
	Shard             string    `json:"shard,omitempty"`
	ShardState        string    `json:"shard_state,omitempty"`
	Reliability       float64   `json:"reliability"`
	Degraded          bool      `json:"degraded,omitempty"`
	TimeToHalfSeconds float64   `json:"time_to_half_seconds,omitempty"`
	HasPrognostic     bool      `json:"has_prognostic,omitempty"`
	UpdatedAt         time.Time `json:"updated_at,omitzero"`
}

func globalRow(it shard.GlobalItem) (*row, error) {
	key := pdme.RankKey{Belief: it.Belief, HasPrognostic: it.HasPrognostic,
		TimeToHalf: it.TimeToHalf, Component: it.Component, Condition: it.Condition}
	return newRow(key, it, globalItemJSON{
		Component:         it.Component,
		Condition:         it.Condition,
		Group:             it.Group,
		Belief:            it.Belief,
		Plausibility:      it.Plausibility,
		Unknown:           it.Unknown,
		Reports:           it.Reports,
		Shard:             it.Shard,
		ShardState:        it.ShardState,
		Reliability:       it.Reliability,
		Degraded:          it.Degraded,
		TimeToHalfSeconds: it.TimeToHalf.Seconds(),
		HasPrognostic:     it.HasPrognostic,
		UpdatedAt:         it.UpdatedAt,
	})
}

func (s aggregatorSource) read(key blockKey) *fused {
	items, factors := s.BlockRead(key.component, key.group)
	m := &fused{rows: make([]*row, len(items)), factors: factors}
	for i, it := range items {
		var err error
		if m.rows[i], err = globalRow(it); err != nil {
			return &fused{err: err}
		}
	}
	return m
}

func (s aggregatorSource) factors(dst []float64, key blockKey) []float64 {
	return s.AppendBlockFactors(dst, key.component, key.group)
}

func (s aggregatorSource) fresh() []*row {
	items := s.GlobalRanked()
	rows := make([]*row, 0, len(items))
	for _, it := range items {
		if r, err := globalRow(it); err == nil {
			rows = append(rows, r)
		}
	}
	return rows
}

// fleetAPI is the aggregator's read tier with the aggregator itself, which
// answers what the tier does not keep: coverage, and pairs nobody holds.
type fleetAPI struct {
	v *Views
	a *shard.Aggregator
}

// AggregatorHandler mounts the global read-side endpoints for an
// aggregator-mode PDME. It opens the aggregator's read tier and owns it: one
// handler per aggregator. A second panics with the aggregator's refusal, as
// http.ServeMux does on a pattern registered twice.
func AggregatorHandler(a *shard.Aggregator) http.Handler {
	v, err := open(aggregatorSource{a})
	if err != nil {
		panic(err)
	}
	return fleetAPI{v, a}.handler()
}

func (f fleetAPI) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /ranked", f.handleRanked)
	mux.HandleFunc("GET /belief", f.handleBelief)
	mux.HandleFunc("GET /coverage", f.handleCoverage)
	return mux
}

// coverage returns the coverage report and its JSON. An encoding failure is
// answered here with the one 5xx of this API — nothing a down shard causes.
func (f fleetAPI) coverage(w http.ResponseWriter) (shard.CoverageReport, []byte, bool) {
	cov := f.a.Coverage()
	wire, err := json.Marshal(cov)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
	}
	return cov, wire, err == nil
}

// handleRanked serves the global list, or with ?top=k its first k rows, as a
// per-response head — degraded, true when the coverage or any row of the
// whole list is, and the coverage report — then the rows' cached bytes: byte
// for byte what encoding/json makes of the same answer.
func (f fleetAPI) handleRanked(w http.ResponseWriter, r *http.Request) {
	top, ok := topParam(w, r)
	if !ok {
		return
	}
	cov, coverage, ok := f.coverage(w)
	if !ok {
		return
	}
	rows := f.v.Ranked().rows
	degraded := cov.Degraded
	for i := 0; i < len(rows) && !degraded; i++ {
		degraded = rows[i].item.(shard.GlobalItem).Degraded
	}
	head := strconv.AppendBool(append(make([]byte, 0, len(coverage)+48), `{"degraded":`...), degraded)
	head = append(append(head, `,"coverage":`...), coverage...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// Best-effort: the peer may hang up mid-body; nothing to recover.
	_ = writeRows(w, append(head, `,"items":[`...), rows[:min(top, len(rows))])
}

// pairObject returns the JSON object of one pair's global row: out of the
// pair's block when a shard has concluded on it, and otherwise — or when the
// pair left the block under this read — the aggregator's fresh answer (the
// vacuous row, covered false, for a pair nobody holds), which adopts no block.
func (f fleetAPI) pairObject(component, condition string) (object []byte, covered bool, err error) {
	if group, held := f.a.GroupOf(component, condition); held {
		for _, r := range f.v.block(blockKey{component, group}).mat.rows {
			if r.key.Condition == condition {
				return r.wire[1:], true, nil
			}
		}
	}
	it, covered := f.a.GlobalBelief(component, condition)
	r, err := globalRow(it)
	if err != nil {
		return nil, false, err
	}
	return r.wire[1:], covered, nil
}

// handleBelief serves one pair's row object with covered and the coverage
// report appended to it. Covered false means no shard has concluded on the
// pair — the numbers are the vacuous state, and the coverage block says which
// shards could still be hiding evidence.
func (f fleetAPI) handleBelief(w http.ResponseWriter, r *http.Request) {
	component, condition, ok := pairParams(w, r)
	if !ok {
		return
	}
	object, covered, err := f.pairObject(component, condition)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	_, coverage, ok := f.coverage(w)
	if !ok {
		return
	}
	body := append(make([]byte, 0, len(object)+len(coverage)+32), object[:len(object)-1]...)
	body = strconv.AppendBool(append(body, `,"covered":`...), covered)
	body = append(append(body, `,"coverage":`...), coverage...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// Best-effort: the peer may hang up mid-body; nothing to recover.
	_, _ = w.Write(append(body, "}\n"...))
}

func (f fleetAPI) handleCoverage(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, f.a.Coverage())
}

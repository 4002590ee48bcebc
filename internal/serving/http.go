package serving

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
)

// This file is the HTTP+JSON face of the tier: the endpoints cmd/pdmed
// mounts for dashboards and fleet tooling.
//
//	GET /ranked[?top=k]                          prioritized maintenance list (its first k rows)
//	GET /belief?component=&condition=            one pair's fused state
//	GET /trend?component=&condition=&threshold=  severity history + projection
//	GET /watch?component=                        streaming change notices (NDJSON)
//	GET /health                                  fleet-health snapshot
//	GET /stats                                   cache/subscription counters
//
// Every response is JSON. /watch streams one JSON object per line and
// flushes after each; all other endpoints answer and close.

// rowJSON is the wire shape of one maintenance-list row.
type rowJSON struct {
	Component         string  `json:"component"`
	Condition         string  `json:"condition"`
	Group             string  `json:"group"`
	Belief            float64 `json:"belief"`
	Plausibility      float64 `json:"plausibility"`
	Reports           int     `json:"reports"`
	Reliability       float64 `json:"reliability"`
	Degraded          bool    `json:"degraded,omitempty"`
	TimeToHalfSeconds float64 `json:"time_to_half_seconds,omitempty"`
	HasPrognostic     bool    `json:"has_prognostic,omitempty"`
}

// writeRows writes a ranked response — head, which ends with the opening of
// the items array, the rows' cached bytes, and the closing "]}" and newline:
// byte for byte what encoding/json makes of the same response, without
// encoding a row per response.
func writeRows(w io.Writer, head []byte, rows []*row) error {
	if _, err := w.Write(head); err != nil {
		return err
	}
	for i, r := range rows {
		wire := r.wire
		if i == 0 {
			wire = wire[1:] // the separating comma goes between rows
		}
		if _, err := w.Write(wire); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}

// writeRanked writes a station's ranked response — {"gen":…,"cached":…,
// "epoch":…,"items":[…]}, epoch omitted when zero. rows are the rows of rv to
// write.
func writeRanked(w io.Writer, rv RankedView, rows []*row) error {
	head := make([]byte, 0, 96)
	head = strconv.AppendUint(append(head, `{"gen":`...), rv.Gen, 10)
	head = strconv.AppendBool(append(head, `,"cached":`...), rv.Cached)
	if rv.Epoch != 0 {
		head = strconv.AppendUint(append(head, `,"epoch":`...), rv.Epoch, 10)
	}
	return writeRows(w, append(head, `,"items":[`...), rows)
}

// topParam reads a ranked request's ?top=k — how many rows to answer with,
// a prefix of the full response's items bit for bit; every row when absent.
// It answers 400 itself, and returns false, when k is not a positive integer.
func topParam(w http.ResponseWriter, r *http.Request) (int, bool) {
	raw := r.URL.Query().Get("top")
	if raw == "" {
		return math.MaxInt, true
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 1 {
		httpError(w, http.StatusBadRequest, "top must be a positive integer")
		return 0, false
	}
	return n, true
}

// watchEventJSON is one /watch stream line: the notice plus the affected
// pair's current view (read through the cache on emission).
type watchEventJSON struct {
	Notice Notice      `json:"notice"`
	View   *BeliefView `json:"view,omitempty"`
}

// NewHandler mounts the read-side endpoints on a fresh mux.
func NewHandler(v *Views) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /ranked", v.handleRanked)
	mux.HandleFunc("GET /belief", v.handleBelief)
	mux.HandleFunc("GET /trend", v.handleTrend)
	mux.HandleFunc("GET /watch", v.handleWatch)
	mux.HandleFunc("GET /health", v.handleHealth)
	mux.HandleFunc("GET /stats", v.handleStats)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Best-effort: the peer may hang up mid-body; nothing to recover.
	_ = json.NewEncoder(w).Encode(body)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// handleRanked serves the prioritized list, or with ?top=k its first k rows.
func (v *Views) handleRanked(w http.ResponseWriter, r *http.Request) {
	top, ok := topParam(w, r)
	if !ok {
		return
	}
	rv := v.Ranked()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// Best-effort: the peer may hang up mid-body; nothing to recover.
	_ = writeRanked(w, rv, rv.rows[:min(top, len(rv.rows))])
}

// pairParams extracts the component/condition query pair shared by /belief
// and /trend.
func pairParams(w http.ResponseWriter, r *http.Request) (component, condition string, ok bool) {
	q := r.URL.Query()
	component, condition = q.Get("component"), q.Get("condition")
	if component == "" || condition == "" {
		httpError(w, http.StatusBadRequest, "component and condition query parameters are required")
		return "", "", false
	}
	return component, condition, true
}

func (v *Views) handleBelief(w http.ResponseWriter, r *http.Request) {
	component, condition, ok := pairParams(w, r)
	if !ok {
		return
	}
	bv, err := v.Belief(component, condition)
	if err != nil {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, bv)
}

func (v *Views) handleTrend(w http.ResponseWriter, r *http.Request) {
	component, condition, ok := pairParams(w, r)
	if !ok {
		return
	}
	threshold := 0.75
	if raw := r.URL.Query().Get("threshold"); raw != "" {
		t, err := strconv.ParseFloat(raw, 64)
		if err != nil || t <= 0 || t > 1 {
			httpError(w, http.StatusBadRequest, "threshold must be a number in (0,1]")
			return
		}
		threshold = t
	}
	writeJSON(w, http.StatusOK, v.Trend(component, condition, threshold))
}

func (v *Views) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, v.src.Health().Snapshot())
}

func (v *Views) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, v.Stats())
}

// handleWatch streams change events as NDJSON until the client disconnects
// or the tier closes. Each event carries the notice and the affected pair's
// current cached view; drops under backpressure surface in notice.dropped.
func (v *Views) handleWatch(w http.ResponseWriter, r *http.Request) {
	component := r.URL.Query().Get("component")
	buf := 0
	if raw := r.URL.Query().Get("buffer"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 || n > 4096 {
			httpError(w, http.StatusBadRequest, "buffer must be an integer in [1,4096]")
			return
		}
		buf = n
	}
	flusher, canFlush := w.(http.Flusher)
	sub := v.Watch(component, buf)
	defer sub.Close()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	// Opening line: the current ranked view (filtered to the watched
	// component when one is named) so the consumer starts from a baseline
	// instead of waiting for the first change.
	rv := v.Ranked()
	rows := rv.rows
	if component != "" {
		rows = nil
		for _, r := range rv.rows {
			if r.key.Component == component {
				rows = append(rows, r)
			}
		}
	}
	if err := writeRanked(w, rv, rows); err != nil {
		return
	}
	if canFlush {
		flusher.Flush()
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case n, ok := <-sub.C:
			if !ok {
				return // tier closed
			}
			ev := watchEventJSON{Notice: n}
			if bv, err := v.Belief(n.Component, n.Condition); err == nil {
				ev.View = &bv
			}
			if err := enc.Encode(ev); err != nil {
				return // client hung up
			}
			if canFlush {
				flusher.Flush()
			}
		}
	}
}

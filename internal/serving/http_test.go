package serving

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/pdme"
)

// rankedItemJSON, rankedJSON and rankedToJSON are the reference encoder of a
// ranked response: the whole-list reflection encode the handler used before
// rows carried their own bytes. The handler's body must equal
// json.NewEncoder(w).Encode(rankedToJSON(…)) byte for byte.
type rankedItemJSON struct {
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

type rankedJSON struct {
	Gen    uint64           `json:"gen"`
	Cached bool             `json:"cached"`
	Epoch  uint64           `json:"epoch,omitempty"`
	Items  []rankedItemJSON `json:"items"`
}

func rankedToJSON(gen uint64, cached bool, epoch uint64, items []pdme.MaintenanceItem) rankedJSON {
	out := rankedJSON{Gen: gen, Cached: cached, Epoch: epoch, Items: make([]rankedItemJSON, len(items))}
	for i, it := range items {
		out.Items[i] = rankedItemJSON{
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
		}
	}
	return out
}

// referenceBody encodes items under the serve metadata of got, a body the
// handler wrote, the way the reference encoder would.
func referenceBody(t *testing.T, got []byte, items []pdme.MaintenanceItem) []byte {
	t.Helper()
	var head rankedJSON
	if err := json.Unmarshal(got, &head); err != nil {
		t.Fatalf("ranked body does not parse: %v\n%s", err, got)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(rankedToJSON(head.Gen, head.Cached, head.Epoch, items)); err != nil {
		t.Fatal(err)
	}
	return want.Bytes()
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, err %v", url, resp.StatusCode, err)
	}
	return body
}

func newTestServer(t *testing.T) (*httptest.Server, *Views) {
	t.Helper()
	engine := newTestEngine(t)
	v := openTestViews(t, engine)
	srv := httptest.NewServer(NewHandler(v))
	t.Cleanup(srv.Close)
	deliver(t, engine, report("dc-1", "m1", "imbalance", 0.8, base))
	deliver(t, engine, report("dc-1", "m1", "inner race fault", 0.6, base.Add(time.Minute)))
	return srv, v
}

func getJSON(t *testing.T, url string, wantStatus int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
}

func TestHTTPRanked(t *testing.T) {
	srv, v := newTestServer(t)
	var got rankedJSON
	getJSON(t, srv.URL+"/ranked", http.StatusOK, &got)
	if len(got.Items) != 2 {
		t.Fatalf("expected 2 ranked items, got %+v", got)
	}
	if got.Items[0].Belief < got.Items[1].Belief {
		t.Fatal("ranked items must be most-urgent-first")
	}
	if got.Items[0].Component != "m1" || got.Items[0].Group == "" {
		t.Fatalf("missing fields: %+v", got.Items[0])
	}
	// A repeat read serves the materialized view and says so.
	var again rankedJSON
	getJSON(t, srv.URL+"/ranked", http.StatusOK, &again)
	if !again.Cached || again.Epoch == 0 {
		t.Fatalf("second read should be a cache hit with an epoch, got %+v", again)
	}

	// ?top=k is the first k rows of the same order — a prefix of the full
	// body's items, bit for bit — and k must be a positive integer.
	deliver(t, v.Engine(), report("dc-1", "m2", "imbalance", 0.4, base.Add(2*time.Minute)))
	full := getBody(t, srv.URL+"/ranked")
	var all struct {
		Items []json.RawMessage `json:"items"`
	}
	if err := json.Unmarshal(full, &all); err != nil || len(all.Items) != 3 {
		t.Fatalf("full list: %d items, err %v", len(all.Items), err)
	}
	if want := referenceBody(t, full, v.Engine().PrioritizedList()); !bytes.Equal(full, want) {
		t.Fatalf("full body differs from the reference encoder\n got: %s\nwant: %s", full, want)
	}
	for k := 1; k <= 4; k++ {
		body := getBody(t, srv.URL+"/ranked?top="+string(rune('0'+k)))
		items := v.Engine().PrioritizedList()
		if k < len(items) {
			items = items[:k]
		}
		if want := referenceBody(t, body, items); !bytes.Equal(body, want) {
			t.Fatalf("top=%d body is not the reference encoding of the first rows\n got: %s\nwant: %s", k, body, want)
		}
		var top struct {
			Items []json.RawMessage `json:"items"`
		}
		if err := json.Unmarshal(body, &top); err != nil {
			t.Fatal(err)
		}
		for i, it := range top.Items {
			if !bytes.Equal(it, all.Items[i]) {
				t.Fatalf("top=%d item %d is not the full list's, bit for bit:\n got: %s\nwant: %s", k, i, it, all.Items[i])
			}
		}
	}
	for _, bad := range []string{"0", "-1", "1.5", "x", "+"} {
		getJSON(t, srv.URL+"/ranked?top="+bad, http.StatusBadRequest, nil)
	}
}

func TestHTTPBelief(t *testing.T) {
	srv, _ := newTestServer(t)
	var bv BeliefView
	getJSON(t, srv.URL+"/belief?component=m1&condition=imbalance", http.StatusOK, &bv)
	if bv.Component != "m1" || bv.Condition != "imbalance" || bv.Belief <= 0 {
		t.Fatalf("unexpected belief view: %+v", bv)
	}
	if bv.Unknown <= 0 || bv.Unknown >= 1 {
		t.Fatalf("expected residual unknown mass in (0,1), got %g", bv.Unknown)
	}
	getJSON(t, srv.URL+"/belief?component=m1", http.StatusBadRequest, nil)
	getJSON(t, srv.URL+"/belief?component=m1&condition=nope", http.StatusNotFound, nil)
}

func TestHTTPTrend(t *testing.T) {
	srv, _ := newTestServer(t)
	var tv TrendView
	getJSON(t, srv.URL+"/trend?component=m1&condition=imbalance", http.StatusOK, &tv)
	if len(tv.History) != 1 || tv.Threshold != 0.75 {
		t.Fatalf("unexpected trend view: %+v", tv)
	}
	getJSON(t, srv.URL+"/trend?component=m1&condition=imbalance&threshold=0.5", http.StatusOK, &tv)
	if tv.Threshold != 0.5 {
		t.Fatalf("threshold not applied: %+v", tv)
	}
	getJSON(t, srv.URL+"/trend?component=m1&condition=imbalance&threshold=2", http.StatusBadRequest, nil)
	getJSON(t, srv.URL+"/trend?condition=imbalance", http.StatusBadRequest, nil)
}

func TestHTTPHealthAndStats(t *testing.T) {
	srv, v := newTestServer(t)
	getJSON(t, srv.URL+"/ranked", http.StatusOK, new(rankedJSON))
	getJSON(t, srv.URL+"/ranked", http.StatusOK, new(rankedJSON))
	var st Stats
	getJSON(t, srv.URL+"/stats", http.StatusOK, &st)
	if st.Hits == 0 || st != v.Stats() {
		t.Fatalf("stats endpoint out of sync: %+v vs %+v", st, v.Stats())
	}
	getJSON(t, srv.URL+"/health", http.StatusOK, new([]map[string]any))
	// Non-GET methods are rejected by the method-scoped mux patterns.
	resp, err := http.Post(srv.URL+"/ranked", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /ranked: status %d, want 405", resp.StatusCode)
	}
}

func TestHTTPWatchStream(t *testing.T) {
	srv, v := newTestServer(t)
	engine := v.Engine()

	resp, err := http.Get(srv.URL + "/watch?component=m1&buffer=8")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("unexpected content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)

	// First line is the baseline ranked view filtered to m1.
	if !sc.Scan() {
		t.Fatalf("no baseline line: %v", sc.Err())
	}
	var baseline rankedJSON
	if err := json.Unmarshal(sc.Bytes(), &baseline); err != nil {
		t.Fatal(err)
	}
	if len(baseline.Items) != 2 {
		t.Fatalf("baseline should carry m1's 2 items, got %+v", baseline)
	}

	// A delivery for the watched component streams an event with the fresh
	// view attached.
	deliver(t, engine, report("dc-2", "m1", "imbalance", 0.9, base.Add(time.Hour)))
	if !sc.Scan() {
		t.Fatalf("no event line: %v", sc.Err())
	}
	var ev watchEventJSON
	if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Notice.Component != "m1" || ev.Notice.Condition != "imbalance" {
		t.Fatalf("unexpected notice: %+v", ev.Notice)
	}
	if ev.View == nil || ev.View.Reports != 2 {
		t.Fatalf("event should carry the updated view, got %+v", ev.View)
	}

	// Closing the tier ends the stream.
	v.Close()
	for sc.Scan() {
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream should end cleanly, got %v", err)
	}
}

func TestHTTPWatchBadBuffer(t *testing.T) {
	srv, _ := newTestServer(t)
	getJSON(t, srv.URL+"/watch?buffer=0", http.StatusBadRequest, nil)
	getJSON(t, srv.URL+"/watch?buffer=9999", http.StatusBadRequest, nil)
}

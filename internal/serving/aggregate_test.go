package serving

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/shard"
)

// globalRankedJSON, globalBeliefJSON and the two functions below are the
// reference encoder of the aggregator's responses: the whole-answer reflection
// encode the handlers made per request before rows carried their own bytes.
// A handler's body must equal it byte for byte.
type globalRankedJSON struct {
	Degraded bool                 `json:"degraded"`
	Coverage shard.CoverageReport `json:"coverage"`
	Items    []globalItemJSON     `json:"items"`
}

type globalBeliefJSON struct {
	globalItemJSON
	Covered  bool                 `json:"covered"`
	Coverage shard.CoverageReport `json:"coverage"`
}

func globalItemToJSON(it shard.GlobalItem) globalItemJSON {
	return globalItemJSON{
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
	}
}

func encodeReference(t *testing.T, body any) []byte {
	t.Helper()
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(body); err != nil {
		t.Fatal(err)
	}
	return want.Bytes()
}

// referenceGlobalRanked is the /ranked body for the aggregator's state right
// now, from its fresh reads.
func referenceGlobalRanked(t *testing.T, a *shard.Aggregator) []byte {
	t.Helper()
	cov, items := a.Coverage(), a.GlobalRanked()
	out := globalRankedJSON{Degraded: cov.Degraded, Coverage: cov, Items: make([]globalItemJSON, len(items))}
	for i, it := range items {
		out.Items[i] = globalItemToJSON(it)
		out.Degraded = out.Degraded || it.Degraded
	}
	return encodeReference(t, out)
}

// referenceGlobalBelief is the /belief body for one pair right now.
func referenceGlobalBelief(t *testing.T, a *shard.Aggregator, component, condition string) []byte {
	t.Helper()
	item, covered := a.GlobalBelief(component, condition)
	return encodeReference(t, globalBeliefJSON{globalItemToJSON(item), covered, a.Coverage()})
}

// serve answers one GET through a handler.
func serve(t *testing.T, h http.Handler, url string, wantStatus int) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	if rec.Code != wantStatus {
		t.Fatalf("GET %s: status %d, want %d: %s", url, rec.Code, wantStatus, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// globalItems is a ranked view of an aggregator's tier as the aggregator's
// own rows.
func globalItems(rv RankedView) []shard.GlobalItem {
	var items []shard.GlobalItem
	for _, r := range rv.rows {
		items = append(items, r.item.(shard.GlobalItem))
	}
	return items
}

func testSummary(shardID, component, condition string, belief float64, at time.Time) *proto.FusedSummary {
	return &proto.FusedSummary{
		ShardID:      shardID,
		Component:    component,
		Condition:    condition,
		Group:        "bearing",
		Belief:       belief,
		Plausibility: belief + 0.1,
		Unknown:      1 - belief,
		Reports:      1,
		Reliability:  1,
		UpdatedAt:    at,
	}
}

// TestAggregatorHandlerPartialNeverErrors: the fleet endpoints answer 200
// with coverage metadata even when shards are missing or the pair is
// unknown — partial results with labels, never 5xx.
func TestAggregatorHandlerPartialNeverErrors(t *testing.T) {
	agg, err := shard.NewAggregator(shard.AggregatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC)
	if err := agg.DeliverSummary(testSummary("shard-1", "m1", "outer race fault", 0.8, at), "shard-1", 1, 1); err != nil {
		t.Fatal(err)
	}
	// shard-2's evidence advances event time far past shard-1's horizon:
	// shard-1 is now silent and discounted.
	if err := agg.DeliverSummary(testSummary("shard-2", "m2", "imbalance", 0.5, at.Add(48*time.Hour)), "shard-2", 1, 1); err != nil {
		t.Fatal(err)
	}
	h := AggregatorHandler(agg)

	// /ranked: both rows, shard-1's degraded, response labeled degraded.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/ranked", nil))
	if rec.Code != 200 {
		t.Fatalf("/ranked status %d", rec.Code)
	}
	var ranked struct {
		Degraded bool `json:"degraded"`
		Coverage struct {
			ShardsTotal int  `json:"shards_total"`
			ShardsLive  int  `json:"shards_live"`
			Degraded    bool `json:"degraded"`
		} `json:"coverage"`
		Items []struct {
			Component  string  `json:"component"`
			Shard      string  `json:"shard"`
			ShardState string  `json:"shard_state"`
			Degraded   bool    `json:"degraded"`
			Unknown    float64 `json:"unknown"`
		} `json:"items"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ranked); err != nil {
		t.Fatal(err)
	}
	if len(ranked.Items) != 2 || !ranked.Degraded || !ranked.Coverage.Degraded {
		t.Fatalf("/ranked: %+v", ranked)
	}
	if ranked.Coverage.ShardsTotal != 2 {
		t.Fatalf("coverage shards: %+v", ranked.Coverage)
	}
	for _, it := range ranked.Items {
		if it.Shard == "shard-1" && (!it.Degraded || it.ShardState == "alive") {
			t.Fatalf("silent shard's row not degraded: %+v", it)
		}
	}

	// /belief on a pair nobody concluded on: 200, covered=false, vacuous.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/belief?component=m9&condition=imbalance", nil))
	if rec.Code != 200 {
		t.Fatalf("/belief unknown pair status %d", rec.Code)
	}
	var belief struct {
		Covered bool    `json:"covered"`
		Unknown float64 `json:"unknown"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &belief); err != nil {
		t.Fatal(err)
	}
	if belief.Covered || belief.Unknown != 1 {
		t.Fatalf("/belief unknown pair: %+v", belief)
	}
	// The vacuous row was updated by nobody: no zero time on the wire.
	if bytes.Contains(rec.Body.Bytes(), []byte(`"updated_at"`)) {
		t.Fatalf("/belief unknown pair prints a zero updated_at: %s", rec.Body.Bytes())
	}

	// Malformed request is the only 4xx.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/belief?component=m1", nil))
	if rec.Code != 400 {
		t.Fatalf("/belief missing condition status %d", rec.Code)
	}

	// /coverage standalone.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/coverage", nil))
	if rec.Code != 200 {
		t.Fatalf("/coverage status %d", rec.Code)
	}

	// A ring member not yet heard from is listed without a zero last_updated;
	// the shards that have reported keep theirs.
	ring, err := shard.NewRing([]shard.Member{{ID: "shard-1"}, {ID: "shard-2"}, {ID: "shard-3"}}, []string{"m1", "m2"})
	if err != nil {
		t.Fatal(err)
	}
	agg.SetRing(ring)
	var cov struct {
		Shards []map[string]any `json:"shards"`
	}
	if err := json.Unmarshal(serve(t, h, "/coverage", 200), &cov); err != nil {
		t.Fatal(err)
	}
	if len(cov.Shards) != 3 {
		t.Fatalf("/coverage lists %d shards, want 3: %+v", len(cov.Shards), cov)
	}
	for _, sc := range cov.Shards {
		if _, printed := sc["last_updated"]; printed != (sc["id"] != "shard-3") {
			t.Fatalf("/coverage shard entry %+v: last_updated printed = %v", sc, printed)
		}
	}
}

// TestAggregatorHandlerTopAndBytes: every body is the reference encoder's,
// ?top=k answers a prefix of the full response's items bit for bit under the
// full response's head, and a k that is not a positive integer is the 400.
func TestAggregatorHandlerTopAndBytes(t *testing.T) {
	agg, err := shard.NewAggregator(shard.AggregatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 9; i++ {
		s := testSummary(fmt.Sprintf("shard-%d", i%2+1), fmt.Sprintf("m%d", i%4), []string{"outer race fault", "inner race fault", "imbalance"}[i%3],
			0.1*float64(i+1), at.Add(time.Duration(i)*time.Hour))
		if i%2 == 0 {
			s.Prognostics = proto.PrognosticVector{{Probability: 0.4, HorizonSeconds: 3600}, {Probability: 0.9, HorizonSeconds: 7200 * float64(i+1)}}
		}
		if err := agg.DeliverSummary(s, s.ShardID, 1, uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	h := AggregatorHandler(agg)
	for pass := 0; pass < 2; pass++ { // the read that materializes, then a hit
		full := serve(t, h, "/ranked", 200)
		if want := referenceGlobalRanked(t, agg); !bytes.Equal(full, want) {
			t.Fatalf("pass %d: /ranked diverged from the reference encoding\n got: %s\nwant: %s", pass, full, want)
		}
		got := serve(t, h, "/belief?component=m1&condition=inner+race+fault", 200)
		if want := referenceGlobalBelief(t, agg, "m1", "inner race fault"); !bytes.Equal(got, want) {
			t.Fatalf("pass %d: /belief diverged from the reference encoding\n got: %s\nwant: %s", pass, got, want)
		}
		got = serve(t, h, "/belief?component=m9&condition=imbalance", 200)
		if want := referenceGlobalBelief(t, agg, "m9", "imbalance"); !bytes.Equal(got, want) {
			t.Fatalf("pass %d: vacuous /belief diverged from the reference encoding\n got: %s\nwant: %s", pass, got, want)
		}
		if got, want := serve(t, h, "/coverage", 200), encodeReference(t, agg.Coverage()); !bytes.Equal(got, want) {
			t.Fatalf("pass %d: /coverage diverged\n got: %s\nwant: %s", pass, got, want)
		}
	}
	full := serve(t, h, "/ranked", 200)
	var whole struct {
		Items []json.RawMessage `json:"items"`
	}
	if err := json.Unmarshal(full, &whole); err != nil || len(whole.Items) != 9 {
		t.Fatalf("/ranked: %d items (%v), want 9", len(whole.Items), err)
	}
	open := bytes.Index(full, []byte(`"items":[`)) + len(`"items":[`)
	for _, k := range []int{1, 4, 9, 100} {
		want := append([]byte(nil), full[:open]...)
		for i, item := range whole.Items[:min(k, 9)] {
			if i > 0 {
				want = append(want, ',')
			}
			want = append(want, item...)
		}
		want = append(want, "]}\n"...)
		if got := serve(t, h, fmt.Sprintf("/ranked?top=%d", k), 200); !bytes.Equal(got, want) {
			t.Fatalf("/ranked?top=%d is not the full response cut after %d items\n got: %s\nwant: %s", k, k, got, want)
		}
	}
	for _, bad := range []string{"0", "-3", "abc", "1.5"} {
		serve(t, h, "/ranked?top="+bad, 400)
	}
}

// TestAggregatorRankedHitAllocsPerResponseNotPerRow is
// TestRankedHitAllocsPerResponseNotPerRow for the aggregator's handler: a hit
// copies the rows' cached bytes under a head that costs the shards, so what
// it allocates is the same small constant at 16 rows and at 768.
func TestAggregatorRankedHitAllocsPerResponseNotPerRow(t *testing.T) {
	hitAllocs := func(machines int) (allocs float64, rows int) {
		agg, err := shard.NewAggregator(shard.AggregatorConfig{})
		if err != nil {
			t.Fatal(err)
		}
		at := time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC)
		for i := 0; i < machines; i++ {
			for _, cond := range []string{"inner race fault", "imbalance"} {
				s := testSummary(fmt.Sprintf("shard-%d", i%2+1), fmt.Sprintf("machine-%03d", i), cond, 0.6, at.Add(time.Duration(i)*time.Second))
				if err := agg.DeliverSummary(s, s.ShardID, 1, uint64(2*i+1)); err != nil {
					t.Fatal(err)
				}
			}
		}
		f := openFleetAPI(t, agg)
		handler := f.handler()
		req := httptest.NewRequest(http.MethodGet, "/ranked", nil)
		w := &reusableWriter{header: http.Header{}}
		handler.ServeHTTP(w, req) // the miss that materializes, and sizes the buffer
		before := f.v.Stats()
		// The best of several single runs: the coverage head goes through
		// encoding/json's pooled encoder state, and the race detector makes
		// sync.Pool drop puts at random.
		allocs = math.Inf(1)
		for try := 0; try < 32; try++ {
			allocs = min(allocs, testing.AllocsPerRun(1, func() {
				w.body.Reset()
				handler.ServeHTTP(w, req)
			}))
		}
		if after := f.v.Stats(); after.Misses != before.Misses || after.Hits == before.Hits {
			t.Fatalf("measured responses were not hits: %+v then %+v", before, after)
		}
		if want := referenceGlobalRanked(t, agg); !bytes.Equal(w.body.Bytes(), want) {
			t.Fatalf("a hit's body diverged from the reference encoding: %.120s", w.body.Bytes())
		}
		return allocs, len(f.v.Ranked().rows)
	}
	small, n := hitAllocs(8)
	large, m := hitAllocs(384)
	if n != 16 || m != 768 {
		t.Fatalf("fixtures rank %d and %d rows, want 16 and 768", n, m)
	}
	if small != large || large > 16 {
		t.Fatalf("a /ranked hit allocates %.0f times at %d rows and %.0f at %d; want the same small constant", small, n, large, m)
	}
}

// TestRecheckedRankingAllocsPerRefreshNotPerBlock: a health observation that
// changes no factor makes the next /ranked ask every block's factors again;
// they are asked into buffers the tier keeps, so what that refresh allocates
// is the same at 8 blocks and at 256.
func TestRecheckedRankingAllocsPerRefreshNotPerBlock(t *testing.T) {
	recheckAllocs := func(machines int) float64 {
		agg, err := shard.NewAggregator(shard.AggregatorConfig{})
		if err != nil {
			t.Fatal(err)
		}
		at := time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC)
		for i := 0; i < machines; i++ {
			s := testSummary(fmt.Sprintf("shard-%d", i%2+1), fmt.Sprintf("machine-%03d", i), "imbalance", 0.6, at.Add(time.Duration(i)*time.Second))
			if err := agg.DeliverSummary(s, s.ShardID, 1, uint64(i+1)); err != nil {
				t.Fatal(err)
			}
		}
		v := openFleetAPI(t, agg).v
		v.Ranked() // materializes every block
		before := v.Stats()
		allocs := testing.AllocsPerRun(50, func() {
			// Evidence older than what the registry holds moves its version
			// and nothing else.
			agg.Health().ObserveReport("shard-1", "", at)
			if rv := v.Ranked(); !rv.Cached {
				t.Fatal("a re-ask whose factors held fused a block")
			}
		})
		if after := v.Stats(); after.Stores != before.Stores || after.Misses != before.Misses {
			t.Fatalf("re-asks stored or missed: %+v then %+v", before, after)
		}
		return allocs
	}
	small, large := recheckAllocs(8), recheckAllocs(256)
	t.Logf("%.0f allocations per re-asked /ranked at 8 blocks, %.0f at 256", small, large)
	if small != large {
		t.Fatalf("a re-asked /ranked allocates %.0f times at 8 blocks and %.0f at 256; want the same", small, large)
	}
}

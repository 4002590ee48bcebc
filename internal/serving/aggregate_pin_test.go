package serving

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"net/url"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/shard"
	"repro/internal/testkit"
)

// TestAggregatorBodiesPinned drives a seeded schedule of summaries into an
// aggregator behind AggregatorHandler — two shards, replacements, stale and
// replayed frames, pairs handed between shards, a pair whose summary moves it
// to another failure group, and shard-2 going silent while shard-1 runs on —
// and holds every /ranked and /belief body to the reference encoder of the
// aggregator's fresh reads at that instant, and the SHA-256 of all of them,
// in order, to testdata/aggregator_bodies.sha256: the reference encoder
// reads the same aggregator, so only the digest shows a change to its reads.
func TestAggregatorBodiesPinned(t *testing.T) {
	ring, err := shard.NewRing([]shard.Member{{ID: "shard-1"}, {ID: "shard-2"}}, []string{"m0", "m1", "m2", "m3", "m4"})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := shard.NewAggregator(shard.AggregatorConfig{Ring: ring})
	if err != nil {
		t.Fatal(err)
	}
	h := AggregatorHandler(agg)
	digest := sha256.New()
	bodies := 0
	check := func(step int, path string, want []byte) {
		t.Helper()
		got := serve(t, h, path, 200)
		if !bytes.Equal(got, want) {
			t.Fatalf("step %d: GET %s diverged from the reference encoding\n got: %s\nwant: %s", step, path, got, want)
		}
		digest.Write(got)
		bodies++
	}

	type pair struct{ component, condition string }
	groups := map[string]string{
		"outer race fault": "bearing", "inner race fault": "bearing",
		"imbalance": "balance", "misalignment": "balance", "oil whirl": "lubrication",
	}
	conditions := []string{"outer race fault", "inner race fault", "imbalance", "misalignment", "oil whirl"}
	rng := rand.New(rand.NewPCG(61, 2))
	start := time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC)
	clock := map[string]time.Time{"shard-1": start, "shard-2": start}
	seq := map[string]uint64{}
	held := map[pair]*proto.FusedSummary{}
	var heldPairs []pair
	const steps, silentFrom = 360, 220
	moves, handoffs := 0, 0
	for step := range steps {
		kind := ""
		id := "shard-1"
		if step < silentFrom && rng.IntN(2) == 1 {
			id = "shard-2"
		}
		p := pair{fmt.Sprintf("m%d", rng.IntN(5)), conditions[rng.IntN(len(conditions))]}
		clock[id] = clock[id].Add(time.Duration(1+rng.IntN(40)) * time.Minute)
		if step >= silentFrom {
			clock[id] = clock[id].Add(time.Duration(rng.IntN(3)) * time.Hour)
		}
		belief := float64(rng.IntN(1000)) / 1000
		s := &proto.FusedSummary{
			ShardID: id, Component: p.component, Condition: p.condition, Group: groups[p.condition],
			Belief: belief, Plausibility: belief + (1-belief)*float64(rng.IntN(100))/100,
			Unknown: float64(rng.IntN(100)) / 100, Reports: rng.IntN(9), Reliability: 1 - float64(rng.IntN(4))/8,
			Degraded: rng.IntN(6) == 0, UpdatedAt: clock[id],
		}
		if rng.IntN(3) == 0 {
			s.Prognostics = proto.PrognosticVector{{Probability: 0.2, HorizonSeconds: float64(1 + rng.IntN(90*86400))},
				{Probability: 0.5 + float64(rng.IntN(50))/100, HorizonSeconds: 90*86400 + float64(rng.IntN(90*86400))}}
		}
		switch r := rng.IntN(10); {
		case r == 0 && step > 20:
			// A stale frame: older than what the aggregator holds for the pair.
			s.UpdatedAt = start.Add(time.Duration(rng.IntN(60)) * time.Minute)
		case r == 1 && len(heldPairs) > 0:
			// A replacement that names another group: the pair leaves its block.
			p = heldPairs[rng.IntN(len(heldPairs))]
			s.Component, s.Condition = p.component, p.condition
			s.Group = "moved-" + groups[p.condition]
			if old := held[p]; old.Group == s.Group {
				s.Group = groups[p.condition]
			}
			kind = "move"
		case r == 2 && len(heldPairs) > 0:
			// A replay of a held pair's summary at the same event time, from
			// the shard that sent it or (a failover hand-off) the other one.
			p = heldPairs[rng.IntN(len(heldPairs))]
			replay := *held[p]
			if step < silentFrom && rng.IntN(2) == 0 {
				replay.ShardID = map[string]string{"shard-1": "shard-2", "shard-2": "shard-1"}[replay.ShardID]
				kind = "handoff"
			}
			s = &replay
		}
		seq[s.ShardID]++
		accepted := agg.Accepted()
		if err := agg.DeliverSummary(s, s.ShardID, 1, seq[s.ShardID]); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if agg.Accepted() > accepted {
			switch kind {
			case "move":
				moves++
			case "handoff":
				handoffs++
			}
		}
		if old, ok := held[pair{s.Component, s.Condition}]; !ok || !old.UpdatedAt.After(s.UpdatedAt) {
			if !ok {
				heldPairs = append(heldPairs, pair{s.Component, s.Condition})
			}
			held[pair{s.Component, s.Condition}] = s
		}
		if step%3 != 0 {
			continue
		}
		check(step, "/ranked", referenceGlobalRanked(t, agg))
		for range 2 {
			q := pair{fmt.Sprintf("m%d", rng.IntN(6)), conditions[rng.IntN(len(conditions))]}
			path := "/belief?component=" + url.QueryEscape(q.component) + "&condition=" + url.QueryEscape(q.condition)
			check(step, path, referenceGlobalBelief(t, agg, q.component, q.condition))
		}
	}
	cov := agg.Coverage()
	if cov.ShardsLive != 1 || agg.StaleDropped() == 0 || cov.HeldPairs < 20 || moves == 0 || handoffs == 0 {
		t.Fatalf("schedule did not reach its cases: coverage %+v, stale %d, group moves %d, hand-offs %d",
			cov, agg.StaleDropped(), moves, handoffs)
	}
	t.Logf("%d bodies; %d pairs held, %d stale, %d group moves, %d hand-offs", bodies, cov.HeldPairs, agg.StaleDropped(), moves, handoffs)
	testkit.Lines(t, "testdata/aggregator_bodies.sha256", []string{hex.EncodeToString(digest.Sum(nil))})
}

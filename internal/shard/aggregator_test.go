package shard

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/proto"
)

// blockFixture is an aggregator holding 24 pairs over 4 components and two
// groups, owned by two shards.
func blockFixture(t *testing.T) *Aggregator {
	t.Helper()
	a, err := NewAggregator(AggregatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	conditions := map[string]string{"inner race fault": "bearing", "outer race fault": "bearing", "cage wear": "bearing",
		"imbalance": "motor", "misalignment": "motor", "soft foot": "motor"}
	seq := uint64(0)
	for c := range 4 {
		for condition, group := range conditions {
			seq++
			shardID := fmt.Sprintf("shard-%d", seq%2+1)
			s := &proto.FusedSummary{ShardID: shardID, Component: fmt.Sprintf("m%d", c), Condition: condition, Group: group,
				Belief: 0.5, Plausibility: 0.75, Unknown: 0.25, Reports: 1, Reliability: 1,
				UpdatedAt: base.Add(time.Duration(seq) * time.Hour)}
			if err := a.DeliverSummary(s, shardID, 1, seq); err != nil {
				t.Fatal(err)
			}
		}
	}
	return a
}

// TestBlockFactorsAllocatesNothing: asking a block's factors into a warm
// buffer allocates nothing, and asks what BlockRead is built under.
func TestBlockFactorsAllocatesNothing(t *testing.T) {
	a := blockFixture(t)
	_, want := a.BlockRead("m2", "motor")
	buf := a.AppendBlockFactors(nil, "m2", "motor")
	if len(want) != 6 || !reflect.DeepEqual(buf, want) {
		t.Fatalf("AppendBlockFactors %v, BlockRead's factors %v", buf, want)
	}
	allocs := testing.AllocsPerRun(200, func() {
		buf = a.AppendBlockFactors(buf[:0], "m2", "motor")
	})
	if allocs != 0 {
		t.Fatalf("AppendBlockFactors allocates %.1f times into a warm buffer, want 0", allocs)
	}
	if got := a.AppendBlockFactors(buf[:0], "m9", "motor"); len(got) != 0 {
		t.Fatalf("a block nobody holds has factors %v", got)
	}
}

// TestReplacedSummaryAllocatesNothing: a newer summary for a held pair, in
// the same group, is written over the held one and allocates nothing.
func TestReplacedSummaryAllocatesNothing(t *testing.T) {
	a := blockFixture(t)
	s := &proto.FusedSummary{ShardID: "shard-1", Component: "m1", Condition: "imbalance", Group: "motor",
		Belief: 0.6, Plausibility: 0.8, Unknown: 0.2, Reports: 3, Reliability: 1,
		Prognostics: proto.PrognosticVector{{Probability: 0.2, HorizonSeconds: 86400}, {Probability: 0.7, HorizonSeconds: 864000}}}
	at, seq := base.Add(100*time.Hour), uint64(100)
	before := a.Accepted()
	allocs := testing.AllocsPerRun(200, func() {
		at, seq = at.Add(time.Minute), seq+1
		s.UpdatedAt = at
		if err := a.DeliverSummary(s, "shard-1", 1, seq); err != nil {
			t.Fatal(err)
		}
	})
	if got := a.Accepted() - before; got != 201 {
		t.Fatalf("%d replacements accepted, want 201", got)
	}
	if allocs != 0 {
		t.Fatalf("a replacement allocates %.1f times, want 0", allocs)
	}
	if it, ok := a.GlobalBelief("m1", "imbalance"); !ok || it.Shard != "shard-1" || !it.UpdatedAt.Equal(at) || !it.HasPrognostic {
		t.Fatalf("held row after the replacements: %+v", it)
	}
}

// TestAggregatorIndexIsTheWalk: over a seeded schedule of summaries — new
// pairs, replacements, hand-offs and group moves — the block index answers as
// a walk over every held pair does: GlobalRanked holds one row per pair, of
// its newest summary; Blocks lists exactly the (component, group) pairs held,
// each BlockRead is that block's rows in condition order, together they are
// GlobalRanked's rows, and GroupOf names each pair's block.
func TestAggregatorIndexIsTheWalk(t *testing.T) {
	a, err := NewAggregator(AggregatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(61))
	groups := []string{"bearing", "motor", "lube"}
	// model is the newest summary per pair by the acceptance order: event
	// time, then the larger shard id, then the later sequence.
	model := map[[2]string]*proto.FusedSummary{}
	for step := range 600 {
		shardID := fmt.Sprintf("shard-%d", rng.Intn(3))
		s := &proto.FusedSummary{ShardID: shardID, Component: fmt.Sprintf("m%d", rng.Intn(5)),
			Condition: fmt.Sprintf("c%d", rng.Intn(6)), Group: groups[rng.Intn(len(groups))],
			Belief: float64(rng.Intn(8)) / 8, Plausibility: 1, Unknown: 0.5, Reliability: 1,
			UpdatedAt: base.Add(time.Duration(rng.Intn(step+1)) * time.Minute)}
		if err := a.DeliverSummary(s, shardID, 1, uint64(step+1)); err != nil {
			t.Fatal(err)
		}
		pair := [2]string{s.Component, s.Condition}
		if cur := model[pair]; cur == nil || s.UpdatedAt.After(cur.UpdatedAt) ||
			s.UpdatedAt.Equal(cur.UpdatedAt) && s.ShardID >= cur.ShardID {
			model[pair] = s
		}
		if step%50 != 49 {
			continue
		}
		ranked := a.GlobalRanked()
		if len(ranked) != len(model) {
			t.Fatalf("step %d: %d rows, %d pairs held", step, len(ranked), len(model))
		}
		want := map[[2]string][]GlobalItem{}
		for _, it := range ranked {
			if m := model[[2]string{it.Component, it.Condition}]; m == nil || m.Group != it.Group ||
				m.ShardID != it.Shard || !m.UpdatedAt.Equal(it.UpdatedAt) {
				t.Fatalf("step %d: row %+v, newest summary %+v", step, it, m)
			}
			key := [2]string{it.Component, it.Group}
			want[key] = append(want[key], it)
			if g, ok := a.GroupOf(it.Component, it.Condition); !ok || g != it.Group {
				t.Fatalf("step %d: GroupOf(%s, %s) = %q, %v; row's group %q", step, it.Component, it.Condition, g, ok, it.Group)
			}
		}
		var keys [][2]string
		for key, items := range want {
			keys = append(keys, key)
			sort.Slice(items, func(i, j int) bool { return items[i].Condition < items[j].Condition })
		}
		slices.SortFunc(keys, func(x, y [2]string) int {
			return cmp.Or(strings.Compare(x[0], y[0]), strings.Compare(x[1], y[1]))
		})
		if blocks := a.Blocks(); !reflect.DeepEqual(blocks, keys) {
			t.Fatalf("step %d: Blocks %v, held %v", step, blocks, keys)
		}
		for _, key := range keys {
			items, factors := a.BlockRead(key[0], key[1])
			if !reflect.DeepEqual(items, want[key]) || len(factors) != 2*len(items) {
				t.Fatalf("step %d: BlockRead%v = %+v, want %+v", step, key, items, want[key])
			}
		}
	}
}

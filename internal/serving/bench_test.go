package serving

import (
	"testing"
	"time"

	"repro/internal/oosm"
	"repro/internal/pdme"
	"repro/internal/proto"
	"repro/internal/relstore"
)

func benchEngine(b *testing.B, components int) *pdme.PDME {
	b.Helper()
	model, err := oosm.NewModel(relstore.NewMemory())
	if err != nil {
		b.Fatal(err)
	}
	engine, err := pdme.New(model, testGroups())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(engine.Close)
	for i := 0; i < components; i++ {
		comp := string(rune('a' + i%26))
		for _, cond := range []string{"inner race fault", "imbalance"} {
			if err := engine.Deliver(&proto.Report{
				DCID:               "dc-bench",
				KnowledgeSourceID:  "ks-bench",
				SensedObjectID:     "machine-" + comp,
				MachineConditionID: cond,
				Severity:           0.5,
				Belief:             0.6,
				Timestamp:          base.Add(time.Duration(i) * time.Minute),
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	return engine
}

// BenchmarkRankedCachedParallel is the serving-tier hot path under parallel
// readers of one materialized order — the one thing here no bench/ probe
// times (pdme.prioritized_list_us, serving.views_ranked_cached_ns,
// serving.views_ranked_fresh_us and serving.http_belief_us cover the
// single-reader calls).
func BenchmarkRankedCachedParallel(b *testing.B) {
	engine := benchEngine(b, 16)
	v, err := Open(engine, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(v.Close)
	v.Ranked()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if rv := v.Ranked(); len(rv.rows) == 0 {
				b.Fatal("empty view")
			}
		}
	})
}

package pdme_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fusion"
	"repro/internal/oosm"
	"repro/internal/pdme"
	"repro/internal/proto"
	"repro/internal/relstore"
	"repro/internal/shard"
)

// askCounter is a fusion.Discounter that counts how often it is asked: a
// fused read of a one-source block asks once.
type askCounter struct{ asked atomic.Int64 }

func (c *askCounter) Reliability(string, time.Time) float64 {
	c.asked.Add(1)
	return 1
}

// TestOneFusePerAcceptedReport pins the pass count: accepting a report into a
// one-source block fuses the block once at a station — the fold that takes
// the report in yields the conclusion that is posted — and once more with a
// forwarder attached, for the summary's snapshot.
func TestOneFusePerAcceptedReport(t *testing.T) {
	at := time.Date(1998, 9, 1, 12, 0, 0, 0, time.UTC)
	for _, tc := range []struct {
		name      string
		forwarder bool
		want      int64
	}{{"station", false, 1}, {"shard", true, 2}} {
		t.Run(tc.name, func(t *testing.T) {
			model, err := oosm.NewModel(relstore.NewMemory())
			if err != nil {
				t.Fatal(err)
			}
			engine, err := pdme.New(model, fusion.Groups{"structural": {"motor imbalance", "motor misalignment"}})
			if err != nil {
				t.Fatal(err)
			}
			defer engine.Close()
			var counter askCounter
			engine.SetDiscounter(&counter)
			if tc.forwarder {
				// Nobody listens there: summaries only spool.
				fwd, err := shard.Forward(engine, shard.ForwarderConfig{ShardID: "shard-1", AggregatorAddr: "127.0.0.1:1"})
				if err != nil {
					t.Fatal(err)
				}
				defer fwd.Close()
			}
			for i := 1; i <= 3; i++ {
				before := counter.asked.Load()
				err := engine.Deliver(&proto.Report{
					DCID: "dc-1", KnowledgeSourceID: "ks/dli", SensedObjectID: "motor/1",
					MachineConditionID: "motor imbalance", Severity: 0.5, Belief: 0.6,
					Timestamp: at.Add(time.Duration(i) * time.Minute),
				})
				if err != nil {
					t.Fatal(err)
				}
				if got := counter.asked.Load() - before; got != tc.want {
					t.Fatalf("delivery %d fused its block %d times, want %d", i, got, tc.want)
				}
			}
		})
	}
}

package uplink

import (
	"slices"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/testkit"
)

// forward_test exercises the tentpole claim that the uplink is
// source-agnostic: the same spool/redial/dedup machinery that carries
// DC→PDME reports carries PDME→PDME fused summaries, with no DC anywhere
// in the loop. A "shard PDME" here is just an uplink delivering summaries;
// the "aggregator PDME" is a proto.Server over a BatchSink (batchCollector,
// uplink_test.go) and a dedup window.

func testSummary(i int) *proto.FusedSummary {
	return &proto.FusedSummary{
		ShardID:      "shard-a",
		Component:    "machine/m1",
		Condition:    "cond-" + string(rune('a'+i)),
		Group:        "g",
		Belief:       0.5,
		Plausibility: 0.9,
		Unknown:      0.4,
		Reports:      i + 1,
		Reliability:  1,
		Prognostics: proto.PrognosticVector{
			{Probability: 0.2, HorizonSeconds: 3600},
		},
		UpdatedAt: time.Date(2026, 1, 1, 0, i, 0, 0, time.UTC),
	}
}

// TestForwardSummariesPDMEToPDME drives the full forwarding contract:
// happy-path FIFO delivery, spooling across an aggregator outage with
// redial, dedup-window continuity across an aggregator restart, and spool
// replay across a sender restart on the same spool dir — exactly-once
// end to end, no DC involved.
func TestForwardSummariesPDMEToPDME(t *testing.T) {
	addr := testkit.FreeAddr(t)
	sink := &batchCollector{}
	dedup := proto.NewDedup(0)
	_, srv := startServer(t, addr, sink, dedup)

	cfg := fastConfig(addr, t.TempDir())
	cfg.DCID = "shard-a"
	u, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	boot := u.Boot()

	// Phase 1: happy path.
	for i := 0; i < 3; i++ {
		if err := u.DeliverSummary(testSummary(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := u.Flush(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Phase 2: aggregator outage. Summaries spool; the sender redials until
	// a new server (sharing the dedup window, as a journal-recovered
	// aggregator would) comes back on the same address.
	srv.Close()
	for i := 3; i < 6; i++ {
		if err := u.DeliverSummary(testSummary(i)); err != nil {
			t.Fatal(err)
		}
	}
	_, srv2 := startServer(t, addr, sink, dedup)
	defer srv2.Close()
	if err := u.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Phase 3: sender restart. Spool two more, close immediately (the
	// sender may or may not have drained them), and let the recovered spool
	// redeliver on a fresh uplink; the dedup window absorbs any overlap.
	for i := 6; i < 8; i++ {
		if err := u.DeliverSummary(testSummary(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := u.Close(); err != nil {
		t.Fatal(err)
	}
	u2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer u2.Close()
	if got := u2.Boot(); got != boot {
		t.Fatalf("boot changed across restart on persistent spool: %d != %d", got, boot)
	}
	if err := u2.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Exactly-once: each condition fused once, in FIFO order.
	want := make([]string, 8)
	for i := range want {
		want[i] = testSummary(i).Condition
	}
	got := sink.conditions()
	if len(got) != len(want) {
		t.Fatalf("got %d summaries %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("summary order: got %v, want %v", got, want)
		}
	}

	// Wire tags: sender identity is the shard id; boot is stable; sequences
	// strictly increase (FIFO under one dedup window).
	sink.mu.Lock()
	defer sink.mu.Unlock()
	var lastSeq uint64
	for i, tag := range sink.tags {
		if tag.DCID != "shard-a" {
			t.Fatalf("tag %d: shard %q, want shard-a", i, tag.DCID)
		}
		if tag.Boot != boot {
			t.Fatalf("tag %d: boot %d, want %d", i, tag.Boot, boot)
		}
		if tag.Seq <= lastSeq {
			t.Fatalf("tag %d: seq %d not increasing past %d", i, tag.Seq, lastSeq)
		}
		lastSeq = tag.Seq
	}
	// The three summaries spooled during the outage were all pending when the
	// link came back: they travelled as a run, not one exchange each.
	if longest := slices.Max(sink.runs); longest < 2 {
		t.Errorf("run lengths %v: no two summaries shared a DeliverBatch call", sink.runs)
	}
}

// TestForwardSummariesMixWithReports proves summaries and reports share one
// FIFO: interleaved Deliver/DeliverSummary drain in spool order through the
// same connection.
func TestForwardSummariesMixWithReports(t *testing.T) {
	sink := &batchCollector{}
	addr, srv := startServer(t, "127.0.0.1:0", sink, proto.NewDedup(0))
	defer srv.Close()

	u, err := New(fastConfig(addr, ""))
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	for i := 0; i < 4; i++ {
		if err := u.Deliver(testReport(i)); err != nil {
			t.Fatal(err)
		}
		if err := u.DeliverSummary(testSummary(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := u.Flush(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(sink.explanations()); got != 4 {
		t.Fatalf("reports delivered %d, want 4", got)
	}
	if got := len(sink.conditions()); got != 4 {
		t.Fatalf("summaries delivered %d, want 4", got)
	}
	c := u.Counters()
	if c.Acked+c.DedupAcks != 8 || c.Dropped != 0 {
		t.Fatalf("counters %+v: want 8 acked total, 0 dropped", c)
	}
}

// TestSummaryRejectedWithoutSink: a shard uplink aimed at a server whose
// sink takes no summaries must fail loudly — the frame is rejected and counted as a
// drop, never silently ignored.
func TestSummaryRejectedWithoutSink(t *testing.T) {
	sink := &collector{}
	addr, srv := startServer(t, "127.0.0.1:0", sink, proto.NewDedup(0))
	defer srv.Close()
	u, err := New(fastConfig(addr, ""))
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	if err := u.DeliverSummary(testSummary(0)); err != nil {
		t.Fatal(err)
	}
	if err := u.Flush(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	c := u.Counters()
	if c.Dropped != 1 || c.Acked != 0 {
		t.Fatalf("counters %+v: want the summary rejected (Dropped=1)", c)
	}
}

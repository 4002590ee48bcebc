package uplink

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netfault"
	"repro/internal/proto"
	"repro/internal/testkit"
)

// collector records delivered reports, optionally failing the first n.
type collector struct {
	mu      sync.Mutex
	reports []*proto.Report
}

func (c *collector) Deliver(r *proto.Report) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	cp := *r
	c.reports = append(c.reports, &cp)
	return nil
}

func (c *collector) explanations() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.reports))
	for i, r := range c.reports {
		out[i] = r.Explanation
	}
	return out
}

// startServer runs a dedup-enabled report server on addr ("127.0.0.1:0"
// for ephemeral) and returns the bound address.
func startServer(t *testing.T, addr string, sink proto.Sink, dedup *proto.Dedup) (string, *proto.Server) {
	t.Helper()
	srv := proto.NewServer(sink)
	srv.SetDedup(dedup)
	bound, err := srv.Start(addr)
	if err != nil {
		t.Fatal(err)
	}
	return bound, srv
}

func fastConfig(addr, dir string) Config {
	return Config{
		Addr:        addr,
		DCID:        "dc-1",
		SpoolDir:    dir,
		DialTimeout: 2 * time.Second,
		SendTimeout: 2 * time.Second,
		BackoffMin:  5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
	}
}

func TestDeliverHappyPath(t *testing.T) {
	sink := &collector{}
	addr, srv := startServer(t, "127.0.0.1:0", sink, proto.NewDedup(0))
	defer srv.Close()
	u, err := New(fastConfig(addr, ""))
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	for i := 1; i <= 5; i++ {
		if err := u.Deliver(testReport(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := u.Flush(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	got := sink.explanations()
	if len(got) != 5 {
		t.Fatalf("delivered %d, want 5", len(got))
	}
	for i, e := range got {
		if want := "r" + string(rune('1'+i)); e != want {
			t.Errorf("delivery %d = %q, want %q (in-order drain)", i, e, want)
		}
	}
	c := u.Counters()
	if c.Sent != 5 || c.Acked != 5 || c.Spooled != 5 || c.Retried != 0 || c.Dropped != 0 || c.DedupAcks != 0 {
		t.Errorf("counters %+v", c)
	}
}

func TestOutageSpoolsThenDrainsOnReconnect(t *testing.T) {
	addr := testkit.FreeAddr(t)
	u, err := New(fastConfig(addr, ""))
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	for i := 1; i <= 3; i++ {
		if err := u.Deliver(testReport(i)); err != nil {
			t.Fatal(err)
		}
	}
	// No listener: everything queues.
	time.Sleep(50 * time.Millisecond)
	if got := u.Pending(); got != 3 {
		t.Fatalf("pending %d during outage, want 3", got)
	}
	sink := &collector{}
	_, srv := startServer(t, addr, sink, proto.NewDedup(0))
	defer srv.Close()
	if err := u.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := sink.explanations(); len(got) != 3 || got[0] != "r1" {
		t.Fatalf("drained %v", got)
	}
	c := u.Counters()
	if c.Replayed == 0 {
		t.Errorf("outage deliveries not counted as replayed: %+v", c)
	}
}

func TestSpoolSurvivesProcessRestart(t *testing.T) {
	dir := t.TempDir()
	addr := testkit.FreeAddr(t)
	u, err := New(fastConfig(addr, dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if err := u.Deliver(testReport(i)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond) // let the sender fail a dial or two
	if err := u.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart" the DC process: a fresh uplink over the same spool dir.
	u2, err := New(fastConfig(addr, dir))
	if err != nil {
		t.Fatal(err)
	}
	defer u2.Close()
	if got := u2.Pending(); got != 4 {
		t.Fatalf("recovered %d pending after restart, want 4", got)
	}
	dedup := proto.NewDedup(0)
	sink := &collector{}
	_, srv := startServer(t, addr, sink, dedup)
	defer srv.Close()
	if err := u2.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// New reports after the restart keep monotonic sequences, so dedup
	// must not swallow them.
	if err := u2.Deliver(testReport(5)); err != nil {
		t.Fatal(err)
	}
	if err := u2.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	got := sink.explanations()
	if len(got) != 5 || got[0] != "r1" || got[4] != "r5" {
		t.Fatalf("after restart delivered %v, want r1..r5", got)
	}
	c := u2.Counters()
	if c.Replayed < 4 {
		t.Errorf("restart replays not counted: %+v", c)
	}
	if dedup.Hits() != 0 {
		t.Errorf("%d fresh reports treated as duplicates", dedup.Hits())
	}
}

// TestVolatileRestartNotSwallowedByDedup: a DC restarting with an
// in-memory spool restarts its sequence counter at 1; against a long-lived
// PDME whose window already saw those sequences, its reports must still be
// fused — the fresh boot id resets the window instead of suppressing them.
func TestVolatileRestartNotSwallowedByDedup(t *testing.T) {
	sink := &collector{}
	dedup := proto.NewDedup(0)
	addr, srv := startServer(t, "127.0.0.1:0", sink, dedup)
	defer srv.Close()

	u, err := New(fastConfig(addr, ""))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := u.Deliver(testReport(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := u.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := u.Close(); err != nil {
		t.Fatal(err)
	}

	// Same DCID, new process, volatile spool: sequences restart at 1.
	u2, err := New(fastConfig(addr, ""))
	if err != nil {
		t.Fatal(err)
	}
	defer u2.Close()
	for i := 4; i <= 6; i++ {
		if err := u2.Deliver(testReport(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := u2.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	got := sink.explanations()
	if len(got) != 6 || got[3] != "r4" {
		t.Fatalf("sink saw %v, want r1..r6 (restarted DC's reports swallowed)", got)
	}
	if dedup.Hits() != 0 {
		t.Errorf("%d fresh reports suppressed as duplicates", dedup.Hits())
	}
	if c := u2.Counters(); c.DedupAcks != 0 || c.Acked != 3 {
		t.Errorf("second incarnation counters %+v", c)
	}
}

func TestCapacityDropOldestFirst(t *testing.T) {
	addr := testkit.FreeAddr(t)
	cfg := fastConfig(addr, "")
	cfg.SpoolCap = 3
	u, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	for i := 1; i <= 5; i++ {
		if err := u.Deliver(testReport(i)); err != nil {
			t.Fatal(err)
		}
	}
	if c := u.Counters(); c.Dropped != 2 || c.CapacityDrops != 2 {
		t.Fatalf("dropped %d / capacity drops %d, want 2 and 2", c.Dropped, c.CapacityDrops)
	}
	sink := &collector{}
	_, srv := startServer(t, addr, sink, proto.NewDedup(0))
	defer srv.Close()
	if err := u.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	got := sink.explanations()
	if len(got) != 3 || got[0] != "r3" || got[2] != "r5" {
		t.Fatalf("survivors %v, want the newest three (oldest-first drop)", got)
	}
}

func TestRejectedReportDroppedQueueKeepsMoving(t *testing.T) {
	// A sink that permanently refuses one condition: the uplink must drop
	// that report (counting it) rather than wedge the queue behind it.
	inner := &collector{}
	sink := proto.SinkFunc(func(r *proto.Report) error {
		if r.Explanation == "r2" {
			return &permanentErr{}
		}
		return inner.Deliver(r)
	})
	addr, srv := startServer(t, "127.0.0.1:0", sink, proto.NewDedup(0))
	defer srv.Close()
	u, err := New(fastConfig(addr, ""))
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	for i := 1; i <= 3; i++ {
		if err := u.Deliver(testReport(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := u.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := inner.explanations(); len(got) != 2 || got[0] != "r1" || got[1] != "r3" {
		t.Fatalf("delivered %v, want r1,r3 with r2 dropped", got)
	}
	if c := u.Counters(); c.Dropped != 1 || c.CapacityDrops != 0 {
		t.Errorf("counters %+v, want Dropped=1 with no capacity drops", c)
	}
}

// TestUnencodableReportNotSpooled: a report Validate accepts but no
// decoder would read back — a timestamp zoned 25 h from UTC, which RFC 3339
// cannot write — is refused at Deliver instead of spooled. Spooled, it would
// wedge the queue (every server refuses the frame) and leave a file that no
// longer opens.
func TestUnencodableReportNotSpooled(t *testing.T) {
	sink := &collector{}
	addr, srv := startServer(t, "127.0.0.1:0", sink, proto.NewDedup(0))
	defer srv.Close()
	dir := t.TempDir()
	u, err := New(fastConfig(addr, dir))
	if err != nil {
		t.Fatal(err)
	}
	bad := testReport(1)
	bad.Timestamp = bad.Timestamp.In(time.FixedZone("", 25*3600))
	if err := bad.Validate(); err != nil {
		t.Fatalf("the report must pass Validate for this test to mean anything: %v", err)
	}
	if err := u.Deliver(bad); err == nil {
		t.Fatal("Deliver spooled a report whose frame no decoder reads")
	}
	if err := u.Deliver(testReport(2)); err != nil {
		t.Fatal(err)
	}
	if err := u.Flush(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := sink.explanations(); len(got) != 1 || got[0] != "r2" {
		t.Fatalf("delivered %v, want r2 alone", got)
	}
	if err := u.Close(); err != nil {
		t.Fatal(err)
	}
	u2, err := New(fastConfig(addr, dir))
	if err != nil {
		t.Fatalf("spool does not reopen: %v", err)
	}
	defer u2.Close()
	if got := u2.Pending(); got != 0 {
		t.Errorf("%d pending after reopen, want 0", got)
	}
}

type permanentErr struct{}

func (*permanentErr) Error() string { return "condition not in any failure group" }

// TestChaosResendNeverDoubleDelivers drives the uplink through the
// netfault proxy with aggressive mid-stream resets: sends are retried until
// acked, and the server-side dedup window guarantees each report reaches
// the sink exactly once.
func TestChaosResendNeverDoubleDelivers(t *testing.T) {
	sink := &collector{}
	dedup := proto.NewDedup(0)
	addr, srv := startServer(t, "127.0.0.1:0", sink, dedup)
	defer srv.Close()
	proxy, err := netfault.New(addr, netfault.Options{ResetProb: 0.3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	u, err := New(fastConfig(proxy.Addr(), t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	const n = 40
	for i := 0; i < n; i++ {
		r := testReport(i % 10)
		r.Timestamp = r.Timestamp.Add(time.Duration(i) * time.Hour)
		if err := u.Deliver(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := u.Flush(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(sink.explanations()); got != n {
		t.Fatalf("sink saw %d deliveries, want exactly %d (resets=%d, dedup hits=%d)",
			got, n, proxy.Stats().Resets, dedup.Hits())
	}
	c := u.Counters()
	if c.Retried == 0 {
		t.Logf("note: no retries triggered (resets=%d)", proxy.Stats().Resets)
	}
	if c.Acked+c.DedupAcks != n {
		t.Errorf("acked %d + dup %d != %d", c.Acked, c.DedupAcks, n)
	}
}

// batchCollector is a collector that also takes a run in one call and both
// payload kinds, so the server reaches it through proto.BatchSink. It keeps
// the summaries with their wire tags, and how long each run was.
type batchCollector struct {
	collector
	summaries []*proto.FusedSummary
	tags      []proto.Delivery // of the summaries: DCID, Boot, Seq
	runs      []int
}

func (c *batchCollector) DeliverBatch(run []proto.Delivery) {
	c.mu.Lock()
	c.runs = append(c.runs, len(run))
	c.mu.Unlock()
	for i := range run {
		d := &run[i]
		if d.Summary == nil {
			d.Err = c.Deliver(d.Report)
			continue
		}
		c.mu.Lock()
		cp := *d.Summary
		c.summaries = append(c.summaries, &cp)
		c.tags = append(c.tags, proto.Delivery{DCID: d.DCID, Boot: d.Boot, Seq: d.Seq})
		c.mu.Unlock()
	}
}

func (c *batchCollector) conditions() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.summaries))
	for i, s := range c.summaries {
		out[i] = s.Condition
	}
	return out
}

// TestChaosMidRunReset cuts every connection after the k-th ack of a run,
// with a dedup window narrower than the send window: the server took the
// whole run, the sender heard k acks, and the rest is resent on the next
// connection — where it must be acked as duplicates, not fused again, even
// though most of it has already fallen below the window's floor. A run of
// summaries goes through the same exchange and the same accept body.
func TestChaosMidRunReset(t *testing.T) {
	const (
		n       = 5 * proto.MaxRun
		k       = 5
		ackSize = 4 + len(`{"kind":"ack"}`)
	)
	type sink interface {
		proto.Sink
		explanations() []string
	}
	for _, tc := range []struct {
		name  string
		sink  func() sink
		kinds []string
	}{
		// A plain sink takes no summaries at all.
		{"per-frame sink", func() sink { return &collector{} }, []string{"report"}},
		{"batch sink", func() sink { return &batchCollector{} }, []string{"report", "summary"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, kind := range tc.kinds {
				t.Run(kind, func(t *testing.T) {
					sink := tc.sink()
					dedup := proto.NewDedup(proto.MaxRun / 4)
					addr, srv := startServer(t, "127.0.0.1:0", sink, dedup)
					defer srv.Close()
					proxy, err := netfault.New(addr, netfault.Options{CutRepliesAfter: k * int64(ackSize)})
					if err != nil {
						t.Fatal(err)
					}
					defer proxy.Close()
					// Everything is spooled before the first dial, so the sender works
					// in full runs.
					dir := t.TempDir()
					idle, err := New(fastConfig(testkit.FreeAddr(t), dir))
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < n; i++ {
						if kind == "summary" {
							s := testSummary(i % 10)
							s.Condition = fmt.Sprintf("r%d", i)
							err = idle.DeliverSummary(s)
						} else {
							r := testReport(i % 10)
							r.Explanation = fmt.Sprintf("r%d", i)
							err = idle.Deliver(r)
						}
						if err != nil {
							t.Fatal(err)
						}
					}
					if err := idle.Close(); err != nil {
						t.Fatal(err)
					}
					u, err := New(fastConfig(proxy.Addr(), dir))
					if err != nil {
						t.Fatal(err)
					}
					defer u.Close()
					if err := u.Flush(60 * time.Second); err != nil {
						t.Fatal(err)
					}
					got := sink.explanations()
					if kind == "summary" {
						got = sink.(*batchCollector).conditions()
					}
					if len(got) != n {
						t.Fatalf("sink saw %d deliveries, want exactly %d (resets=%d, dedup hits=%d)",
							len(got), n, proxy.Stats().Resets, dedup.Hits())
					}
					for i, e := range got {
						if want := fmt.Sprintf("r%d", i); e != want {
							t.Fatalf("delivery %d = %q, want %q: order lost across the resets", i, e, want)
						}
					}
					c := u.Counters()
					if c.Sent != n || c.Acked+c.DedupAcks != n || c.Dropped != 0 {
						t.Errorf("counters %+v, want %d frames acked once each and none dropped", c, n)
					}
					// The first connection carried a full run and k acks: the other
					// MaxRun-k frames failed in transit and came back as duplicates.
					if c.DedupAcks < proto.MaxRun-k || c.Retried < proto.MaxRun-k {
						t.Errorf("counters %+v, want at least %d duplicate acks and as many frames retried", c, proto.MaxRun-k)
					}
					if hits := dedup.Hits(); hits < c.DedupAcks {
						t.Errorf("%d dedup hits for %d duplicate acks", hits, c.DedupAcks)
					}
				})
			}
		})
	}
}

// TestEvictedInFlightCountedOnce: a frame the capacity policy drops while
// the sender has it on the wire is a capacity drop and nothing else — its
// late ack writes no record and moves no counter.
func TestEvictedInFlightCountedOnce(t *testing.T) {
	inner := &collector{}
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	sink := proto.SinkFunc(func(r *proto.Report) error {
		once.Do(func() {
			close(entered)
			<-release
		})
		return inner.Deliver(r)
	})
	addr, srv := startServer(t, "127.0.0.1:0", sink, proto.NewDedup(0))
	defer srv.Close()
	dir := t.TempDir()
	cfg := fastConfig(addr, dir)
	cfg.SpoolCap = 4
	u, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Deliver(testReport(1)); err != nil {
		t.Fatal(err)
	}
	<-entered // r1 is in flight, its ack held back by the sink
	for i := 2; i <= 6; i++ {
		if err := u.Deliver(testReport(i)); err != nil {
			t.Fatal(err)
		}
	}
	if c := u.Counters(); c.CapacityDrops != 2 {
		t.Fatalf("capacity drops %d, want r1 and r2 evicted", c.CapacityDrops)
	}
	close(release)
	if err := u.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := inner.explanations(); len(got) != 5 || got[0] != "r1" || got[1] != "r3" {
		t.Fatalf("sink saw %v, want r1 (already on the wire) and r3..r6", got)
	}
	c := u.Counters()
	if c.Spooled != 6 || c.Dropped != 2 || c.Sent != 4 || c.Acked != 4 {
		t.Errorf("counters %+v, want 6 spooled = 2 dropped + 4 sent: the evicted frame's ack counts for nothing", c)
	}
	if err := u.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := openSpool(dir, cfg.DCID, cfg.SpoolCap)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	if len(s.pending) != 0 || s.nextSeq != 7 {
		t.Errorf("reopened spool: %d pending, next seq %d; want drained with next seq 7", len(s.pending), s.nextSeq)
	}
}

// TestFlushWakesOnDrainAndTimesOut: Flush returns as soon as the last
// pending frame retires, and with the link down it gives up at its timeout
// naming what is still pending.
func TestFlushWakesOnDrainAndTimesOut(t *testing.T) {
	addr := testkit.FreeAddr(t)
	u, err := New(fastConfig(addr, ""))
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	for i := 1; i <= 3; i++ {
		if err := u.Deliver(testReport(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := u.Flush(30 * time.Millisecond); err == nil || !strings.Contains(err.Error(), "3 reports pending") {
		t.Fatalf("flush with the link down = %v, want a timeout naming 3 pending", err)
	}
	flushed := make(chan error, 1)
	go func() { flushed <- u.Flush(10 * time.Second) }()
	_, srv := startServer(t, addr, &collector{}, proto.NewDedup(0))
	defer srv.Close()
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	if got := u.Pending(); got != 0 {
		t.Fatalf("flush returned with %d pending", got)
	}
	if err := u.Flush(0); err != nil {
		t.Fatalf("flush of an empty spool: %v", err)
	}
}

// TestRetargetCarriesSpoolToTheNewServer: pointing an uplink at another server
// changes where its one sender dials and nothing else — same boot, same
// counters, the pending frame as it stands. A live connection to the server
// it left is not written to again, and a backoff earned against that server is
// not sat out.
func TestRetargetCarriesSpoolToTheNewServer(t *testing.T) {
	a, b := &collector{}, &collector{}
	addrA, srvA := startServer(t, "127.0.0.1:0", a, proto.NewDedup(0))
	defer srvA.Close()
	addrB, srvB := startServer(t, "127.0.0.1:0", b, proto.NewDedup(0))
	cfg := fastConfig(addrA, "")
	cfg.BackoffMin, cfg.BackoffMax = time.Minute, time.Minute // nothing below waits one out
	u, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	deliver := func(i int) {
		t.Helper()
		if err := u.Deliver(testReport(i)); err != nil {
			t.Fatal(err)
		}
	}
	flush := func() {
		t.Helper()
		if err := u.Flush(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	boot := u.Boot()
	deliver(1)
	flush()
	u.Retarget(addrB) // idle, connected to A
	deliver(2)
	flush()

	srvB.Close() // B dies: the next send breaks, and the sender backs off for a minute
	deliver(3)
	for deadline := time.Now().Add(10 * time.Second); u.Counters().Retried+u.Counters().DialFailures == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the sender never noticed the dead server")
		}
		time.Sleep(time.Millisecond)
	}
	u.Retarget(addrA)
	flush()

	if got, want := strings.Join(a.explanations(), ","), "r1,r3"; got != want {
		t.Errorf("server A fused %q, want %q", got, want)
	}
	if got, want := strings.Join(b.explanations(), ","), "r2"; got != want {
		t.Errorf("server B fused %q, want %q", got, want)
	}
	if c := u.Counters(); u.Boot() != boot || c.Spooled != 3 || c.Acked != 3 || c.DedupAcks != 0 || c.Dropped != 0 {
		t.Errorf("boot %d -> %d, counters %+v: want one spool, three first acks", boot, u.Boot(), c)
	}
}

// TestJitterFollowsSeed: two uplinks built with one Seed draw one backoff
// jitter sequence, and another Seed draws another.
func TestJitterFollowsSeed(t *testing.T) {
	draw := func(seed int64) [8]float64 {
		u, err := New(Config{Addr: "127.0.0.1:1", DCID: "dc-1", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		defer u.Close()
		u.mu.Lock()
		defer u.mu.Unlock()
		var out [8]float64
		for i := range out {
			out[i] = u.rng.Float64()
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	if a != b {
		t.Errorf("seed 7 drew %v, then %v", a, b)
	}
	if a == c {
		t.Errorf("seeds 7 and 8 drew one sequence %v", a)
	}
}

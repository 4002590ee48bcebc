package proto

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// collectSink records delivered reports.
type collectSink struct {
	mu      sync.Mutex
	reports []*Report
}

func (c *collectSink) Deliver(r *Report) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	cp := *r
	c.reports = append(c.reports, &cp)
	return nil
}

func (c *collectSink) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.reports)
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestServerIdleTimeoutReleasesDeadPeers: a peer that connects and never
// completes a frame is cut loose instead of pinning a handler goroutine.
func TestServerIdleTimeoutReleasesDeadPeers(t *testing.T) {
	srv := NewServer(&collectSink{})
	srv.SetIdleTimeout(50 * time.Millisecond)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Write half a frame header, then go silent.
	if _, err := conn.Write([]byte{0, 0}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server kept a dead peer's connection open")
	}
}

func TestDedupWindow(t *testing.T) {
	const boot = uint64(41)
	d := NewDedup(4)
	if d.Seen("dc-1", boot, 1) {
		t.Error("unseen sequence reported as duplicate")
	}
	for seq := uint64(1); seq <= 10; seq++ {
		d.Mark("dc-1", boot, seq)
	}
	for seq := uint64(1); seq <= 10; seq++ {
		if !d.Seen("dc-1", boot, seq) {
			t.Errorf("seq %d: marked sequence not recognized (in-window or below floor)", seq)
		}
	}
	if d.Seen("dc-1", boot, 11) {
		t.Error("future sequence reported as duplicate")
	}
	if d.Seen("dc-2", boot, 5) {
		t.Error("windows leak across DC ids")
	}
	if d.Hits() != 10 {
		t.Errorf("hits = %d, want 10", d.Hits())
	}
}

// TestDedupBootChangeResetsWindow: a DC restart with a volatile spool
// restarts sequences at 1 under a new boot id; the window must treat those
// as fresh rather than swallowing them below the old floor.
func TestDedupBootChangeResetsWindow(t *testing.T) {
	d := NewDedup(4)
	for seq := uint64(1); seq <= 20; seq++ {
		d.Mark("dc-1", 41, seq)
	}
	if !d.Seen("dc-1", 41, 2) {
		t.Fatal("below-floor sequence of the same boot not suppressed")
	}
	if d.Seen("dc-1", 99, 2) {
		t.Fatal("restarted sender's low sequence swallowed as a duplicate")
	}
	d.Mark("dc-1", 99, 1)
	if !d.Seen("dc-1", 99, 1) {
		t.Error("new boot's marks not tracked after the reset")
	}
	if d.Seen("dc-1", 41, 15) {
		t.Error("stale boot still recognized after the window reset")
	}
}

// TestTaggedDedupExactlyOnce: a redelivered tagged report is dup-acked
// without a second sink delivery, and a failed delivery is NOT recorded
// (so it can be retried).
func TestTaggedDedupExactlyOnce(t *testing.T) {
	sink := &collectSink{}
	fail := true
	flaky := SinkFunc(func(r *Report) error {
		if fail {
			fail = false
			return fmt.Errorf("transient sink failure")
		}
		return sink.Deliver(r)
	})
	srv := NewServer(flaky)
	srv.SetDedup(NewDedup(0))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := validReport()
	// First attempt: sink fails — the sequence must not enter the window.
	if _, err := c.SendTagged(r, 7, 1); !errors.Is(err, ErrRejected) {
		t.Fatalf("want rejection from failing sink, got %v", err)
	}
	// Retry delivers.
	dup, err := c.SendTagged(r, 7, 1)
	if err != nil || dup {
		t.Fatalf("retry after sink failure: dup=%v err=%v", dup, err)
	}
	// Redelivery (lost ack) is suppressed.
	dup, err = c.SendTagged(r, 7, 1)
	if err != nil || !dup {
		t.Fatalf("redelivery: dup=%v err=%v, want dup ack", dup, err)
	}
	if got := sink.count(); got != 1 {
		t.Errorf("sink saw %d deliveries, want exactly 1", got)
	}
}

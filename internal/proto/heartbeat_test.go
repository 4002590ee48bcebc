package proto

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

var hbT0 = time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)

func validHeartbeat() *Heartbeat {
	return &Heartbeat{
		DCID:        "dc-0",
		Boot:        42,
		Incarnation: 7,
		SentAt:      hbT0,
		SpoolDepth:  3,
		Suites: []SuiteStatus{
			{Name: "vibration-test", LastRun: hbT0.Add(-time.Minute), Runs: 12},
			{Name: "process-scan", Runs: 0},
		},
	}
}

func TestHeartbeatValidate(t *testing.T) {
	if err := validHeartbeat().Validate(); err != nil {
		t.Fatalf("valid heartbeat rejected: %v", err)
	}
	bad := []*Heartbeat{
		{SentAt: hbT0}, // missing DC id
		{DCID: "dc-0"}, // missing send time
		{DCID: "dc-0", SentAt: hbT0, SpoolDepth: -1}, // negative depth
	}
	for i, hb := range bad {
		if err := hb.Validate(); err == nil {
			t.Errorf("heartbeat %d should fail validation", i)
		}
	}
}

func TestHeartbeatFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, envelope{Kind: "heartbeat", Heartbeat: validHeartbeat()}); err != nil {
		t.Fatal(err)
	}
	out, _, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != "heartbeat" || out.Heartbeat == nil {
		t.Fatalf("round trip: %+v", out)
	}
	hb := out.Heartbeat
	if hb.DCID != "dc-0" || hb.Boot != 42 || hb.Incarnation != 7 || hb.SpoolDepth != 3 {
		t.Fatalf("fields lost: %+v", hb)
	}
	if len(hb.Suites) != 2 || hb.Suites[0].Runs != 12 || !hb.Suites[0].LastRun.Equal(hbT0.Add(-time.Minute)) {
		t.Fatalf("suites lost: %+v", hb.Suites)
	}
	if !hb.Suites[1].LastRun.IsZero() {
		t.Fatalf("never-run suite should keep zero LastRun: %+v", hb.Suites[1])
	}
}

// hbSinkFunc adapts a function to HeartbeatSink.
type hbSinkFunc func(*Heartbeat) error

func (f hbSinkFunc) ObserveHeartbeat(hb *Heartbeat) error { return f(hb) }

func TestClientServerHeartbeat(t *testing.T) {
	var mu sync.Mutex
	var got []*Heartbeat
	srv := NewServer(SinkFunc(func(*Report) error { return nil }))
	srv.SetHeartbeatSink(hbSinkFunc(func(hb *Heartbeat) error {
		mu.Lock()
		got = append(got, hb)
		mu.Unlock()
		return nil
	}))
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
	for i := 0; i < 3; i++ {
		hb := validHeartbeat()
		hb.SentAt = hbT0.Add(time.Duration(i) * time.Minute)
		if err := c.SendHeartbeat(hb); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	n := len(got)
	mu.Unlock()
	if n != 3 {
		t.Fatalf("sink saw %d heartbeats, want 3", n)
	}
	// Invalid heartbeat is rejected client-side.
	if err := c.SendHeartbeat(&Heartbeat{DCID: "dc-0"}); err == nil {
		t.Error("invalid heartbeat should not send")
	}
	// Reports still flow on the same connection after heartbeats.
	if err := c.Send(validReport()); err != nil {
		t.Fatalf("report after heartbeat: %v", err)
	}
}

func TestHeartbeatWithoutSinkStillAcked(t *testing.T) {
	// A server with no heartbeat sink must ack heartbeats, so older PDMEs
	// tolerate newer DCs.
	srv := NewServer(SinkFunc(func(*Report) error { return nil }))
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
	if err := c.SendHeartbeat(validHeartbeat()); err != nil {
		t.Fatalf("sinkless server should ack heartbeat: %v", err)
	}
}

func TestHeartbeatSinkErrorSurfaces(t *testing.T) {
	srv := NewServer(SinkFunc(func(*Report) error { return nil }))
	srv.SetHeartbeatSink(hbSinkFunc(func(*Heartbeat) error { return fmt.Errorf("registry down") }))
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
	err = c.SendHeartbeat(validHeartbeat())
	if err == nil || !errors.Is(err, ErrRejected) {
		t.Fatalf("sink error should surface as rejection, got %v", err)
	}
}

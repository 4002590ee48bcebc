package netfault

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// startEcho runs a TCP echo server and returns its address and a stopper.
func startEcho(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				_, _ = io.Copy(conn, conn)
			}()
		}
	}()
	return ln.Addr().String()
}

func roundTrip(t *testing.T, addr string, payload []byte) ([]byte, error) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(payload); err != nil {
		return nil, err
	}
	buf := make([]byte, len(payload))
	_, err = io.ReadFull(conn, buf)
	return buf, err
}

func TestProxyPassthrough(t *testing.T) {
	p, err := New(startEcho(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	payload := []byte("the ship's network is calm today")
	got, err := roundTrip(t, p.Addr(), payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("echo mangled without faults: %q", got)
	}
	if s := p.Stats(); s.BytesMoved == 0 || s.Accepted != 1 {
		t.Errorf("stats %+v", s)
	}
}

func TestProxyPartitionAndHeal(t *testing.T) {
	p, err := New(startEcho(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// Establish a connection, then partition: it must die.
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	p.SetPartition(true)
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection survived a partition")
	}
	// New connections are refused while partitioned.
	if _, err := roundTrip(t, p.Addr(), []byte("hello")); err == nil {
		t.Fatal("round trip succeeded through a partition")
	}
	// Heal: traffic flows again.
	p.SetPartition(false)
	got, err := roundTrip(t, p.Addr(), []byte("hello"))
	if err != nil || !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("healed partition: %q, %v", got, err)
	}
	if s := p.Stats(); s.Refused == 0 {
		t.Errorf("no refusals counted: %+v", s)
	}
}

func TestProxyCorruption(t *testing.T) {
	p, err := New(startEcho(t), Options{CorruptProb: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	payload := bytes.Repeat([]byte{0x11}, 256)
	got, err := roundTrip(t, p.Addr(), payload)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, payload) {
		t.Error("every chunk should corrupt a byte")
	}
	if s := p.Stats(); s.Corruptions == 0 {
		t.Errorf("no corruptions counted: %+v", s)
	}
}

func TestProxyReset(t *testing.T) {
	p, err := New(startEcho(t), Options{ResetProb: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := roundTrip(t, p.Addr(), []byte("doomed")); err == nil {
		t.Fatal("round trip survived ResetProb=1")
	}
	if s := p.Stats(); s.Resets == 0 {
		t.Errorf("no resets counted: %+v", s)
	}
}

// TestProxyCutRepliesAfter: the reply stream is forwarded up to an exact
// byte count and the connection reset there, however the chunks fall.
func TestProxyCutRepliesAfter(t *testing.T) {
	p, err := New(startEcho(t), Options{CutRepliesAfter: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := io.ReadAll(conn)
	if string(got) != "01234" {
		t.Fatalf("client read %q (%v), want exactly the 5 bytes before the cut", got, err)
	}
	if s := p.Stats(); s.Resets != 1 {
		t.Errorf("resets = %d, want 1: %+v", s.Resets, s)
	}
}

func TestProxyKillConns(t *testing.T) {
	p, err := New(startEcho(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	p.KillConns()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 2)
	if _, err := io.ReadFull(conn, buf); err == nil {
		t.Fatal("connection survived KillConns")
	}
	// The proxy still accepts fresh connections afterwards.
	got, err := roundTrip(t, p.Addr(), []byte("again"))
	if err != nil || !bytes.Equal(got, []byte("again")) {
		t.Fatalf("post-kill round trip: %q, %v", got, err)
	}
}

func TestProxyLatency(t *testing.T) {
	p, err := New(startEcho(t), Options{Latency: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	start := time.Now()
	if _, err := roundTrip(t, p.Addr(), []byte("slow boat")); err != nil {
		t.Fatal(err)
	}
	// One chunk each way: at least 2× the one-way latency.
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Errorf("round trip took %v, want >= 60ms", elapsed)
	}
}

func TestProxyDropConnEvery(t *testing.T) {
	p, err := New(startEcho(t), Options{DropConnEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var failures int
	for i := 0; i < 4; i++ {
		if _, err := roundTrip(t, p.Addr(), []byte("maybe")); err != nil {
			failures++
		}
	}
	if failures != 2 {
		t.Errorf("%d of 4 connections dropped, want every 2nd", failures)
	}
}

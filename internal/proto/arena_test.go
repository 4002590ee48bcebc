package proto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// sizedReport is a valid report from dc whose explanation is n bytes long, so
// its frame's size is the caller's to choose.
func sizedReport(dc string, n int) *Report {
	r := validReport()
	r.DCID = dc
	r.Explanation = strings.Repeat(string(rune('a'+n%26)), n)
	return r
}

// mixedSize is the explanation length of frame i: from empty to past the
// server's 4 KiB read buffer, so a batch's arena grows while it holds bodies.
func mixedSize(i int) int { return (i * 1237) % 6000 }

// frameOf is the wire bytes of one frame body.
func frameOf(body []byte) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	return append(out, body...)
}

// TestArenaBodiesDoNotOverlap: MaxRun frames of mixed sizes read into one
// arena each come back as their own bytes after the rest are read, whether
// the arena had room or had to grow.
func TestArenaBodiesDoNotOverlap(t *testing.T) {
	for _, start := range []int{0, 1 << 10, maxPooledArena} {
		var wire bytes.Buffer
		var sent [][]byte
		for i := 0; i < MaxRun; i++ {
			body, err := AppendFrame(nil, &Delivery{Report: sizedReport("dc-a", mixedSize(i)), DCID: "dc-a", Boot: 1, Seq: uint64(i + 1)})
			if err != nil {
				t.Fatal(err)
			}
			sent = append(sent, body)
			wire.Write(frameOf(body))
		}
		arena := make([]byte, 0, start)
		var got [][]byte
		for range sent {
			_, body, err := readFrameInto(&wire, &arena)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, body)
		}
		for i := range sent {
			if !bytes.Equal(got[i], sent[i]) {
				t.Fatalf("arena of %d bytes: body %d overwritten after the frames behind it were read", start, i)
			}
			if cap(got[i]) != len(got[i]) {
				t.Fatalf("body %d has %d bytes of room past its end: an append to it would write into the next", i, cap(got[i])-len(got[i]))
			}
		}
	}
}

// copySink is a BatchSink that checks every Frame it is handed against
// AppendFrame of the delivery decoded from it, copies it, and keeps the
// decoded deliveries; it notes the length of each run.
type copySink struct {
	mu     sync.Mutex
	frames [][]byte
	decs   []Delivery
	runs   []int
	bad    []string
}

func (s *copySink) Deliver(*Report) error { return fmt.Errorf("copySink: reached past DeliverBatch") }

func (s *copySink) DeliverBatch(run []Delivery) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.runs = append(s.runs, len(run))
	for i := range run {
		d := run[i]
		want, err := AppendFrame(nil, &d)
		if err != nil || !bytes.Equal(d.Frame, want) {
			s.bad = append(s.bad, fmt.Sprintf("seq %d: Frame is not its delivery's encoding (%v)", d.Seq, err))
		}
		s.frames = append(s.frames, bytes.Clone(d.Frame))
		d.Frame = nil
		s.decs = append(s.decs, d)
	}
}

// TestPooledFramesReachTheSinkIntact: the frames the server reads into pooled
// arenas reach the sink each as its own bytes, equal to the encoding of the
// delivery decoded from it, across runs of MaxRun frames of mixed sizes, a
// sequence that does not continue its run and so splits a batch, and a
// heartbeat between runs. After the exchange, when later batches have reused
// the arenas, every decoded delivery still encodes to the frame that was sent:
// the decoder kept none of the arena's bytes.
func TestPooledFramesReachTheSinkIntact(t *testing.T) {
	sink := &copySink{}
	srv := NewServer(sink)
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

	seqs := []uint64{}
	for s := uint64(1); s <= 2*MaxRun; s++ {
		seqs = append(seqs, s)
	}
	seqs = append(seqs, 20) // does not continue: a new run mid-batch
	for s := uint64(2*MaxRun + 1); s <= 3*MaxRun; s++ {
		seqs = append(seqs, s)
	}
	var sent [][]byte
	var wire bytes.Buffer
	for i, seq := range seqs {
		if i == MaxRun || i == 2*MaxRun+1 {
			hb, err := encodeHeartbeat(validHeartbeat())
			if err != nil {
				t.Fatal(err)
			}
			wire.Write(frameOf(hb))
		}
		body, err := AppendFrame(nil, &Delivery{Report: sizedReport("dc-a", mixedSize(i)), DCID: "dc-a", Boot: 1, Seq: seq})
		if err != nil {
			t.Fatal(err)
		}
		sent = append(sent, body)
		wire.Write(frameOf(body))
	}
	replies := len(seqs) + 2
	if _, err := conn.Write(wire.Bytes()); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	for i := 0; i < replies; i++ {
		reply, _, err := readFrame(br)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if reply.Kind != "ack" {
			t.Fatalf("reply %d = %s %q", i, reply.Kind, reply.Error)
		}
	}

	sink.mu.Lock()
	defer sink.mu.Unlock()
	t.Logf("runs the sink was handed: %v", sink.runs)
	for _, msg := range sink.bad {
		t.Error(msg)
	}
	if len(sink.frames) != len(sent) {
		t.Fatalf("sink saw %d frames, %d sent", len(sink.frames), len(sent))
	}
	for i := range sent {
		if !bytes.Equal(sink.frames[i], sent[i]) {
			t.Errorf("frame %d (seq %d) reached the sink as other bytes than were sent", i, seqs[i])
		}
		again, err := AppendFrame(nil, &sink.decs[i])
		if err != nil || !bytes.Equal(again, sent[i]) {
			t.Errorf("delivery %d (seq %d) changed once the arena was reused (%v)", i, seqs[i], err)
		}
	}
}

// encodeHeartbeat is the frame body of a heartbeat.
func encodeHeartbeat(hb *Heartbeat) ([]byte, error) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, envelope{Kind: "heartbeat", Heartbeat: hb}); err != nil {
		return nil, err
	}
	return buf.Bytes()[4:], nil
}

// settledHeap is the live heap once the collector has run twice, which
// empties sync.Pool's primary and victim caches.
func settledHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestIdleConnectionsPinNoArena: 64 connections that each sent one run of
// MaxRun 4 KiB frames and then went quiet hold, together, under 16 KiB of heap
// per connection, counted from before they were dialled: both ends of the
// socket, the server's 4 KiB read and write buffers, and its MaxRun-slot run
// slice. An arena the connection kept after its run would add the run's
// 64 KiB of bodies to each.
func TestIdleConnectionsPinNoArena(t *testing.T) {
	const conns, perConn = 64, 16 << 10
	srv := NewServer(SinkFunc(func(*Report) error { return nil }))
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wire bytes.Buffer
	for i := 0; i < MaxRun; i++ {
		body, err := AppendFrame(nil, &Delivery{Report: sizedReport("dc-a", 4<<10), DCID: "dc-a", Boot: 1, Seq: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		wire.Write(frameOf(body))
	}
	run := wire.Bytes()

	before := settledHeap()
	open := make([]net.Conn, 0, conns)
	defer func() {
		for _, c := range open {
			_ = c.Close()
		}
	}()
	var reply [64]byte
	for i := 0; i < conns; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		open = append(open, c)
		if _, err := c.Write(run); err != nil {
			t.Fatal(err)
		}
		_ = c.SetReadDeadline(time.Now().Add(10 * time.Second))
		for k := 0; k < MaxRun; k++ {
			if _, err := io.ReadFull(c, reply[:4]); err != nil {
				t.Fatal(err)
			}
			n := binary.BigEndian.Uint32(reply[:4])
			if n > uint32(len(reply)) {
				t.Fatalf("reply of %d bytes", n)
			}
			if _, err := io.ReadFull(c, reply[:n]); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(reply[:n], ackBody) {
				t.Fatalf("reply %q, want an ack", reply[:n])
			}
		}
	}
	// A handler puts its arena back just after its last reply is written;
	// give the last of them a moment to get there.
	var grown int64
	for try := 0; try < 50; try++ {
		grown = int64(settledHeap()) - int64(before)
		if grown < conns*perConn {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Logf("%d idle connections hold %d B of heap, %d B each", conns, grown, grown/conns)
	if grown >= conns*perConn {
		t.Fatalf("%d idle connections hold %d B of heap, %d B each, bound %d", conns, grown, grown/conns, perConn)
	}
}

// TestSteadyRunAllocatesNoBodyPerFrame: a run of MaxRun report frames sent
// through SendRun as encoded frames and read by the server allocates what
// decoding the frames allocates and, per run, fewer than MaxRun/2 more: the
// server reads the bodies into a pooled arena and the client its replies into
// its own buffer, where either reading a body of its own per frame would cost
// MaxRun.
func TestSteadyRunAllocatesNoBodyPerFrame(t *testing.T) {
	srv := NewServer(&countSink{})
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

	var frames [MaxRun][]byte
	for i := range frames {
		body, err := AppendFrame(nil, &Delivery{Report: sizedReport("dc-a", 200), DCID: "dc-a", Boot: 1, Seq: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = body
	}
	decode := testing.AllocsPerRun(100, func() {
		for _, body := range frames {
			if _, err := DecodeFrame(body); err != nil {
				t.Fatal(err)
			}
		}
	})
	var run [MaxRun]Delivery
	send := func() {
		for i := range run {
			run[i] = Delivery{Frame: frames[i]}
		}
		if n, err := c.SendRun(run[:]); err != nil || n != MaxRun {
			t.Fatalf("%d of %d answered: %v", n, MaxRun, err)
		}
		for i := range run {
			if run[i].Err != nil {
				t.Fatal(run[i].Err)
			}
		}
	}
	for i := 0; i < 50; i++ {
		send()
	}
	// The best of three: under -race sync.Pool drops puts at random.
	allocs := testing.AllocsPerRun(200, send)
	for i := 0; i < 2; i++ {
		allocs = min(allocs, testing.AllocsPerRun(200, send))
	}
	extra := allocs - decode
	t.Logf("%.0f allocations per run of %d frames, %.0f of them decoding", allocs, MaxRun, decode)
	if extra >= MaxRun/2 {
		t.Fatalf("a run of %d frames allocates %.0f times beyond its decoding, budget < %d", MaxRun, extra, MaxRun/2)
	}
}

// countSink is a BatchSink that accepts every payload and keeps nothing.
type countSink struct{ n int }

func (s *countSink) Deliver(*Report) error { s.n++; return nil }

func (s *countSink) DeliverBatch(run []Delivery) { s.n += len(run) }

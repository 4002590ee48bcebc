package proto

import (
	"bufio"
	"errors"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// runSink is a BatchSink that notes the sequences of every run it is handed
// and refuses the reports whose explanation says so.
type runSink struct {
	mu   sync.Mutex
	runs [][]uint64
}

func (s *runSink) Deliver(*Report) error { return errors.New("runSink: reached past DeliverBatch") }

func (s *runSink) DeliverBatch(run []Delivery) {
	s.mu.Lock()
	defer s.mu.Unlock()
	seqs := make([]uint64, len(run))
	for i := range run {
		seqs[i] = run[i].Seq
		if run[i].Report.Explanation == "refuse" {
			run[i].Err = errors.New("refused by the sink")
		}
	}
	s.runs = append(s.runs, seqs)
}

// TestServerAnswersPipelinedFramesInOrder writes a mixed burst of frames in
// one go and reads the replies: one per frame, in frame order, whatever runs
// the server cut the burst into — tagged reports of one sender share a run,
// and a heartbeat, an invalid frame, an untagged frame, another sender or a
// sequence that does not ascend each end it.
func TestServerAnswersPipelinedFramesInOrder(t *testing.T) {
	sink := &runSink{}
	srv := NewServer(sink)
	srv.SetDedup(NewDedup(0))
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

	tagged := func(dc string, seq uint64, note string) envelope {
		r := validReport()
		r.DCID, r.Explanation = dc, note
		return envelope{Kind: "report", Report: r, DCID: dc, Boot: 3, Seq: seq}
	}
	invalid := tagged("dc-a", 4, "")
	invalid.Report.Severity = 2
	untagged := tagged("dc-a", 0, "")
	untagged.Boot = 0
	burst := []struct {
		env  envelope
		want string // reply kind, "dup" for a duplicate ack
	}{
		{tagged("dc-a", 1, ""), "ack"},
		{tagged("dc-a", 2, "refuse"), "error"},
		{tagged("dc-a", 3, ""), "ack"},
		{envelope{Kind: "heartbeat", Heartbeat: &Heartbeat{DCID: "dc-a", SentAt: time.Unix(1, 0)}}, "ack"},
		{invalid, "error"},
		{tagged("dc-a", 5, ""), "ack"},
		{tagged("dc-a", 5, ""), "dup"}, // repeated inside the burst
		{tagged("dc-a", 2, ""), "ack"}, // refused before, so not marked: retryable
		{tagged("dc-b", 1, ""), "ack"},
		{tagged("dc-b", 2, ""), "ack"},
		{untagged, "ack"},
		{envelope{Kind: "bogus"}, "error"},
		{tagged("dc-a", 6, ""), "ack"},
	}
	bw := bufio.NewWriterSize(conn, 1<<16)
	for _, f := range burst {
		if err := writeFrame(bw, f.env); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	for i, f := range burst {
		reply, err := readFrame(br)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		got := reply.Kind
		if reply.Kind == "ack" && reply.Dup {
			got = "dup"
		}
		if got != f.want {
			t.Errorf("reply %d = %s %q, want %s", i, got, reply.Error, f.want)
		}
	}
	// However the bytes arrived, joining the runs gives the frames that
	// reached the sink, in order, and no run mixes senders or descends.
	sink.mu.Lock()
	defer sink.mu.Unlock()
	var flat []uint64
	for _, run := range sink.runs {
		flat = append(flat, run...)
		for i := 1; i < len(run); i++ {
			if run[i] <= run[i-1] {
				t.Errorf("run %v does not ascend", run)
			}
		}
	}
	if want := []uint64{1, 2, 3, 5, 2, 1, 2, 0, 6}; !reflect.DeepEqual(flat, want) {
		t.Errorf("sink saw sequences %v, want %v", flat, want)
	}
}

// TestSendRunStopsAtTheCut: when the connection dies after k replies, SendRun
// reports k frames answered and leaves the rest for the caller to resend.
func TestSendRunStopsAtTheCut(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const frames, answered = 6, 2
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		for i := 0; i < frames; i++ {
			if _, err := readFrame(br); err != nil {
				return
			}
		}
		_ = writeFrame(conn, envelope{Kind: "ack"})
		_ = writeFrame(conn, envelope{Kind: "error", Error: "not this one"})
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	run := make([]Delivery, frames)
	for i := range run {
		run[i] = Delivery{Report: validReport(), DCID: "dc-a", Boot: 1, Seq: uint64(i + 1)}
	}
	n, err := c.SendRun(run)
	if n != answered || err == nil || errors.Is(err, ErrRejected) {
		t.Fatalf("SendRun = (%d, %v), want %d answered and a transport error", n, err, answered)
	}
	if run[0].Err != nil || !errors.Is(run[1].Err, ErrRejected) || !strings.Contains(run[1].Err.Error(), "not this one") {
		t.Errorf("answers %v, %v; want an ack and a rejection", run[0].Err, run[1].Err)
	}
}

package proto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func validSummary() *FusedSummary {
	return &FusedSummary{
		ShardID: "shard-a", Component: "chiller/14", Condition: "refrigerant low charge", Group: "refrigerant",
		Belief: 0.8125, Plausibility: 0.9375, Unknown: 0.125, Reports: 7, Reliability: 0.96, Degraded: true,
		Prognostics: PrognosticVector{{Probability: 0.25, HorizonSeconds: 86400}, {Probability: 0.75, HorizonSeconds: 604800}},
		UpdatedAt:   time.Date(1998, 8, 15, 12, 30, 0, 0, time.UTC),
	}
}

// payload builds a tagged delivery of either kind from sender dc. The note
// rides in a free-text field (a report's explanation, a summary's group) so a
// test sink can be told what to do with that one payload.
func payload(kind, dc string, boot, seq uint64, note string) Delivery {
	d := Delivery{DCID: dc, Boot: boot, Seq: seq}
	if kind == "summary" {
		d.Summary = validSummary()
		d.Summary.ShardID, d.Summary.Group = dc, note
	} else {
		d.Report = validReport()
		d.Report.DCID, d.Report.Explanation = dc, note
	}
	return d
}

func (d *Delivery) envelope() envelope {
	kind := "report"
	if d.Summary != nil {
		kind = "summary"
	}
	return envelope{Kind: kind, Report: d.Report, Summary: d.Summary, DCID: d.DCID, Boot: d.Boot, Seq: d.Seq}
}

func (d *Delivery) note() string {
	if d.Summary != nil {
		return d.Summary.Group
	}
	return d.Report.Explanation
}

// runSink is a BatchSink that notes the sequences of every run it is handed,
// refuses the payloads whose note says so, and is unavailable from the first
// payload whose note says that to the end of the call.
type runSink struct {
	mu    sync.Mutex
	runs  [][]uint64
	mixed bool // a run held both kinds
}

func (s *runSink) Deliver(*Report) error { return errors.New("runSink: reached past DeliverBatch") }

func (s *runSink) DeliverBatch(run []Delivery) {
	s.mu.Lock()
	defer s.mu.Unlock()
	seqs := make([]uint64, len(run))
	unavailable := false
	for i := range run {
		seqs[i] = run[i].Seq
		if (run[i].Summary != nil) != (run[0].Summary != nil) {
			s.mixed = true
		}
		switch unavailable = unavailable || run[i].note() == "unavailable"; {
		case unavailable:
			run[i].Err = fmt.Errorf("journal gone: %w", ErrUnavailable)
		case run[i].note() == "refuse":
			run[i].Err = errors.New("refused by the sink")
		}
	}
	s.runs = append(s.runs, seqs)
}

// TestServerAnswersPipelinedFramesInOrder writes a mixed burst of frames in
// one go and reads the replies: one per frame, in frame order, whatever runs
// the server cut the burst into — tagged payloads of one sender and one kind
// share a run, and a heartbeat, an invalid frame, an untagged frame, another
// sender, the other kind or a sequence that does not ascend each end it.
func TestServerAnswersPipelinedFramesInOrder(t *testing.T) {
	for kind, other := range map[string]string{"report": "summary", "summary": "report"} {
		t.Run(kind, func(t *testing.T) {
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
				d := payload(kind, dc, 3, seq, note)
				return d.envelope()
			}
			invalid := tagged("dc-a", 4, "")
			if kind == "summary" {
				invalid.Summary.Belief = 2
			} else {
				invalid.Report.Severity = 2
			}
			untagged := tagged("dc-a", 0, "")
			untagged.Boot = 0
			otherKind := payload(other, "dc-a", 3, 7, "")
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
				{envelope{Kind: kind}, "error"}, // the kind without its payload
				{tagged("dc-a", 6, ""), "ack"},
				{otherKind.envelope(), "ack"}, // same sender, ascending, other kind
				{tagged("dc-a", 8, ""), "ack"},
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
				reply, _, err := readFrame(br)
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
			// reached the sink, in order, and no run mixes senders or kinds or
			// descends.
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
			if want := []uint64{1, 2, 3, 5, 2, 1, 2, 0, 6, 7, 8}; !reflect.DeepEqual(flat, want) {
				t.Errorf("sink saw sequences %v, want %v", flat, want)
			}
			if sink.mixed {
				t.Error("a run mixed reports and summaries")
			}
		})
	}
}

// TestSendRunStopsAtTheCut: when the connection dies after k replies, SendRun
// reports k frames answered and leaves the rest for the caller to resend.
func TestSendRunStopsAtTheCut(t *testing.T) {
	for _, kind := range []string{"report", "summary"} {
		t.Run(kind, func(t *testing.T) {
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
					if env, _, err := readFrame(br); err != nil || env.Kind != kind {
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
				run[i] = payload(kind, "dc-a", 1, uint64(i+1), "")
			}
			n, err := c.SendRun(run)
			if n != answered || err == nil || errors.Is(err, ErrRejected) {
				t.Fatalf("SendRun = (%d, %v), want %d answered and a transport error", n, err, answered)
			}
			if run[0].Err != nil || !errors.Is(run[1].Err, ErrRejected) || !strings.Contains(run[1].Err.Error(), "not this one") {
				t.Errorf("answers %v, %v; want an ack and a rejection", run[0].Err, run[1].Err)
			}
		})
	}
}

// TestUnavailableSinkHangsUp: a delivery the sink was unavailable for is not
// answered at all — no error frame, which the sender would take for a
// refusal and drop — the frames before it keep their replies, the connection
// closes, and nothing from the unavailable one on is marked delivered.
func TestUnavailableSinkHangsUp(t *testing.T) {
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
	bw := bufio.NewWriter(conn)
	for i, note := range []string{"", "refuse", "unavailable", ""} {
		d := payload("report", "dc-a", 3, uint64(i+1), note)
		if err := writeFrame(bw, d.envelope()); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	for i, want := range []string{"ack", "error"} {
		if reply, _, err := readFrame(br); err != nil || reply.Kind != want {
			t.Fatalf("reply %d = %q, %v; want %s", i, reply.Kind, err, want)
		}
	}
	if reply, _, err := readFrame(br); err == nil {
		t.Fatalf("the unavailable delivery was answered with %q %q, want the connection closed", reply.Kind, reply.Error)
	}

	// The sender redials and resends what was not answered: it is all new to
	// the window, and only what was acked is a duplicate.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resend := []Delivery{payload("report", "dc-a", 3, 1, ""), payload("report", "dc-a", 3, 3, ""), payload("report", "dc-a", 3, 4, "")}
	if n, err := c.SendRun(resend); n != len(resend) || err != nil {
		t.Fatalf("resend answered %d of %d: %v", n, len(resend), err)
	}
	for i, wantDup := range []bool{true, false, false} {
		if resend[i].Dup != wantDup || resend[i].Err != nil {
			t.Errorf("resent seq %d: dup %v, err %v; want dup %v", resend[i].Seq, resend[i].Dup, resend[i].Err, wantDup)
		}
	}
}

// TestSummaryFrameGolden pins the summary frame SendRun writes to the bytes
// the parent's one-summary exchange wrote, so old and new peers interoperate.
func TestSummaryFrameGolden(t *testing.T) {
	const golden = `{"kind":"summary","summary":{"shard_id":"shard-a","component":"chiller/14","condition":"refrigerant low charge","group":"refrigerant","belief":0.8125,"plausibility":0.9375,"unknown":0.125,"reports":7,"reliability":0.96,"degraded":true,"prognostics":[{"probability":0.25,"time":86400},{"probability":0.75,"time":604800}],"updated_at":"1998-08-15T12:30:00Z"},"dc":"shard-a","boot":41,"seq":9}`
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan []byte, 1)
	go func() {
		defer close(got)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var hdr [4]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return
		}
		body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
		if _, err := io.ReadFull(conn, body); err != nil {
			return
		}
		got <- body
		_ = writeFrame(conn, envelope{Kind: "ack"})
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	run := []Delivery{{Summary: validSummary(), DCID: "shard-a", Boot: 41, Seq: 9}}
	if n, err := c.SendRun(run); n != 1 || err != nil || run[0].Err != nil {
		t.Fatalf("SendRun = (%d, %v), answer %v", n, err, run[0].Err)
	}
	if body := <-got; string(body) != golden {
		t.Errorf("summary frame\n got %s\nwant %s", body, golden)
	}
}

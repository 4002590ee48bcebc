package proto

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"slices"
	"sync"
	"time"
)

// The wire format is a 4-byte big-endian length prefix followed by a JSON
// body. Each frame carries one envelope. The PDME replies to every report
// frame with an ack frame, giving DCs at-least-once delivery with
// application-level confirmation (the ship's network is assumed unreliable;
// §4.9 calls out communications instability as a deployment concern).

// MaxFrameSize bounds a frame body to keep a corrupted length prefix from
// allocating unbounded memory.
const MaxFrameSize = 16 << 20

type envelope struct {
	Kind   string  `json:"kind"` // "report" | "heartbeat" | "summary" | "ack" | "error"
	Report *Report `json:"report,omitempty"`
	// Heartbeat carries the fleet-health liveness frame (kind "heartbeat").
	Heartbeat *Heartbeat `json:"heartbeat,omitempty"`
	// Summary carries the shard→aggregator fused-state frame (kind
	// "summary"); DCID then names the sending shard.
	Summary *FusedSummary `json:"summary,omitempty"`
	Error   string        `json:"error,omitempty"`
	// DCID and Seq tag a report frame with a per-DC monotonic delivery id so
	// the receiving side can deduplicate at-least-once redelivery (a resend
	// after a lost ack). Seq 0 means untagged (legacy senders). Boot
	// identifies the sender incarnation that assigned Seq: a sender whose
	// sequence state did not survive a restart (volatile spool) starts a new
	// boot, and the receiver resets that DC's window instead of mistaking the
	// restarted sequence numbers for duplicates.
	DCID string `json:"dc,omitempty"`
	Boot uint64 `json:"boot,omitempty"`
	Seq  uint64 `json:"seq,omitempty"`
	// Dup marks an ack for a report the server had already fused; the sender
	// can retire it from its spool without the sink seeing it twice.
	Dup bool `json:"dup,omitempty"`
}

// The two ack bodies, byte for byte what json.Marshal makes of
// envelope{Kind: "ack"} and envelope{Kind: "ack", Dup: true}: answering a
// frame takes no reflection.
var (
	ackBody    = []byte(`{"kind":"ack"}`)
	dupAckBody = []byte(`{"kind":"ack","dup":true}`)
)

// writeFrame writes one length-prefixed JSON frame.
func writeFrame(w io.Writer, env envelope) error {
	switch env {
	case envelope{Kind: "ack"}:
		return writeRawFrame(w, ackBody)
	case envelope{Kind: "ack", Dup: true}:
		return writeRawFrame(w, dupAckBody)
	}
	body, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("proto: marshal frame: %w", err)
	}
	return writeRawFrame(w, body)
}

// writeRawFrame writes an already-encoded JSON body as one length-prefixed
// frame: what SendRun holds, encoded where the sequence was assigned. A
// buffered writer takes the header into its own buffer, so a frame written
// there allocates nothing.
func writeRawFrame(w io.Writer, body []byte) error {
	if len(body) > MaxFrameSize {
		return fmt.Errorf("proto: frame of %d bytes exceeds limit", len(body))
	}
	var hdr []byte
	if bw, ok := w.(*bufio.Writer); ok {
		hdr = bw.AvailableBuffer()
	}
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(body)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// readFrameInto reads one length-prefixed JSON frame, appending its body to
// *buf: the decoded envelope and the body, which aliases *buf's array and is
// capped at its own length, so what is read into *buf after it leaves it as
// it is. The header is read into *buf too, where the body then goes: a frame
// read into a buffer with room for it allocates nothing for its bytes.
func readFrameInto(r io.Reader, buf *[]byte) (envelope, []byte, error) {
	b := slices.Grow(*buf, 4)
	at := len(b)
	hdr := b[at : at+4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return envelope{}, nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > MaxFrameSize {
		return envelope{}, nil, fmt.Errorf("proto: frame of %d bytes exceeds limit", n)
	}
	b = slices.Grow(b, n)
	body := b[at : at+n : at+n]
	if _, err := io.ReadFull(r, body); err != nil {
		return envelope{}, nil, err
	}
	*buf = b[:at+n]
	env, err := decodeEnvelope(body)
	if err != nil {
		return envelope{}, nil, err
	}
	return env, body, nil
}

// arenas pools the buffers the server reads frame bodies into, one batch to
// a buffer (*[]byte). A connection takes one once the next frame's first byte
// is there and puts it back when the batch is answered, so an idle
// connection pins none.
var arenas = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledArena bounds the arenas the pool keeps: one a batch of large
// frames grew past it goes to the collector instead.
const maxPooledArena = 64 << 10

// AppendFrame is the one encoder of a tagged payload: it appends d's frame
// body — the JSON envelope {"kind","report"|"summary","dc","boot","seq"} — to
// dst, by hand for either kind (encode.go). The uplink calls it once per
// payload, where the sequence is assigned; those bytes are then the spool
// record, the wire frame and the PDME's journal record (or, for a summary,
// what the aggregator decodes).
func AppendFrame(dst []byte, d *Delivery) ([]byte, error) {
	if d.Summary == nil {
		return AppendReportEnvelope(dst, d.Report, d.DCID, d.Boot, d.Seq)
	}
	return AppendSummaryEnvelope(dst, d.Summary, d.DCID, d.Boot, d.Seq)
}

// DecodeFrame is the one decoder of a frame body — for the server reading the
// wire, the uplink recovering its spool and the PDME replaying its journal —
// so all three derive the same Delivery from the same bytes: a valid payload,
// its sender (the envelope's, else the payload's own) and its delivery tag.
// The result's Frame aliases body.
func DecodeFrame(body []byte) (Delivery, error) {
	env, err := decodeEnvelope(body)
	if err != nil {
		return Delivery{}, err
	}
	return env.delivery(body)
}

// delivery is DecodeFrame past the decode.
func (env *envelope) delivery(body []byte) (Delivery, error) {
	d := Delivery{DCID: env.DCID, Frame: body}
	var err error
	var sender string // what the payload itself says, for a frame that does not
	switch {
	case env.Kind == "report" && env.Report != nil:
		d.Report, sender, err = env.Report, env.Report.DCID, env.Report.Validate()
	case env.Kind == "summary" && env.Summary != nil:
		d.Summary, sender, err = env.Summary, env.Summary.ShardID, env.Summary.Validate()
	default:
		err = errors.New("expected a report, summary or heartbeat frame")
	}
	if err != nil {
		return Delivery{}, err
	}
	if d.DCID == "" {
		d.DCID = sender
	}
	// The tag is the frame's whether or not its reader keeps a dedup window:
	// what a journaling sink marks live is what replaying these bytes marks.
	if env.Seq > 0 {
		d.Boot, d.Seq = env.Boot, env.Seq
	}
	return d, nil
}

// Sink consumes validated reports; the PDME implements this interface. A
// sink may keep a report it is handed — the PDME's report object holds it —
// so a deliverer must not change a report after handing it over.
type Sink interface {
	Deliver(*Report) error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(*Report) error

// Deliver calls the function.
func (f SinkFunc) Deliver(r *Report) error { return f(r) }

// MaxRun bounds a run: how many consecutive frames of one kind the uplink
// keeps in flight for one sender, and how many frames the server reads off a
// connection before it answers them. Per-connection memory is proportional
// to it on both ends.
const MaxRun = 16

// Delivery is the one unit of tagged traffic from spool to sink: a report or
// a fused summary (exactly one is set) with its delivery tag, and that
// payload's own outcome. Client.SendRun fills Dup and Err from the server's
// reply; a BatchSink fills Err. DCID names the sender — the DC, or for a
// summary the forwarding shard. Boot and Seq are zero for an untagged frame.
type Delivery struct {
	Report    *Report
	Summary   *FusedSummary
	DCID      string
	Boot, Seq uint64
	// Frame is the fields above in their one encoded form, the wire frame body
	// (AppendFrame). SendRun writes it as it is, without looking at them; the
	// server sets it to the body it decoded them from, for a journaling sink
	// to record. Nil means not encoded yet. A Frame the server set is valid
	// only until the sink call it came in returns: the server reads later
	// frames into the same memory, so a sink that keeps one copies it. The
	// payload fields hold copies of what they took from it.
	Frame []byte
	// Dup reports that the server had already taken this (DCID, Boot, Seq).
	// Sinks never see it set: the server answers duplicates itself.
	Dup bool
	// Err is why this payload was refused; nil means accepted.
	Err error
}

// BatchSink is a Sink that accepts a run in one call and takes both payload
// kinds, so work it does once per call — a durable PDME's journal write and
// fsync — is shared by the run. The server hands it everything this way: the
// consecutive tagged frames of one sender and one kind that were already on
// the connection, in frame order, or a single frame. The tag is what a
// journaling sink persists so its replay can re-mark the dedup window. Each
// element's Frame is valid only until DeliverBatch returns (Delivery.Frame);
// its Report, as with Sink, the sink may keep.
type BatchSink interface {
	Sink
	// DeliverBatch consumes the run in order and sets each element's Err.
	// Payloads refused for their own sake (a kind this tier does not take
	// included) fail alone; a failure of the shared step fails every payload
	// not yet refused, with nothing applied, and wraps ErrUnavailable.
	DeliverBatch(run []Delivery)
}

// ErrUnavailable is wrapped by a sink that could not take a delivery for a
// reason that is not the delivery's fault — its journal cannot be written.
// The server answers nothing for such a frame: it replies to the frames
// before it and closes the connection, so the sender sees a transport
// failure, keeps the frames spooled and retries (here or, through a shard
// router, at the ring successor) instead of dropping them as rejected.
var ErrUnavailable = errors.New("proto: sink unavailable")

// DefaultIdleTimeout is the server's per-connection read/write deadline: a
// peer that neither completes a frame nor drains a reply within this window
// is presumed dead and its handler goroutine released (shipboard networks
// drop links without FINs; without deadlines a dead peer pins a goroutine
// and its half-written frame forever).
const DefaultIdleTimeout = 2 * time.Minute

// Server accepts report connections and forwards validated reports to a
// sink. Create with NewServer, then Serve (blocking) or start via Start.
type Server struct {
	sink Sink
	// hbSink, when set, receives validated heartbeat frames; without it
	// heartbeats are acked and discarded (liveness still confirmed).
	hbSink HeartbeatSink
	// dedup, when set, suppresses redelivered report frames (same DC id and
	// sequence) with a duplicate ack instead of a second sink delivery.
	dedup *Dedup
	// idleTimeout bounds each read/write on a connection (0 disables).
	idleTimeout time.Duration
	// senderMu serializes the dedup-check → sink-deliver → dedup-mark span
	// per sender id (striped by hash). A sender normally pipelines frames
	// over one connection, but a client whose send timeout fires while the
	// sink is still fusing the frame redials and resends the same tag on a
	// fresh connection; the two handler goroutines would otherwise both pass
	// the Seen check before either Marks, fusing one report twice.
	senderMu [64]sync.Mutex

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewServer returns a server delivering reports to sink.
func NewServer(sink Sink) *Server {
	return &Server{sink: sink, conns: make(map[net.Conn]struct{}),
		idleTimeout: DefaultIdleTimeout}
}

// SetIdleTimeout overrides the per-connection read/write deadline; 0
// disables deadlines. Call before Start.
func (s *Server) SetIdleTimeout(d time.Duration) { s.idleTimeout = d }

// SetHeartbeatSink routes heartbeat frames to a fleet-health consumer.
// Call before Start.
func (s *Server) SetHeartbeatSink(hs HeartbeatSink) { s.hbSink = hs }

// SetDedup installs a duplicate-suppression window shared across all
// connections (and, if reused across Start cycles, across server restarts).
// Call before Start.
func (s *Server) SetDedup(d *Dedup) { s.dedup = d }

// Start begins listening on addr ("host:port", empty port for ephemeral) and
// serving in a background goroutine. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("proto: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = ln.Close() // best-effort: the listener was never exposed
		return "", errors.New("proto: server already closed")
	}
	s.listener = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop(ln)
	}()
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close() // best-effort: shutting down anyway
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

func (s *Server) handle(conn net.Conn) {
	defer func() {
		_ = conn.Close() // best-effort: frame-level errors already ended the session
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	c := &session{srv: s, bw: bufio.NewWriter(conn)}
	for {
		if s.idleTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.idleTimeout))
		}
		// Wait for the next frame holding no arena: an idle connection pins
		// none.
		if _, err := br.Peek(1); err != nil {
			return // connection closed or idle
		}
		arena := arenas.Get().(*[]byte)
		err := s.serveBatch(conn, br, c, arena)
		if cap(*arena) <= maxPooledArena {
			*arena = (*arena)[:0]
			arenas.Put(arena)
		}
		if err != nil {
			return // connection closed, idle, or corrupted framing
		}
	}
}

// serveBatch reads one batch of frames into arena — the next frame and those
// already buffered behind it, up to MaxRun — answers them, and flushes the
// replies. Every sink call that sees a body in arena returns within it.
func (s *Server) serveBatch(conn net.Conn, br *bufio.Reader, c *session, arena *[]byte) error {
	env, body, err := readFrameInto(br, arena)
	if err != nil {
		return err
	}
	if s.idleTimeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(s.idleTimeout))
	}
	// Drain what the reader already holds before answering: a windowed
	// sender's frames arrive together, and answering them together is what
	// lets a run share one sink call and one flush. A partly buffered frame
	// is a peer in mid-write; the read deadline still bounds it.
	if err := c.take(env, body); err != nil {
		return err
	}
	var rerr error
	for n := 1; n < MaxRun && br.Buffered() > 0; n++ {
		if env, body, rerr = readFrameInto(br, arena); rerr != nil {
			break // the frames before it are still answered
		}
		if err := c.take(env, body); err != nil {
			return err
		}
	}
	if err := c.flushRun(); err != nil {
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	return rerr
}

// session is the answering side of one connection: the payload frames read
// but not yet answered — one run — and the buffered writer replies go to, in
// frame order.
type session struct {
	srv *Server
	bw  *bufio.Writer
	run []Delivery
}

// take routes one inbound frame. A valid report or summary frame joins the
// pending run when it continues it and otherwise starts the next one; every
// other frame is answered on its own, after the run before it.
func (c *session) take(env envelope, body []byte) error {
	var reply envelope
	if env.Kind == "heartbeat" {
		reply = c.srv.processHeartbeat(env)
	} else if d, err := env.delivery(body); err != nil {
		reply = envelope{Kind: "error", Error: err.Error()}
	} else {
		// Summaries and reports of one sender share its sequence space (they
		// ride one spool), so one per-sender window covers both kinds.
		if n := len(c.run); n > 0 && !d.continues(&c.run[n-1]) {
			if err := c.flushRun(); err != nil {
				return err
			}
		}
		c.run = append(c.run, d)
		return nil
	}
	if err := c.flushRun(); err != nil {
		return err
	}
	return writeFrame(c.bw, reply)
}

// continues reports whether d extends the run ending in prev: both tagged,
// one sender incarnation, one kind, sequence ascending. A spooling sender's
// frames always ascend; a repeated or regressing sequence starts a new run,
// so its dedup check runs after the marks of the run that may already hold it.
func (d *Delivery) continues(prev *Delivery) bool {
	return prev.Seq > 0 && d.Seq > prev.Seq && d.Boot == prev.Boot && d.DCID == prev.DCID &&
		(d.Summary == nil) == (prev.Summary == nil)
}

// flushRun accepts the pending run and writes one reply per frame. A frame
// the sink was unavailable for gets none: the replies before it go out and
// the returned error ends the session.
func (c *session) flushRun() error {
	if len(c.run) == 0 {
		return nil
	}
	c.srv.acceptRun(c.run)
	var err error
	for i := 0; i < len(c.run) && err == nil; i++ {
		switch d := &c.run[i]; {
		case errors.Is(d.Err, ErrUnavailable):
			if err = c.bw.Flush(); err == nil {
				err = d.Err
			}
		case d.Err != nil:
			err = writeFrame(c.bw, envelope{Kind: "error", Error: d.Err.Error()})
		default:
			err = writeFrame(c.bw, envelope{Kind: "ack", Dup: d.Dup})
		}
	}
	clear(c.run) // an idle connection pins no decoded payload
	c.run = c.run[:0]
	return err
}

// acceptRun is the exactly-once critical section for both payload kinds: it
// applies dedup and sink delivery to one run of validated frames — tagged
// frames of one sender incarnation in ascending sequence, or a single
// untagged frame. Without a dedup window the run goes straight to the sink,
// tags and all.
func (s *Server) acceptRun(run []Delivery) {
	tagged := s.dedup != nil && run[0].Seq > 0
	if tagged {
		// Hold the sender's stripe across check+deliver+mark so a resend of
		// the same tags racing on another connection observes the marks.
		mu := s.senderLock(run[0].DCID)
		mu.Lock()
		defer mu.Unlock()
		// Every check comes before the run's first mark: a window narrower
		// than the run would otherwise lift its floor over frames not yet
		// checked and swallow them as presumed delivered.
		for i := range run {
			run[i].Dup = s.dedup.Seen(run[i].DCID, run[i].Boot, run[i].Seq)
		}
	}
	for i := 0; i < len(run); {
		if run[i].Dup {
			i++
			continue
		}
		j := i + 1
		for j < len(run) && !run[j].Dup {
			j++
		}
		s.deliver(run[i:j])
		i = j
	}
	if !tagged {
		return
	}
	// Record a sequence only after the sink accepted the payload, so a
	// failed delivery can be retried without the window swallowing it (the
	// mark a journaling sink makes itself is idempotent with this one).
	for i := range run {
		if d := &run[i]; !d.Dup && d.Err == nil {
			s.dedup.Mark(d.DCID, d.Boot, d.Seq)
		}
	}
}

// deliver hands a run to the sink: whole to a BatchSink; to a plain Sink the
// reports one by one, and a summary is refused — a shard must not believe
// its upward flow is landing when the receiver cannot store it.
func (s *Server) deliver(run []Delivery) {
	if sink, ok := s.sink.(BatchSink); ok {
		sink.DeliverBatch(run)
		return
	}
	for i := range run {
		if d := &run[i]; d.Report != nil {
			d.Err = s.sink.Deliver(d.Report)
		} else {
			d.Err = errors.New("server's sink takes no summaries (not an aggregator)")
		}
	}
}

// processHeartbeat validates one heartbeat frame and hands it to the
// fleet-health consumer.
func (s *Server) processHeartbeat(env envelope) envelope {
	if env.Heartbeat == nil {
		return envelope{Kind: "error", Error: "heartbeat frame without heartbeat"}
	}
	if err := env.Heartbeat.Validate(); err != nil {
		return envelope{Kind: "error", Error: err.Error()}
	}
	if s.hbSink != nil {
		if err := s.hbSink.ObserveHeartbeat(env.Heartbeat); err != nil {
			return envelope{Kind: "error", Error: err.Error()}
		}
	}
	return envelope{Kind: "ack"}
}

// senderLock returns the stripe mutex covering one sender id.
func (s *Server) senderLock(id string) *sync.Mutex {
	h := fnv.New32a()
	_, _ = h.Write([]byte(id))
	return &s.senderMu[h.Sum32()%uint32(len(s.senderMu))]
}

// Close stops the listener and all active connections, waiting for handler
// goroutines to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.listener
	for c := range s.conns {
		_ = c.Close() // best-effort: forcing handlers to unblock
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// ErrRejected wraps application-level refusals: the server read the frame
// and answered with an error envelope (validation failure, unknown
// condition, sink error). Transport errors never wrap it, so callers can
// tell "the link is down — redial" from "the report is unacceptable".
var ErrRejected = errors.New("proto: server rejected report")

// Client is a connection to a report server; safe for concurrent use
// (requests are serialized on the single connection).
type Client struct {
	timeout time.Duration

	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	// buf is the report-frame encode scratch, reused across sends under mu
	// so steady-state report delivery does not allocate a body per frame.
	buf []byte
	// reply is what replies are read into, one at a time, under mu.
	reply []byte
}

// Dial connects to a report server at addr.
func Dial(addr string) (*Client, error) {
	return DialContext(context.Background(), addr)
}

// DialContext connects to a report server at addr, honouring the context
// deadline for connection establishment. A client lives as long as its one
// connection: after a transport failure, dial a fresh one.
func DialContext(ctx context.Context, addr string) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("proto: dial %s: %w", addr, err)
	}
	return &Client{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}, nil
}

// SetTimeout bounds each subsequent send (write + ack read) with a
// connection deadline; 0 (the default) disables per-send deadlines.
func (c *Client) SetTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.timeout = d
}

// exchange writes one envelope and reads the reply under the client lock,
// applying the per-send deadline when configured.
func (c *Client) exchange(env envelope) (envelope, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return envelope{}, errors.New("proto: client closed")
	}
	if c.timeout > 0 {
		_ = c.conn.SetDeadline(time.Now().Add(c.timeout))
	}
	if err := writeFrame(c.bw, env); err != nil {
		return envelope{}, err
	}
	if err := c.bw.Flush(); err != nil {
		return envelope{}, err
	}
	return c.readReply()
}

// readReply reads one reply frame into the client's reply buffer. Callers
// hold mu.
func (c *Client) readReply() (envelope, error) {
	c.reply = c.reply[:0]
	reply, _, err := readFrameInto(c.br, &c.reply)
	return reply, err
}

// SendRun is the one tagged exchange: it writes every frame of the run — its
// Frame as it is, else the payload encoded by AppendFrame into the client's
// reused buffer — flushes once, then reads the replies in order into each
// element's Dup and Err (a refusal wraps ErrRejected). It returns how many
// frames were answered; err is the transport failure that cut the exchange
// short, and the frames from that index on may or may not have reached the
// server — resend them. The per-send deadline, when configured, covers the
// whole exchange. Payloads must be valid.
func (c *Client) SendRun(run []Delivery) (answered int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return 0, errors.New("proto: client closed")
	}
	if c.timeout > 0 {
		_ = c.conn.SetDeadline(time.Now().Add(c.timeout))
	}
	var encErr error
	for i := range run {
		body := run[i].Frame
		if body == nil {
			if body, encErr = AppendFrame(c.buf[:0], &run[i]); encErr != nil {
				// Nothing of this frame is on the wire: the run ends before it.
				run = run[:i]
				break
			}
			c.buf = body[:0]
		}
		if err := writeRawFrame(c.bw, body); err != nil {
			return 0, err
		}
	}
	if err := c.bw.Flush(); err != nil {
		return 0, err
	}
	for i := range run {
		reply, err := c.readReply()
		if err != nil {
			return i, err
		}
		switch reply.Kind {
		case "ack":
			run[i].Dup, run[i].Err = reply.Dup, nil
		case "error":
			run[i].Dup, run[i].Err = false, fmt.Errorf("%w: %s", ErrRejected, reply.Error)
		default:
			return i, fmt.Errorf("proto: unexpected reply kind %q", reply.Kind)
		}
	}
	return len(run), encErr
}

// send validates one report and performs its exchange: the run of one.
func (c *Client) send(d Delivery) (dup bool, err error) {
	if err := d.Report.Validate(); err != nil {
		return false, err
	}
	one := [1]Delivery{d}
	if _, err := c.SendRun(one[:]); err != nil {
		return false, err
	}
	return one[0].Dup, one[0].Err
}

// Send validates and delivers one report, waiting for the server's ack. A
// server-side delivery failure is returned as an error wrapping ErrRejected.
func (c *Client) Send(r *Report) error {
	_, err := c.send(Delivery{Report: r})
	return err
}

// SendTagged delivers a report stamped with the DC's boot incarnation and
// monotonic sequence number, enabling server-side dedup of at-least-once
// redelivery. It returns whether the server acked it as an already-seen
// duplicate.
func (c *Client) SendTagged(r *Report, boot, seq uint64) (dup bool, err error) {
	return c.send(Delivery{Report: r, DCID: r.DCID, Boot: boot, Seq: seq})
}

// Deliver implements Sink, so a Client can stand in wherever an in-process
// sink is expected (e.g. as a DC uplink).
func (c *Client) Deliver(r *Report) error { return c.Send(r) }

// Close closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

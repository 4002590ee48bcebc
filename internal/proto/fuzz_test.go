package proto_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/fusion"
	"repro/internal/oosm"
	"repro/internal/pdme"
	"repro/internal/proto"
	"repro/internal/relstore"
	"repro/internal/seglog"
	"repro/internal/uplink"
)

func fuzzReport() *proto.Report {
	return &proto.Report{
		DCID: "dc-1", KnowledgeSourceID: "ks/dli", SensedObjectID: "motor/1",
		MachineConditionID: "motor imbalance", Severity: 0.6, Belief: 0.9,
		Explanation: "1x radial \"vibration\" elevated\n", Timestamp: time.Date(1998, 8, 15, 12, 0, 0, 0, time.UTC),
		Prognostics: proto.PrognosticVector{{Probability: 0.1, HorizonSeconds: 14 * 86400}, {Probability: 0.9, HorizonSeconds: 60 * 86400}},
	}
}

func fuzzSummary() *proto.FusedSummary {
	return &proto.FusedSummary{
		ShardID: "shard-a", Component: "chiller/14", Condition: "refrigerant low charge", Group: "refrigerant",
		Belief: 0.8125, Plausibility: 0.9375, Unknown: 0.125, Reports: 7, Reliability: 0.96, Degraded: true,
		UpdatedAt: time.Date(1998, 8, 15, 12, 30, 0, 0, time.UTC),
	}
}

// frameBody encodes one delivery through the one encoder for use as a seed.
func frameBody(tb testing.TB, d proto.Delivery) []byte {
	tb.Helper()
	body, err := proto.AppendFrame(nil, &d)
	if err != nil {
		tb.Fatalf("seed frame: %v", err)
	}
	return body
}

// storedBodies drives the two owners that keep frames on disk through their
// public write paths — an uplink with nowhere to send, a journaled engine —
// and returns every record body their files then hold: the frames the other
// two readers of DecodeFrame meet, plus what sits beside them (a journaled
// heartbeat), which the decoder must refuse without harm.
func storedBodies(tb testing.TB) [][]byte {
	tb.Helper()
	dir := tb.TempDir()
	check := func(err error) {
		tb.Helper()
		if err != nil {
			tb.Fatalf("seed: %v", err)
		}
	}
	var bodies [][]byte
	collect := func(r seglog.Record) error {
		if len(r.Body) > 0 {
			bodies = append(bodies, bytes.Clone(r.Body))
		}
		return nil
	}

	up, err := uplink.New(uplink.Config{Addr: "127.0.0.1:1", DCID: "dc-1", SpoolDir: filepath.Join(dir, "spool"),
		BackoffMin: time.Hour, BackoffMax: time.Hour})
	check(err)
	check(up.Deliver(fuzzReport()))
	check(up.DeliverSummary(fuzzSummary()))
	check(up.Close())
	_, err = seglog.Scan(filepath.Join(dir, "spool", seglog.FileName("dc-1", ".spool")),
		seglog.Format{Magic: "MPROSUP3", MaxBody: 1 << 20}, collect)
	check(err)

	model, err := oosm.NewModel(relstore.NewMemory())
	check(err)
	engine, err := pdme.New(model, fusion.Groups{"structural": {"motor imbalance", "motor misalignment"}})
	check(err)
	_, err = engine.OpenJournal(pdme.JournalOptions{Dir: filepath.Join(dir, "journal"), CheckpointEvery: -1})
	check(err)
	check(engine.DeliverTagged(fuzzReport(), "dc-1", 7, 3))
	check(engine.Deliver(fuzzReport()))
	check(engine.ObserveHeartbeat(&proto.Heartbeat{DCID: "dc-1", SentAt: fuzzReport().Timestamp}))
	// Read before Close: its final checkpoint empties the WAL.
	_, err = seglog.Scan(filepath.Join(dir, "journal", "wal.mprosj"),
		seglog.Format{Magic: "MPROSWJ2", MaxBody: 1 << 20}, collect)
	check(err)
	engine.Close()

	if len(bodies) != 5 { // spool: report, summary; WAL: tagged report, untagged report, heartbeat
		tb.Fatalf("seed: %d stored bodies, want 5", len(bodies))
	}
	return bodies
}

// FuzzDecodeFrame feeds arbitrary bytes to the one frame-body decoder —
// the function the server calls on what it read off the wire, the uplink on
// its spool records and the PDME on its journal records. It must never
// panic, and it must agree with an independent oracle, a plain json.Unmarshal
// of the envelope: the same envelope (the server's and the client's reads of
// acks included) and the same Delivery, or an error on both sides. A body it
// accepts holds exactly one valid payload, is kept as the delivery's Frame,
// and survives the one encoder: re-encoded it is json.Marshal's bytes of the
// same envelope, and decoded again it names the same sender and tag and
// re-encodes to the same bytes.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(frameBody(f, proto.Delivery{Report: fuzzReport(), DCID: "dc-1", Boot: 7, Seq: 3}))
	f.Add([]byte(`{"kind":"ack","dc":"dc-1","seq":3,"dup":true}`))
	f.Add([]byte(`{"kind":"error","error":"validate: severity out of range"}`))
	// What a length-prefixed reader would have made of these is not this
	// decoder's business: to it they are simply not frames.
	f.Add([]byte{0x00, 0x00})
	f.Add([]byte{0x00, 0x00, 0x00, 0x05, '{', '}'})
	f.Add(binary.BigEndian.AppendUint32(nil, proto.MaxFrameSize+1))
	f.Add([]byte(`{"kind":"report"}`)) // the kind without its payload
	// Summary frames: a whole one, one torn mid-body, and the kind without
	// its payload.
	summary := frameBody(f, proto.Delivery{Summary: fuzzSummary(), DCID: "shard-a", Boot: 41, Seq: 9})
	f.Add(summary)
	f.Add(summary[:len(summary)/2])
	f.Add([]byte(`{"kind":"summary","dc":"shard-a","boot":41,"seq":10}`))
	// An untagged frame (the sender is the payload's own), a frame from a
	// newer sender with a field this decoder does not know, and the bodies a
	// real spool file and a real WAL hold.
	f.Add(frameBody(f, proto.Delivery{Report: fuzzReport()}))
	f.Add(bytes.Replace(summary, []byte(`{"kind":`), []byte(`{"hops":2,"kind":`), 1))
	// The same report laid out as no writer lays it out, which the hand reader
	// still takes, and with a \u escape, which it leaves to json.Unmarshal.
	f.Add([]byte(` {"seq":3, "dc":"dc-1" ,"report":{"timestamp":"1998-08-15T12:00:00+02:00","belief":0.9,"severity":6E-1,` +
		`"suspect_channels":[],"prognostics":[{"time":1209600,"probability":0.1}],"dc_id":"dc-\/1"},"boot":7,"kind":"report"}` + "\n"))
	f.Add(bytes.Replace(frameBody(f, proto.Delivery{Report: fuzzReport(), DCID: "dc-1", Boot: 7, Seq: 3}),
		[]byte(`"ks/dli"`), []byte(`"ks\u002fdl\u00ed"`), 1))
	f.Add([]byte(`{"kind":"ack","dup":true}`))
	// The summary laid out as no writer lays it out — reordered keys and
	// whitespace, which the hand reader takes — and with what it leaves to
	// json.Unmarshal: a null vector, a repeated key, a \u escape.
	reordered := []byte(" {\"seq\":9,\"summary\" : {\"updated_at\":\"1998-08-15T12:30:00+02:00\", \"prognostics\":[{\"time\":86400,\"probability\":0.25}]," +
		"\"degraded\":true,\"reliability\":0.96,\"reports\":7,\"unknown\":0.125,\"plausibility\":0.9375,\"belief\":0.8125," +
		"\"group\":\"refrigerant\",\"condition\":\"refrigerant low charge\",\"component\":\"chiller/14\",\"shard_id\":\"shard-a\"},\n" +
		"\t\"boot\":41,\"dc\":\"shard-a\",\"kind\":\"summary\"}\r\n")
	f.Add(reordered)
	f.Add(bytes.Replace(reordered, []byte(`"prognostics":[{"time":86400,"probability":0.25}]`), []byte(`"prognostics":null`), 1))
	f.Add(bytes.Replace(reordered, []byte(`"prognostics":[{"time":86400,"probability":0.25}]`), []byte(`"prognostics":[]`), 1))
	f.Add(bytes.Replace(reordered, []byte(`"reports":7`), []byte(`"reports":7,"belief":0.5`), 1))
	f.Add(bytes.Replace(summary, []byte(`"chiller/14"`), []byte(`"chiller\u002f14"`), 1))
	for _, body := range storedBodies(f) {
		f.Add(body)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var ref proto.Envelope
		refErr := json.Unmarshal(data, &ref)
		env, err := proto.DecodeEnvelope(data)
		if (err == nil) != (refErr == nil) || err == nil && !reflect.DeepEqual(env, ref) {
			t.Fatalf("envelope %+v (%v), json.Unmarshal %+v (%v)", env, err, ref, refErr)
		}
		d, err := proto.DecodeFrame(data)
		if refErr == nil {
			want, wantErr := proto.DeliveryOf(&ref, data)
			if (err == nil) != (wantErr == nil) || err == nil && !reflect.DeepEqual(d, want) {
				t.Fatalf("delivery %+v (%v), json.Unmarshal's %+v (%v)", d, err, want, wantErr)
			}
		}
		if err != nil {
			return // rejected input: any error is acceptable, panics are not
		}
		switch {
		case d.Report != nil && d.Summary == nil:
			err = d.Report.Validate()
		case d.Summary != nil && d.Report == nil:
			err = d.Summary.Validate()
		default:
			t.Fatalf("accepted frame holds report %v and summary %v, want exactly one", d.Report, d.Summary)
		}
		if err != nil {
			t.Fatalf("accepted an invalid payload: %v", err)
		}
		if !bytes.Equal(d.Frame, data) {
			t.Fatalf("Frame is not the body decoded:\n got %q\nwant %q", d.Frame, data)
		}
		first, err := proto.AppendFrame(nil, &d)
		if err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
		encoded := proto.Envelope{Kind: "report", Report: d.Report, DCID: d.DCID, Boot: d.Boot, Seq: d.Seq}
		if d.Summary != nil {
			encoded = proto.Envelope{Kind: "summary", Summary: d.Summary, DCID: d.DCID, Boot: d.Boot, Seq: d.Seq}
		}
		if want, err := json.Marshal(encoded); err != nil || !bytes.Equal(first, want) {
			t.Fatalf("%s frame is not json.Marshal's (%v):\n got %s\nwant %s", encoded.Kind, err, first, want)
		}
		d2, err := proto.DecodeFrame(first)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if d2.DCID != d.DCID || d2.Boot != d.Boot || d2.Seq != d.Seq {
			t.Fatalf("tag changed across a round trip: (%q, %d, %d) then (%q, %d, %d)", d.DCID, d.Boot, d.Seq, d2.DCID, d2.Boot, d2.Seq)
		}
		second, err := proto.AppendFrame(nil, &d2)
		if err != nil || !bytes.Equal(first, second) {
			t.Fatalf("round trip not stable (%v):\n first=%s\nsecond=%s", err, first, second)
		}
	})
}

// FuzzPrognosticsJSON holds the prognostic vector's hand writer — the OOSM
// property text — to encoding/json: writing a vector, made of the input's
// bytes read as floats (NaN, infinities and subnormals included) or of what
// json.Unmarshal reads from them, is json.Marshal's bytes or an error on both
// sides.
func FuzzPrognosticsJSON(f *testing.F) {
	for _, seed := range []string{
		`null`, `[]`, ` [ ] `, `[{}]`, `[null]`, `[{"probability":null}]`, `[{"Probability":1}]`,
		`[{"probability":0.2,"time":1209600},{"probability":0.7,"time":3888000}]`,
		`[{"time":1e-7,"probability":-0},{"probability":1e21,"time":5e-324,"time":1}]`,
		`[{"probability":1e999,"time":1}]`, `[{"probability":0.5,"time":01}]`, `[1]`, `{}`, `"[]"`,
	} {
		f.Add([]byte(seed))
	}
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, math.Float64bits(-0.0)), math.Float64bits(1e-7)))
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, math.Float64bits(5e-324)), math.Float64bits(math.NaN())))

	f.Fuzz(func(t *testing.T, data []byte) {
		var read proto.PrognosticVector
		_ = json.Unmarshal(data, &read) // on an error, whatever it read so far is a vector too
		var fromBits proto.PrognosticVector
		for i := 0; i+16 <= len(data); i += 16 {
			fromBits = append(fromBits, proto.PrognosticPoint{
				Probability:    math.Float64frombits(binary.LittleEndian.Uint64(data[i:])),
				HorizonSeconds: math.Float64frombits(binary.LittleEndian.Uint64(data[i+8:])),
			})
		}
		for _, v := range []proto.PrognosticVector{fromBits, read} {
			mine, err := proto.AppendPrognosticsJSON(nil, v)
			ref, refErr := json.Marshal(v)
			if (err == nil) != (refErr == nil) || err == nil && !bytes.Equal(mine, ref) {
				t.Fatalf("wrote %s (%v), json.Marshal %s (%v) for %#v", mine, err, ref, refErr, v)
			}
		}
	})
}

// FuzzSummaryEnvelope holds the summary frame's hand writer to encoding/json
// over every field: AppendFrame's bytes for a summary made of the inputs —
// any strings, any floats (NaN, infinities, subnormals and -0 included), any
// count, a vector of the input's bytes read as floats, any instant in any
// zone, any tag — are json.Marshal's bytes of the same envelope, or an error
// on both sides.
func FuzzSummaryEnvelope(f *testing.F) {
	s := fuzzSummary()
	f.Add(s.ShardID, s.Component, s.Condition, s.Group, s.Belief, s.Plausibility, s.Unknown, s.Reliability,
		s.Reports, s.Degraded, []byte(nil), s.UpdatedAt.UnixNano(), 0, "shard-a", uint64(41), uint64(9))
	f.Add("<&>\u2028", "\xff\x01\"\\", "é❤ 冷", "", math.Copysign(0, -1), 5e-324, 1e21, math.Nextafter(1, 0),
		-3, false, binary.LittleEndian.AppendUint64(make([]byte, 8), math.Float64bits(1e-7)), int64(-1), 19800, "", uint64(0), uint64(1<<64-1))
	f.Add("s", "c", "k", "g", math.NaN(), math.Inf(1), 0.0, 1.0, 0, true, []byte{}, int64(1)<<62, -86399, "s", uint64(1), uint64(0))
	f.Fuzz(func(t *testing.T, shardID, component, condition, group string, belief, plausibility, unknown, reliability float64,
		reports int, degraded bool, vector []byte, unixNano int64, offset int, dcid string, boot, seq uint64) {
		var vec proto.PrognosticVector
		if vector != nil {
			vec = proto.PrognosticVector{}
		}
		for i := 0; i+16 <= len(vector); i += 16 {
			vec = append(vec, proto.PrognosticPoint{
				Probability:    math.Float64frombits(binary.LittleEndian.Uint64(vector[i:])),
				HorizonSeconds: math.Float64frombits(binary.LittleEndian.Uint64(vector[i+8:])),
			})
		}
		fs := &proto.FusedSummary{
			ShardID: shardID, Component: component, Condition: condition, Group: group,
			Belief: belief, Plausibility: plausibility, Unknown: unknown, Reports: reports,
			Reliability: reliability, Degraded: degraded, Prognostics: vec,
			UpdatedAt: time.Unix(0, unixNano).In(time.FixedZone("", offset)),
		}
		mine, err := proto.AppendFrame(nil, &proto.Delivery{Summary: fs, DCID: dcid, Boot: boot, Seq: seq})
		ref, refErr := json.Marshal(proto.Envelope{Kind: "summary", Summary: fs, DCID: dcid, Boot: boot, Seq: seq})
		if (err == nil) != (refErr == nil) || err == nil && !bytes.Equal(mine, ref) {
			t.Fatalf("wrote %s (%v), json.Marshal %s (%v)", mine, err, ref, refErr)
		}
	})
}

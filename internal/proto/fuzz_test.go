package proto

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"testing"
)

// frameBytes encodes one envelope to its wire form for use as a fuzz seed.
func frameBytes(tb testing.TB, env envelope) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, env); err != nil {
		tb.Fatalf("seed frame: %v", err)
	}
	return buf.Bytes()
}

// FuzzDecodeFrame feeds arbitrary bytes to the wire-frame decoder. The
// decoder must never panic, must reject oversized length prefixes before
// allocating, and any frame it accepts must survive an encode/decode
// round trip to the same canonical JSON.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(frameBytes(f, envelope{Kind: "report", Report: validReport(), DCID: "dc-1", Boot: 7, Seq: 3}))
	f.Add(frameBytes(f, envelope{Kind: "ack", DCID: "dc-1", Seq: 3, Dup: true}))
	f.Add(frameBytes(f, envelope{Kind: "error", Error: "validate: severity out of range"}))
	// Torn header, torn body, and a length prefix past the frame limit.
	f.Add([]byte{0x00, 0x00})
	f.Add([]byte{0x00, 0x00, 0x00, 0x05, '{', '}'})
	f.Add(binary.BigEndian.AppendUint32(nil, MaxFrameSize+1))
	f.Add([]byte(`{"kind":"report"}`)) // no length prefix at all
	// Summary frames: a whole one, one torn mid-body, and the kind without
	// its payload.
	summary := frameBytes(f, envelope{Kind: "summary", Summary: validSummary(), DCID: "shard-a", Boot: 41, Seq: 9})
	f.Add(summary)
	f.Add(summary[:len(summary)/2])
	f.Add(frameBytes(f, envelope{Kind: "summary", DCID: "shard-a", Boot: 41, Seq: 10}))

	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return // rejected input: any error is acceptable, panics are not
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, env); err != nil {
			t.Fatalf("decoded envelope failed to re-encode: %v", err)
		}
		env2, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		j1, err := json.Marshal(env)
		if err != nil {
			t.Fatalf("marshal first decode: %v", err)
		}
		j2, err := json.Marshal(env2)
		if err != nil {
			t.Fatalf("marshal second decode: %v", err)
		}
		if !bytes.Equal(j1, j2) {
			t.Fatalf("round trip not stable:\n first=%s\nsecond=%s", j1, j2)
		}
	})
}

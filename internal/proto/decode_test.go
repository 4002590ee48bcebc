package proto

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// referenceEnvelope decodes body the way every frame was decoded before the
// hand reader: json.Unmarshal into a fresh envelope.
func referenceEnvelope(body []byte) (envelope, error) {
	var env envelope
	err := json.Unmarshal(body, &env)
	return env, err
}

// assertReaderTakes requires the hand reader to accept body and to decode it
// to exactly what json.Unmarshal makes of it.
func assertReaderTakes(t *testing.T, body []byte) {
	t.Helper()
	var got envelope
	if !readEnvelope(body, &got) {
		t.Fatalf("hand reader declined %s", body)
	}
	want, err := referenceEnvelope(body)
	if err != nil {
		t.Fatalf("reference refused %s: %v", body, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("hand reader and json.Unmarshal differ on %s:\n got %+v\nwant %+v", body, got, want)
	}
}

// TestReadEnvelopeTakesWhatTheWritersEmit: the report frames
// AppendReportEnvelope writes, and both acks, are read by hand, to the
// envelope json.Unmarshal makes of them — and so are the same frames laid out
// differently (whitespace, key order, escapes the writer does not use). A
// frame whose strings hold what the writer escapes as \uXXXX — a control
// character, < > &, U+2028/U+2029, invalid UTF-8 — is one the reference
// decodes.
func TestReadEnvelopeTakesWhatTheWritersEmit(t *testing.T) {
	for _, r := range encodeTestReports() {
		for _, tag := range []struct {
			dcid      string
			boot, seq uint64
		}{{}, {r.DCID, 3, 41}, {"other-dc", 0, 7}} {
			body, err := AppendReportEnvelope(nil, r, tag.dcid, tag.boot, tag.seq)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(body, []byte(`\u`)) {
				assertReaderTakes(t, body)
				continue
			}
			got, err := decodeEnvelope(body)
			if want, _ := referenceEnvelope(body); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("decoded %+v (%v), json.Unmarshal %+v", got, err, want)
			}
		}
	}
	for _, tag := range []struct {
		dcid      string
		boot, seq uint64
	}{{}, {"shard-a", 3, 41}, {"shard-b", 0, 7}} {
		fs := encodeTestSummary()
		for _, v := range []PrognosticVector{fs.Prognostics, nil, {}} {
			fs.Prognostics = v
			body, err := AppendSummaryEnvelope(nil, fs, tag.dcid, tag.boot, tag.seq)
			if err != nil {
				t.Fatal(err)
			}
			assertReaderTakes(t, body)
		}
	}
	for _, body := range [][]byte{ackBody, dupAckBody} {
		assertReaderTakes(t, body)
	}
	for _, body := range []string{
		" {\n\t\"seq\" : 9 , \"dup\":false,\"kind\":\"ack\" ,\"boot\":1}\r\n",
		`{"seq":3,"report":{"timestamp":"1998-08-15T12:00:00+02:00","belief":1E-3,"severity":-0.0,` +
			`"suspect_channels":[],"prognostics":[],"dc_id":"a\/b\t\"c\"\\"},"dc":"a/b\t\"c\"\\","kind":"report"}`,
		`{"kind":"report","report":{"prognostics":[{},{"time":1.5e+2,"probability":0.25}],"suspect_channels":["x","é❤"]}}`,
		"{\"dc\":\"s\",\"summary\" : {\"updated_at\":\"1998-08-15T12:00:00-07:00\",\"degraded\":false,\"reports\":0,\"prognostics\":[ ]," +
			"\"belief\":-0,\"shard_id\":\"s\",\"group\":\"\",\"reliability\":1E0},\"kind\":\"summary\"}\n",
	} {
		assertReaderTakes(t, []byte(body))
	}
}

// TestReadEnvelopeDeclines: input outside the hand reader's subset is
// declined, and the frame decoder then returns what json.Unmarshal makes of
// it — a newer sender's field and a \u escape decode as before.
func TestReadEnvelopeDeclines(t *testing.T) {
	canonical, err := AppendReportEnvelope(nil, encodeTestReports()[1], "dc-2", 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	withField := func(field string) []byte {
		return bytes.Replace(canonical, []byte(`{"kind":"report",`), []byte(`{"kind":"report",`+field+`,`), 1)
	}
	summary, err := AppendSummaryEnvelope(nil, encodeTestSummary(), "shard-a", 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	inSummary := func(old, new string) []byte {
		if !bytes.Contains(summary, []byte(old)) {
			t.Fatalf("%s not in %s", old, summary)
		}
		return bytes.Replace(summary, []byte(old), []byte(new), 1)
	}
	for name, body := range map[string][]byte{
		"newer sender's field": withField(`"hops":[1,{"via":"relay"}]`),
		"case variant":         withField(`"Seq":6`),
		"repeated key":         withField(`"dc":"dc-2"`),
		"null":                 withField(`"dup":null`),
		"null report field":    bytes.Replace(canonical, []byte(`"dc_id":"dc-2"`), []byte(`"dc_id":null`), 1),
		"u escape":             bytes.Replace(canonical, []byte(`"dc-2"`), []byte(`"dc\u002d2"`), 1),
		"invalid UTF-8":        bytes.Replace(canonical, []byte(`"stiction"`), []byte("\"sti\xffction\""), 1),
		"trailing bytes":       append(bytes.Clone(canonical), " {}"...),
		"heartbeat":            []byte(`{"kind":"heartbeat","heartbeat":{"dc_id":"dc-1"}}`),
		"null vector":          inSummary(`"updated_at"`, `"prognostics":null,"updated_at"`),
		"negative count":       inSummary(`"reports":7`, `"reports":-7`),
		"count from a float":   inSummary(`"reports":7`, `"reports":7e0`),
		"repeated summary key": inSummary(`"belief":`, `"group":"other","belief":`),
		"u escape in summary":  inSummary(`"shard-a"`, `"shard\u002da"`),
		"summary field":        inSummary(`"unknown"`, `"hops":2,"unknown"`),
		"error":                []byte(`{"kind":"error","error":"no"}`),
		"no kind":              []byte(`{"dc":"dc-1","seq":1}`),
		"uint from a float":    withField(`"boot":5.0`),
		"leading zero":         bytes.Replace(canonical, []byte(`"seq":6`), []byte(`"seq":06`), 1),
		"float out of range":   bytes.Replace(canonical, []byte(`"severity":1`), []byte(`"severity":1e999`), 1),
		"bad timestamp":        bytes.Replace(canonical, []byte(`"timestamp":"`), []byte(`"timestamp":"x`), 1),
		"torn":                 canonical[:len(canonical)-1],
	} {
		var env envelope
		if readEnvelope(body, &env) {
			t.Errorf("%s: hand reader took %s", name, body)
			continue
		}
		got, gotErr := decodeEnvelope(body)
		want, wantErr := referenceEnvelope(body)
		if (gotErr == nil) != (wantErr == nil) || gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded %+v (%v), json.Unmarshal %+v (%v)", name, got, gotErr, want, wantErr)
		}
	}
}

// TestAckBodiesAreMarshals: the constant acks are json.Marshal's bytes, and
// writeFrame writes them for exactly the two ack envelopes.
func TestAckBodiesAreMarshals(t *testing.T) {
	for _, env := range []envelope{{Kind: "ack"}, {Kind: "ack", Dup: true}, {Kind: "ack", Error: "x"}} {
		want, err := json.Marshal(env)
		if err != nil {
			t.Fatal(err)
		}
		var frame bytes.Buffer
		if err := writeFrame(&frame, env); err != nil {
			t.Fatal(err)
		}
		if got := frame.Bytes()[4:]; !bytes.Equal(got, want) {
			t.Errorf("writeFrame(%+v) wrote %s, json.Marshal %s", env, got, want)
		}
	}
}

// TestDecodeReportFrameAllocBudget: a report frame decodes with allocations
// only for what the Delivery keeps — the Report, each of its non-empty
// strings, its suspect-channel list and its prognostic vector. The tag's
// sender repeats the report's and costs nothing.
func TestDecodeReportFrameAllocBudget(t *testing.T) {
	r := encodeTestReports()[0]
	r.AdditionalInfo = "seal temperature trending up" // an escaped string costs a scratch buffer too
	body, err := AppendReportEnvelope(nil, r, r.DCID, 3, 41)
	if err != nil {
		t.Fatal(err)
	}
	// Report + 7 strings + 2 suspect channels + their slice + the vector.
	const budget = 1 + 7 + 2 + 1 + 1
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := DecodeFrame(body); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per report frame", allocs)
	if allocs > budget {
		t.Fatalf("decoding a report frame allocates %.0f times, budget %d", allocs, budget)
	}
}

// TestDecodeSummaryFrameAllocBudget: a summary frame decodes with allocations
// only for what the Delivery keeps — the summary, its four strings and its
// prognostic vector. The tag's sender repeats the summary's shard and costs
// nothing.
func TestDecodeSummaryFrameAllocBudget(t *testing.T) {
	fs := encodeTestSummary()
	body, err := AppendSummaryEnvelope(nil, fs, fs.ShardID, 3, 41)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 1 + 4 + 1
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := DecodeFrame(body); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per summary frame", allocs)
	if allocs > budget {
		t.Fatalf("decoding a summary frame allocates %.0f times, budget %d", allocs, budget)
	}
}

package proto

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"
)

func encodeTestReports() []*Report {
	ts := time.Date(2026, 8, 8, 12, 34, 56, 789012345, time.UTC)
	return []*Report{
		{
			DCID:               "dc-chiller-1",
			KnowledgeSourceID:  "vibration",
			SensedObjectID:     "motor",
			MachineConditionID: "imbalance",
			Severity:           0.62,
			Belief:             0.91,
			Explanation:        "1x shaft order dominates",
			Recommendations:    "balance rotor at next window",
			Timestamp:          ts,
			AdditionalInfo:     `quote " backslash \ newline` + "\n\ttab",
			SuspectChannels:    []string{"motor_de_accel", "motor_nde_accel"},
			Prognostics: []PrognosticPoint{
				{Probability: 0.25, HorizonSeconds: 3600},
				{Probability: 0.75, HorizonSeconds: 86400.5},
			},
		},
		{
			DCID:               "dc-2",
			KnowledgeSourceID:  "sbfr",
			SensedObjectID:     "valve",
			MachineConditionID: "stiction",
			Severity:           1,
			Belief:             0.5,
			Timestamp:          ts.In(time.FixedZone("UTC+2", 2*3600)),
		},
		{
			DCID:               "dc-3",
			KnowledgeSourceID:  "wnn",
			SensedObjectID:     "gearbox",
			MachineConditionID: "mesh-wear",
			Severity:           1e-7,
			Belief:             0.123456789012345,
			Explanation:        "control \x01 char and bad utf8 \xff here, plus <html> & unicode é❤",
			Timestamp:          ts.Truncate(time.Second),
		},
		{
			DCID:               "dc-4",
			KnowledgeSourceID:  "fuzzy",
			SensedObjectID:     "condenser",
			MachineConditionID: "fouling",
			Severity:           1e-5,
			Belief:             1,
			Recommendations:    "line\u2028and paragraph\u2029separators",
			Timestamp:          ts.In(time.FixedZone("", -(23*3600 + 59*60))),
			SuspectChannels:    []string{"cond_dp"},
			Prognostics: []PrognosticPoint{
				{Probability: 1e-5, HorizonSeconds: 1.2096e6},
				{Probability: 0.5, HorizonSeconds: 1e21},
			},
		},
	}
}

// encodeTestSummary is a summary frame's payload with every field set.
func encodeTestSummary() *FusedSummary {
	return &FusedSummary{
		ShardID: "shard-a", Component: "chiller/14", Condition: "refrigerant low charge", Group: "refrigerant",
		Belief: 0.8125, Plausibility: 0.9375, Unknown: 0.125, Reports: 7, Reliability: 0.96, Degraded: true,
		Prognostics: PrognosticVector{{Probability: 0.25, HorizonSeconds: 3600}, {Probability: 0.75, HorizonSeconds: 86400.5}},
		UpdatedAt:   time.Date(2026, 8, 8, 12, 34, 56, 789012345, time.UTC),
	}
}

// TestAppendReportEnvelopeDecodeEqual checks the hand-rolled encoder against
// encoding/json byte for byte: every body must equal json.Marshal's of the
// same envelope, and so decode to the same envelope.
func TestAppendReportEnvelopeDecodeEqual(t *testing.T) {
	type tag struct {
		dcid      string
		boot, seq uint64
	}
	tags := []tag{{}, {dcid: "dc-chiller-1", boot: 3, seq: 41}, {dcid: "<dc>&\u2028", seq: 1}}
	for ri, r := range encodeTestReports() {
		for _, tg := range tags {
			got, err := AppendReportEnvelope(nil, r, tg.dcid, tg.boot, tg.seq)
			if err != nil {
				t.Fatalf("report %d: AppendReportEnvelope: %v", ri, err)
			}
			want, err := json.Marshal(envelope{Kind: "report", Report: r, DCID: tg.dcid, Boot: tg.boot, Seq: tg.seq})
			if err != nil {
				t.Fatalf("report %d: json.Marshal: %v", ri, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("report %d tag %+v: bodies differ\nhand-rolled: %s\nreference:   %s", ri, tg, got, want)
			}
		}
	}
}

// TestAppendReportEnvelopeRejects checks the cold-path guards: each report
// refused is one json.Marshal also refuses.
func TestAppendReportEnvelopeRejects(t *testing.T) {
	if _, err := AppendReportEnvelope(nil, nil, "", 0, 0); err == nil {
		t.Error("nil report accepted")
	}
	for _, tc := range []struct {
		name string
		edit func(*Report)
	}{
		{"NaN severity", func(r *Report) { r.Severity = math.NaN() }},
		{"infinite horizon", func(r *Report) { r.Prognostics[1].HorizonSeconds = math.Inf(1) }},
		{"out-of-range year", func(r *Report) { r.Timestamp = time.Date(12000, 1, 1, 0, 0, 0, 0, time.UTC) }},
		{"zone offset of 25 h", func(r *Report) { r.Timestamp = r.Timestamp.In(time.FixedZone("", 25*3600)) }},
		{"zone offset of -24 h", func(r *Report) { r.Timestamp = r.Timestamp.In(time.FixedZone("", -24*3600)) }},
	} {
		bad := encodeTestReports()[0]
		tc.edit(bad)
		if _, err := AppendReportEnvelope(nil, bad, "", 0, 0); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
		if _, err := json.Marshal(envelope{Kind: "report", Report: bad}); err == nil {
			t.Errorf("%s: json.Marshal accepts it, so the encoder must too", tc.name)
		}
	}
}

// TestAppendReportEnvelopeZeroAlloc is the hot-path allocation budget: with a
// preallocated buffer, encoding a full report frame must not touch the heap.
func TestAppendReportEnvelopeZeroAlloc(t *testing.T) {
	r := encodeTestReports()[0]
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = AppendReportEnvelope(buf[:0], r, "dc-chiller-1", 3, 41)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendReportEnvelope allocates %.1f times per frame, want 0", allocs)
	}
}

// TestAppendSummaryEnvelopeRejects: each summary the encoder refuses is one
// json.Marshal also refuses.
func TestAppendSummaryEnvelopeRejects(t *testing.T) {
	if _, err := AppendSummaryEnvelope(nil, nil, "", 0, 0); err == nil {
		t.Error("nil summary accepted")
	}
	for _, tc := range []struct {
		name string
		edit func(*FusedSummary)
	}{
		{"NaN belief", func(s *FusedSummary) { s.Belief = math.NaN() }},
		{"infinite reliability", func(s *FusedSummary) { s.Reliability = math.Inf(-1) }},
		{"infinite horizon", func(s *FusedSummary) { s.Prognostics[1].HorizonSeconds = math.Inf(1) }},
		{"out-of-range year", func(s *FusedSummary) { s.UpdatedAt = time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC) }},
		{"zone offset of 24 h", func(s *FusedSummary) { s.UpdatedAt = s.UpdatedAt.In(time.FixedZone("", 24*3600)) }},
	} {
		bad := encodeTestSummary()
		tc.edit(bad)
		if _, err := AppendSummaryEnvelope(nil, bad, "", 0, 0); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
		if _, err := json.Marshal(envelope{Kind: "summary", Summary: bad}); err == nil {
			t.Errorf("%s: json.Marshal accepts it, so the encoder must too", tc.name)
		}
	}
}

// TestAppendSummaryEnvelopeZeroAlloc: with a warm buffer, encoding a summary
// frame — every field set, vector included — does not touch the heap.
func TestAppendSummaryEnvelopeZeroAlloc(t *testing.T) {
	s := encodeTestSummary()
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = AppendSummaryEnvelope(buf[:0], s, "shard-a", 3, 41)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendSummaryEnvelope allocates %.1f times per frame, want 0", allocs)
	}
}

// TestAppendPrognosticsJSONPinned pins the property text for the floats at
// encoding/json's format boundaries — zero, negative zero, the 'e' thresholds
// below 1e-6 and from 1e21, the smallest subnormal — and for E10's vector,
// against literals and against json.Marshal.
func TestAppendPrognosticsJSONPinned(t *testing.T) {
	point := func(x float64) PrognosticVector { return PrognosticVector{{Probability: x, HorizonSeconds: x}} }
	for _, tc := range []struct {
		v    PrognosticVector
		want string
	}{
		{nil, `null`},
		{PrognosticVector{}, `[]`},
		{point(0), `[{"probability":0,"time":0}]`},
		{point(math.Copysign(0, -1)), `[{"probability":-0,"time":-0}]`},
		{point(1e-7), `[{"probability":1e-7,"time":1e-7}]`},
		{point(1e21), `[{"probability":1e+21,"time":1e+21}]`},
		{point(5e-324), `[{"probability":5e-324,"time":5e-324}]`},
		{PrognosticVector{{Probability: 0.2, HorizonSeconds: 14 * 86400}, {Probability: 0.7, HorizonSeconds: 45 * 86400}},
			`[{"probability":0.2,"time":1209600},{"probability":0.7,"time":3888000}]`},
	} {
		got, err := AppendPrognosticsJSON(nil, tc.v)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want || string(ref) != tc.want {
			t.Errorf("%#v: wrote %s, json.Marshal %s, want %s", tc.v, got, ref, tc.want)
		}
		var back PrognosticVector
		if err = json.Unmarshal(got, &back); err != nil || !reflect.DeepEqual(back, tc.v) {
			t.Errorf("%s read back as %#v (%v)", got, back, err)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := AppendPrognosticsJSON(nil, point(bad)); err == nil {
			t.Errorf("%g written", bad)
		}
	}
}

package proto_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/proto"
	"repro/internal/testkit"
)

const summaryGolden = "testdata/summary_frames.golden"

// goldenSummary is one pinned summary frame: a summary and its delivery tag.
type goldenSummary struct {
	name      string
	s         proto.FusedSummary
	dcid      string
	boot, seq uint64
}

// goldenSummaries are the summaries the golden pins: every float edge a
// summary's masses can take — ±0, the smallest subnormal, 1−2⁻⁵³ and the
// clamp edges 0 and 1 — a nil, an empty and a 7-point vector, Degraded both
// ways, no reports, times in UTC and outside it, strings json.Marshal escapes
// and multi-byte UTF-8, with and without each tag field; then seeded ones.
func goldenSummaries() []goldenSummary {
	at := time.Date(1998, 8, 15, 12, 30, 0, 0, time.UTC)
	base := proto.FusedSummary{
		ShardID: "shard-a", Component: "chiller/14", Condition: "refrigerant low charge", Group: "refrigerant",
		Belief: 0.8125, Plausibility: 0.9375, Unknown: 0.125, Reports: 7, Reliability: 0.96, UpdatedAt: at,
	}
	seven := make(proto.PrognosticVector, 7)
	for i := range seven {
		seven[i] = proto.PrognosticPoint{Probability: float64(i+1) / 7, HorizonSeconds: float64(i+1) * 86400.5}
	}
	oneMinusUlp := math.Nextafter(1, 0) // 1−2⁻⁵³
	edit := func(f func(*proto.FusedSummary)) proto.FusedSummary {
		s := base
		f(&s)
		return s
	}
	out := []goldenSummary{
		{"base", base, "shard-a", 41, 9},
		{"untagged", base, "", 0, 0},
		{"boot-only", base, "shard-a", 41, 0},
		{"foreign-sender", base, "shard-b", 1, 1<<64 - 1},
		{"zeros", edit(func(s *proto.FusedSummary) {
			s.Belief, s.Plausibility, s.Unknown, s.Reliability, s.Reports = 0, 0, 0, 0, 0
		}), "shard-a", 1, 1},
		{"negative-zeros", edit(func(s *proto.FusedSummary) {
			s.Belief, s.Plausibility, s.Unknown, s.Reliability = math.Copysign(0, -1), math.Copysign(0, -1), math.Copysign(0, -1), math.Copysign(0, -1)
		}), "shard-a", 1, 2},
		{"ones", edit(func(s *proto.FusedSummary) {
			s.Belief, s.Plausibility, s.Unknown, s.Reliability = 1, 1, 1, 1
		}), "shard-a", 1, 3},
		{"subnormals", edit(func(s *proto.FusedSummary) {
			s.Belief, s.Plausibility, s.Unknown, s.Reliability = 5e-324, 2.2250738585072014e-308, 1e-7, 4.9406564584124654e-320
		}), "shard-a", 1, 4},
		{"one-minus-ulp", edit(func(s *proto.FusedSummary) {
			s.Belief, s.Plausibility, s.Unknown, s.Reliability = oneMinusUlp, oneMinusUlp, oneMinusUlp, oneMinusUlp
		}), "shard-a", 1, 5},
		{"nil-vector", edit(func(s *proto.FusedSummary) { s.Prognostics = nil }), "shard-a", 1, 6},
		{"empty-vector", edit(func(s *proto.FusedSummary) { s.Prognostics = proto.PrognosticVector{} }), "shard-a", 1, 7},
		{"seven-points", edit(func(s *proto.FusedSummary) { s.Prognostics = seven }), "shard-a", 1, 8},
		{"degraded", edit(func(s *proto.FusedSummary) { s.Degraded, s.Reliability = true, 0.25 }), "shard-a", 1, 9},
		{"no-reports-no-group", edit(func(s *proto.FusedSummary) { s.Reports, s.Group = 0, "" }), "shard-a", 1, 10},
		{"zoned-time", edit(func(s *proto.FusedSummary) {
			s.UpdatedAt = time.Date(1998, 8, 15, 18, 0, 0, 123456789, time.FixedZone("IST", 5*3600+30*60))
		}), "shard-a", 1, 11},
		{"west-time", edit(func(s *proto.FusedSummary) {
			s.UpdatedAt = time.Date(2031, 1, 2, 3, 4, 5, 6000, time.FixedZone("", -(9*3600+45*60)))
		}), "shard-a", 1, 12},
		{"escaped-strings", edit(func(s *proto.FusedSummary) {
			s.ShardID = "shard<&>\u2028a"
			s.Component = "pump \"P-3\"\\aft\t<deck>"
			s.Condition = "bearing & seal\u2029wear\n"
			s.Group = "<structural>"
		}), "shard<&>\u2028a", 2, 1},
		{"multibyte", edit(func(s *proto.FusedSummary) {
			s.ShardID = "schärd-ø"
			s.Component = "kältemaschine/14 — 冷却機"
			s.Condition = "ölmangel 🛢"
			s.Group = "schmierung"
		}), "schärd-ø", 3, 1},
	}
	rng := rand.New(rand.NewPCG(61, 1))
	for i := range 8 {
		s := base
		s.ShardID = fmt.Sprintf("shard-%d", rng.IntN(4))
		s.Component = fmt.Sprintf("machine-%03d", rng.IntN(1000))
		s.Belief = rng.Float64()
		s.Plausibility = s.Belief + (1-s.Belief)*rng.Float64()
		s.Unknown = rng.Float64()
		s.Reliability = rng.Float64()
		s.Reports = rng.IntN(3)
		s.Degraded = rng.IntN(2) == 1
		s.Prognostics = make(proto.PrognosticVector, rng.IntN(4))
		p, h := 0.0, 0.0
		for j := range s.Prognostics {
			p += (1 - p) * rng.Float64()
			h += 1 + rng.Float64()*1e6
			s.Prognostics[j] = proto.PrognosticPoint{Probability: p, HorizonSeconds: h}
		}
		s.UpdatedAt = at.Add(time.Duration(rng.Int64N(int64(365 * 24 * time.Hour))))
		out = append(out, goldenSummary{fmt.Sprintf("seeded-%d", i), s, s.ShardID, rng.Uint64N(1 << 20), rng.Uint64()})
	}
	return out
}

// TestSummaryFramesGolden pins the bytes of summary frames: each is the
// golden line, json.Marshal's bytes of the same envelope, and decodes to a
// summary that re-encodes to the same bytes. Run with -update to rewrite the
// golden from this build.
func TestSummaryFramesGolden(t *testing.T) {
	var lines []string
	for _, g := range goldenSummaries() {
		if err := g.s.Validate(); err != nil {
			t.Fatalf("%s: fixture invalid: %v", g.name, err)
		}
		d := proto.Delivery{Summary: &g.s, DCID: g.dcid, Boot: g.boot, Seq: g.seq}
		body, err := proto.AppendFrame(nil, &d)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		ref, err := json.Marshal(proto.Envelope{Kind: "summary", Summary: &g.s, DCID: g.dcid, Boot: g.boot, Seq: g.seq})
		if err != nil || !bytes.Equal(body, ref) {
			t.Fatalf("%s: frame is not json.Marshal's (%v):\n got %s\nwant %s", g.name, err, body, ref)
		}
		back, err := proto.DecodeFrame(body)
		if err != nil {
			t.Fatalf("%s: decode: %v", g.name, err)
		}
		sender := g.dcid
		if sender == "" {
			sender = g.s.ShardID
		}
		if back.DCID != sender || back.Boot != g.boot && g.seq != 0 || back.Seq != g.seq {
			t.Fatalf("%s: decoded tag (%q, %d, %d)", g.name, back.DCID, back.Boot, back.Seq)
		}
		again, err := proto.AppendFrame(nil, &proto.Delivery{Summary: back.Summary, DCID: g.dcid, Boot: g.boot, Seq: g.seq})
		if err != nil || !bytes.Equal(again, body) {
			t.Fatalf("%s: round trip (%v):\n got %s\nwant %s", g.name, err, again, body)
		}
		if !back.Summary.UpdatedAt.Equal(g.s.UpdatedAt) || back.Summary.Component != g.s.Component {
			t.Fatalf("%s: decoded %+v, want %+v", g.name, back.Summary, g.s)
		}
		lines = append(lines, g.name+"\t"+string(body))
	}
	testkit.Lines(t, summaryGolden, lines)
}

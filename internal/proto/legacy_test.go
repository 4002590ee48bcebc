package proto

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// legacyFrame names one report and the frame body, under testdata/legacy, that
// the report encoder wrote for it before frames became json.Marshal's bytes.
// That encoder wrote floats in 'g' form (1e-05, 1.2096e+06, 1e+21), left
// < > & and U+2028/U+2029 raw, and replaced invalid UTF-8 with a raw U+FFFD;
// spools and WALs written then still hold such frames.
type legacyFrame struct {
	name string
	r    *Report
}

func legacyFrameReports() []legacyFrame {
	ts := time.Date(2026, 8, 8, 12, 34, 56, 789012345, time.UTC)
	base := func(cond string) *Report {
		return &Report{
			DCID: "dc-legacy", KnowledgeSourceID: "ks/dli", SensedObjectID: "motor/1",
			MachineConditionID: cond, Severity: 0.5, Belief: 0.75, Timestamp: ts,
		}
	}
	exp := base("motor imbalance")
	exp.Severity = 1e-5
	exp.Prognostics = PrognosticVector{{Probability: 1e-5, HorizonSeconds: 1.2096e6}, {Probability: 0.5, HorizonSeconds: 1e21}}
	html := base("pump cavitation")
	html.Explanation = "suction <head> & discharge >limit"
	html.SuspectChannels = []string{"p<1>", "a&b"}
	fffd := base("bearing wear")
	fffd.AdditionalInfo = "invalid \xff utf-8 \xc3 bytes"
	ctl := base("oil whirl")
	ctl.Recommendations = "control \x01 char"
	return []legacyFrame{{"exponent_floats", exp}, {"html_chars", html}, {"invalid_utf8", fffd}, {"control_char", ctl}}
}

// TestLegacyFramesDecodeUnchanged: each frame the old encoder wrote decodes
// to the Delivery the current encoder's bytes for the same report decode to,
// and re-encoding it gives json.Marshal's bytes.
func TestLegacyFramesDecodeUnchanged(t *testing.T) {
	for i, lf := range legacyFrameReports() {
		old, err := os.ReadFile(filepath.Join("testdata", "legacy", lf.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		seq := uint64(i + 1)
		cur, err := AppendReportEnvelope(nil, lf.r, "dc-legacy", 2, seq)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeFrame(old)
		if err != nil {
			t.Fatalf("%s: old frame no longer decodes: %v", lf.name, err)
		}
		want, err := DecodeFrame(cur)
		if err != nil {
			t.Fatal(err)
		}
		got.Frame, want.Frame = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: old frame decodes to %+v, the current one to %+v", lf.name, got.Report, want.Report)
		}
		again, err := AppendFrame(nil, &got)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := json.Marshal(envelope{Kind: "report", Report: got.Report, DCID: got.DCID, Boot: got.Boot, Seq: got.Seq})
		if err != nil || !bytes.Equal(again, ref) {
			t.Errorf("%s: re-encoded as\n%s\njson.Marshal (%v)\n%s", lf.name, again, err, ref)
		}
	}
}

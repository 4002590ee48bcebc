package dc

import (
	"testing"
	"time"

	"repro/internal/chiller"
	"repro/internal/historian"
)

// TestHistorianRecordsAcquisitions: a day of scheduled operation fills the
// vibration-feature and process-scalar channels at their test rates, and
// hourly rollups over a channel envelope what it holds.
func TestHistorianRecordsAcquisitions(t *testing.T) {
	d, _, _ := newTestDC(t, nil)
	defer d.Close()
	if err := d.RunFor(24 * time.Hour); err != nil {
		t.Fatal(err)
	}
	h := d.Historian()
	// Vibration tests every 4h, inclusive of t=0 and t=24h: 7 acquisitions.
	for _, pt := range chiller.AllPoints() {
		for _, feat := range VibFeatures {
			st, err := h.Stats(VibChannel(pt, feat))
			if err != nil {
				t.Fatal(err)
			}
			if st.Samples != 7 {
				t.Fatalf("%s: %d samples, want 7", VibChannel(pt, feat), st.Samples)
			}
		}
	}
	// Process scans every 30m: 49 samples per scalar.
	for _, f := range ProcFields {
		st, err := h.Stats(ProcChannel(f))
		if err != nil {
			t.Fatal(err)
		}
		if st.Samples != 49 {
			t.Fatalf("%s: %d samples, want 49", ProcChannel(f), st.Samples)
		}
	}
	// Hourly rollups over the oil-pressure channel envelope the raw series.
	rolls, err := h.QueryRollup(ProcChannel("oil_pressure"), time.Hour, time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rolls) == 0 {
		t.Fatal("no hourly rollups for oil_pressure")
	}
	it, err := h.Query(ProcChannel("oil_pressure"), time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	raw := it.Collect()
	var total int
	for _, r := range rolls {
		if r.Min > r.Max || r.Mean() < r.Min || r.Mean() > r.Max {
			t.Fatalf("degenerate rollup %+v", r)
		}
		total += r.Count
	}
	if total != len(raw) {
		t.Fatalf("rollups count %d raw samples, query returns %d", total, len(raw))
	}
}

// TestHistorianRecordsSBFRTransitions: a plant driven into persistent
// oil-pressure depression produces a 0→1 status transition on the
// OilPressureLow channel, and transitions only — consecutive identical
// statuses are not re-recorded.
func TestHistorianRecordsSBFRTransitions(t *testing.T) {
	cfg := chiller.DefaultConfig()
	cfg.Seed = 31
	plant, err := chiller.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := plant.SetFault(chiller.OilWhirl, 0.9); err != nil {
		t.Fatal(err)
	}
	dcfg := DefaultConfig("dc-1", "chiller/1")
	dcfg.EnableSBFR = true
	d, err := New(dcfg, plant, nil, &collector{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.RunFor(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	ch := SBFRChannel("OilPressureLow")
	if !d.Historian().HasChannel(ch) {
		t.Fatal("no SBFR status channel recorded")
	}
	it, err := d.Historian().Query(ch, time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	samples := it.Collect()
	if len(samples) < 2 {
		t.Fatalf("want at least a 0→1 transition, got %d samples", len(samples))
	}
	sawFlag := false
	for i, s := range samples {
		if i > 0 && samples[i-1].Value == s.Value {
			t.Fatalf("consecutive identical statuses recorded at %d: %v", i, samples)
		}
		if s.Value == 1 {
			sawFlag = true
		}
	}
	if !sawFlag {
		t.Fatal("status never flagged despite severe oil fault")
	}
}

// TestSharedHistorianAndClose: a caller-supplied store is used directly and
// survives DC.Close; a private store is closed with the DC.
func TestSharedHistorianAndClose(t *testing.T) {
	shared, err := historian.Open(historian.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()
	cfg := chiller.DefaultConfig()
	cfg.Seed = 31
	plant, err := chiller.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dcfg := DefaultConfig("dc-1", "chiller/1")
	dcfg.Historian = shared
	d, err := New(dcfg, plant, nil, &collector{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Historian() != shared {
		t.Fatal("DC did not adopt the supplied store")
	}
	if err := d.RunFor(time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Still queryable: Close must not have touched the shared store.
	if _, err := shared.Query(ProcChannel("load"), time.Time{}, time.Time{}); err != nil {
		t.Fatalf("shared store closed by DC: %v", err)
	}

	d2, _, _ := newTestDC(t, nil)
	priv := d2.Historian()
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := priv.Append(ProcChannel("load"), time.Now(), 0.5); err == nil {
		t.Fatal("private store still accepts appends after DC.Close")
	}
}

// TestSBFRIntervalDefault: the SBFR scan runs every DefaultSBFRInterval, the
// documented 5 minutes.
func TestSBFRIntervalDefault(t *testing.T) {
	cfg := chiller.DefaultConfig()
	cfg.Seed = 31
	plant, err := chiller.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dcfg := DefaultConfig("dc-1", "chiller/1")
	dcfg.EnableSBFR = true
	d, err := New(dcfg, plant, nil, &collector{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.RunFor(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	// 5-minute period inclusive of both endpoints: exactly 7 scans in 30
	// virtual minutes.
	if d.SBFRScans() != 7 {
		t.Fatalf("%d SBFR scans in 30 virtual minutes, want 7", d.SBFRScans())
	}
}

package historian

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

var t0 = time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC)

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func ensure(t *testing.T, s *Store, cfg ChannelConfig) {
	t.Helper()
	if err := s.EnsureChannel(cfg); err != nil {
		t.Fatal(err)
	}
}

// sealEvery seals every head after the k-th, 2k-th, … append (i counts
// appends from 0), so segments take the shapes a k-sample head would give.
func sealEvery(t *testing.T, s *Store, i, k int) {
	t.Helper()
	if (i+1)%k == 0 {
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAppendAndQueryOrdered(t *testing.T) {
	s := mustOpen(t, "")
	ensure(t, s, ChannelConfig{Name: "a"})
	for i := 0; i < 30; i++ {
		if err := s.Append("a", t0.Add(time.Duration(i)*time.Second), float64(i)); err != nil {
			t.Fatal(err)
		}
		sealEvery(t, s, i, 8)
	}
	got, err := s.QueryAll("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 30 {
		t.Fatalf("got %d samples, want 30", len(got))
	}
	for i, smp := range got {
		if smp.Value != float64(i) || !smp.At.Equal(t0.Add(time.Duration(i)*time.Second)) {
			t.Fatalf("sample %d = %+v", i, smp)
		}
	}
	st, err := s.Stats("a")
	if err != nil {
		t.Fatal(err)
	}
	if st.Samples != 30 || st.Segments != 3 || st.HeadLen != 6 {
		t.Fatalf("stats %+v", st)
	}
	if !st.Oldest.Equal(t0) || !st.Latest.Equal(t0.Add(29*time.Second)) {
		t.Fatalf("range %v..%v", st.Oldest, st.Latest)
	}
}

// TestOutOfOrderAppends mirrors §5.1's time-disordered inputs: shuffled
// appends still query back in time order, across segment boundaries.
func TestOutOfOrderAppends(t *testing.T) {
	s := mustOpen(t, "")
	ensure(t, s, ChannelConfig{Name: "a"})
	const n = 100
	perm := rand.New(rand.NewSource(7)).Perm(n)
	for k, i := range perm {
		if err := s.Append("a", t0.Add(time.Duration(i)*time.Minute), float64(i)); err != nil {
			t.Fatal(err)
		}
		sealEvery(t, s, k, 16)
	}
	got, err := s.QueryAll("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("got %d, want %d", len(got), n)
	}
	for i, smp := range got {
		if smp.Value != float64(i) {
			t.Fatalf("position %d holds value %g (disordered result)", i, smp.Value)
		}
	}
	if st, _ := s.Stats("a"); !st.Latest.Equal(t0.Add((n - 1) * time.Minute)) {
		t.Fatalf("latest at %v", st.Latest)
	}
}

func TestQueryRange(t *testing.T) {
	s := mustOpen(t, "")
	ensure(t, s, ChannelConfig{Name: "a"})
	for i := 0; i < 50; i++ {
		if err := s.Append("a", t0.Add(time.Duration(i)*time.Hour), float64(i)); err != nil {
			t.Fatal(err)
		}
		sealEvery(t, s, i, 10)
	}
	it, err := s.Query("a", t0.Add(10*time.Hour), t0.Add(20*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	got := it.Collect()
	if len(got) != 11 {
		t.Fatalf("inclusive range returned %d samples, want 11", len(got))
	}
	if got[0].Value != 10 || got[10].Value != 20 {
		t.Fatalf("range bounds %g..%g", got[0].Value, got[10].Value)
	}
	// Open-ended from.
	it, _ = s.Query("a", time.Time{}, t0.Add(2*time.Hour))
	if got := it.Collect(); len(got) != 3 {
		t.Fatalf("open-from returned %d", len(got))
	}
	// Open-ended to.
	it, _ = s.Query("a", t0.Add(47*time.Hour), time.Time{})
	if got := it.Collect(); len(got) != 3 {
		t.Fatalf("open-to returned %d", len(got))
	}
}

func TestAppendValidation(t *testing.T) {
	s := mustOpen(t, "")
	ensure(t, s, ChannelConfig{Name: "a"})
	if err := s.Append("a", time.Time{}, 1); err == nil {
		t.Error("zero timestamp accepted")
	}
	if err := s.Append("a", t0, math.NaN()); err == nil {
		t.Error("NaN accepted")
	}
	if err := s.Append("a", t0, math.Inf(1)); err == nil {
		t.Error("Inf accepted")
	}
	if err := s.Append("nope", t0, 1); err == nil {
		t.Error("unknown channel accepted")
	}
	if err := s.EnsureChannel(ChannelConfig{Name: ""}); err == nil {
		t.Error("empty channel name accepted")
	}
	for _, dur := range []time.Duration{0, -time.Minute} {
		if _, err := s.QueryRollup("a", dur, time.Time{}, time.Time{}); err == nil {
			t.Errorf("rollup width %v accepted", dur)
		}
	}
}

func TestRetentionDropsOldSegments(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	ensure(t, s, ChannelConfig{Name: "a"})
	// 125 days of one sample every 5 h: everything older than
	// latest − Window must go.
	const n, step = 600, 5 * time.Hour
	for i := 0; i < n; i++ {
		if err := s.Append("a", t0.Add(time.Duration(i)*step), float64(i)); err != nil {
			t.Fatal(err)
		}
		sealEvery(t, s, i, 10)
	}
	got, err := s.QueryAll("a")
	if err != nil {
		t.Fatal(err)
	}
	latest := t0.Add((n - 1) * step)
	cutoff := latest.Add(-Window)
	if len(got) >= n {
		t.Fatalf("retention kept all %d samples", len(got))
	}
	// Whole-segment granularity: nothing sealed strictly before the cutoff
	// survives beyond one segment's worth of slack.
	slack := 10 * step
	for _, smp := range got {
		if smp.At.Before(cutoff.Add(-slack)) {
			t.Fatalf("sample at %v survived cutoff %v", smp.At, cutoff)
		}
	}
	// Rollups fold only what is held.
	rolls, err := s.QueryRollup("a", 24*time.Hour, time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rolls {
		if end := r.Start.Add(r.Dur); end.Before(cutoff.Add(-slack)) {
			t.Fatalf("rollup bucket ending %v survived cutoff %v", end, cutoff)
		}
	}
	// The compacted file reopens to the same retained view.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, s.dir)
	defer s2.Close()
	got2, err := s2.QueryAll("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != len(got) {
		t.Fatalf("reopened %d samples, want %d", len(got2), len(got))
	}
}

// TestWindowBoundsSlowChannel: a channel that gets one sample every 4 h
// for a year holds no more than Window + 2·headSpan of them, and a sample
// already outside the window is not stored.
func TestWindowBoundsSlowChannel(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	ensure(t, s, ChannelConfig{Name: "a"})
	const step = 4 * time.Hour
	var latest time.Time
	for at := t0; at.Before(t0.Add(365 * 24 * time.Hour)); at = at.Add(step) {
		if err := s.Append("a", at, 1); err != nil {
			t.Fatal(err)
		}
		latest = at
	}
	st, err := s.Stats("a")
	if err != nil {
		t.Fatal(err)
	}
	if limit := int64((Window + 2*headSpan) / step); st.Samples > limit {
		t.Errorf("%d samples held, want at most %d", st.Samples, limit)
	}
	if floor := latest.Add(-Window - 2*headSpan); st.Oldest.Before(floor) {
		t.Errorf("oldest sample %v, want none before %v", st.Oldest, floor)
	}
	late := latest.Add(-Window - time.Hour)
	if err := s.Append("a", late, 2); err != nil {
		t.Fatal(err)
	}
	if st2, _ := s.Stats("a"); st2.Samples != st.Samples {
		t.Errorf("%d samples after a sample outside the window, want %d", st2.Samples, st.Samples)
	}
	it, err := s.Query("a", late, late)
	if err != nil {
		t.Fatal(err)
	}
	if it.Remaining() != 0 {
		t.Error("a sample outside the window was stored")
	}
}

func TestRollupTiers(t *testing.T) {
	s := mustOpen(t, "")
	ensure(t, s, ChannelConfig{Name: "a"})
	// Two hours of 1 Hz data, value = seconds since start.
	for i := 0; i < 7200; i++ {
		if err := s.Append("a", t0.Add(time.Duration(i)*time.Second), float64(i)); err != nil {
			t.Fatal(err)
		}
		sealEvery(t, s, i, 64)
	}
	mins, err := s.QueryRollup("a", time.Minute, time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(mins) != 120 {
		t.Fatalf("%d minute buckets, want 120", len(mins))
	}
	b := mins[3] // minute 3: values 180..239
	if b.Min != 180 || b.Max != 239 || b.Count != 60 {
		t.Fatalf("minute bucket %+v", b)
	}
	if mean := b.Mean(); math.Abs(mean-209.5) > 1e-9 {
		t.Fatalf("mean %g, want 209.5", mean)
	}
	hours, err := s.QueryRollup("a", time.Hour, time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(hours) != 2 || hours[1].Min != 3600 || hours[1].Max != 7199 {
		t.Fatalf("hour buckets %+v", hours)
	}
	// Range query clips to overlapping buckets.
	clip, err := s.QueryRollup("a", time.Minute, t0.Add(90*time.Second), t0.Add(150*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if len(clip) != 2 || !clip[0].Start.Equal(t0.Add(time.Minute)) {
		t.Fatalf("clipped buckets %+v", clip)
	}
}

// TestRollupEnvelopeProperty is the invariant the trend layer depends on:
// for any series, every raw sample lies within [Min, Max] of its bucket,
// and Min <= Mean <= Max for every bucket.
func TestRollupEnvelopeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		s := mustOpen(t, "")
		tier := time.Duration(1+rng.Intn(120)) * time.Second
		ensure(t, s, ChannelConfig{Name: "p"})
		every := 1 + rng.Intn(200)
		n := 200 + rng.Intn(800)
		// Random walk with jittered, sometimes-duplicated timestamps,
		// appended in shuffled order.
		samples := make([]Sample, n)
		v := rng.NormFloat64()
		for i := range samples {
			v += rng.NormFloat64()
			at := t0.Add(time.Duration(rng.Int63n(int64(6 * time.Hour))))
			samples[i] = Sample{At: at, Value: v}
		}
		for i, smp := range samples {
			if err := s.AppendBatch("p", []Sample{smp}); err != nil {
				t.Fatal(err)
			}
			sealEvery(t, s, i, every)
		}
		rolls, err := s.QueryRollup("p", tier, time.Time{}, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		byStart := make(map[int64]Rollup, len(rolls))
		total := 0
		for _, r := range rolls {
			byStart[r.Start.UnixNano()] = r
			total += r.Count
			if r.Min > r.Max || r.Mean() < r.Min-1e-9 || r.Mean() > r.Max+1e-9 {
				t.Fatalf("trial %d: degenerate bucket %+v", trial, r)
			}
		}
		if total != n {
			t.Fatalf("trial %d: buckets cover %d samples, want %d", trial, total, n)
		}
		for _, smp := range samples {
			lo, _ := bucket(smp.At.UnixNano(), tier)
			r, ok := byStart[lo]
			if !ok {
				t.Fatalf("trial %d: sample at %v has no bucket", trial, smp.At)
			}
			if smp.Value < r.Min || smp.Value > r.Max {
				t.Fatalf("trial %d: sample %g escapes envelope [%g,%g]",
					trial, smp.Value, r.Min, r.Max)
			}
		}
	}
}

func TestSealAndLatest(t *testing.T) {
	s := mustOpen(t, "")
	ensure(t, s, ChannelConfig{Name: "a"})
	if st, _ := s.Stats("a"); !st.Latest.IsZero() {
		t.Fatal("empty channel has a latest sample")
	}
	for i := 0; i < 5; i++ {
		if err := s.Append("a", t0.Add(time.Duration(i)*time.Second), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	st, _ := s.Stats("a")
	if st.Segments != 1 || st.HeadLen != 0 || st.Samples != 5 {
		t.Fatalf("stats after seal %+v", st)
	}
	got, _ := s.QueryAll("a")
	if len(got) != 5 {
		t.Fatalf("%d samples after seal", len(got))
	}
}

func TestClosedStoreRefusesOperations(t *testing.T) {
	s := mustOpen(t, "")
	ensure(t, s, ChannelConfig{Name: "a"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("a", t0, 1); err == nil {
		t.Error("append on closed store accepted")
	}
	if _, err := s.Query("a", time.Time{}, time.Time{}); err == nil {
		t.Error("query on closed store accepted")
	}
	if err := s.EnsureChannel(ChannelConfig{Name: "b"}); err == nil {
		t.Error("ensure on closed store accepted")
	}
	// Idempotent close.
	if err := s.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

func TestChannelsListing(t *testing.T) {
	s := mustOpen(t, "")
	for _, name := range []string{"z/b", "a/1", "m"} {
		ensure(t, s, ChannelConfig{Name: name})
	}
	got := s.Channels()
	want := []string{"a/1", "m", "z/b"}
	if len(got) != len(want) {
		t.Fatalf("channels %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("channels %v, want %v", got, want)
		}
	}
	if !s.HasChannel("m") || s.HasChannel("nope") {
		t.Fatal("HasChannel wrong")
	}
}

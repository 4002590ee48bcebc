package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"repro/internal/historian"
)

// E13HistorianThroughput measures the embedded historian against the §4.6
// data-management requirement: the DC must archive at acquisition rate and
// the PDME display must read month-scale trends interactively. Targets:
// single-writer scalar ingest ≥ 1M samples/s, and a rollup query over 24 h
// of 1 Hz data in < 5 ms.
func E13HistorianThroughput(seed int64) (*Result, error) {
	store, err := historian.Open(historian.Options{}) // in-memory: measures the engine, not the disk
	if err != nil {
		return nil, err
	}
	defer store.Close()
	rng := rand.New(rand.NewSource(seed))
	t0 := time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC)

	// Ingest: one writer, batched appends of jittered scalars (the DC's
	// process-scan shape).
	const ingestN = 2_000_000
	if err := store.EnsureChannel(historian.ChannelConfig{Name: "bench/ingest"}); err != nil {
		return nil, err
	}
	batch := make([]historian.Sample, 1024)
	written := 0
	start := stopwatch()
	for written < ingestN {
		n := len(batch)
		if ingestN-written < n {
			n = ingestN - written
		}
		for i := 0; i < n; i++ {
			batch[i] = historian.Sample{
				At:    t0.Add(time.Duration(written+i) * time.Millisecond),
				Value: 22 + rng.Float64(),
			}
		}
		if err := store.AppendBatch("bench/ingest", batch[:n]); err != nil {
			return nil, err
		}
		written += n
	}
	ingestElapsed := lap(start)
	ingestRate := float64(ingestN) / ingestElapsed.Seconds()

	// Query: 24 h of 1 Hz data, read back as minute rollups (1440 buckets,
	// folded from the raw samples) and as a raw range scan, median of
	// repeated runs.
	const day = 24 * 60 * 60
	if err := store.EnsureChannel(historian.ChannelConfig{Name: "bench/day"}); err != nil {
		return nil, err
	}
	for i := 0; i < day; i++ {
		if err := store.Append("bench/day", t0.Add(time.Duration(i)*time.Second), math.Sin(float64(i)/300)); err != nil {
			return nil, err
		}
	}
	timeQuery := func(run func() (int, error)) (time.Duration, int, error) {
		const reps = 9
		times := make([]time.Duration, reps)
		var count int
		for r := 0; r < reps; r++ {
			qs := stopwatch()
			n, err := run()
			if err != nil {
				return 0, 0, err
			}
			times[r] = lap(qs)
			count = n
		}
		slices.Sort(times)
		return times[reps/2], count, nil
	}
	rollupLat, rollupN, err := timeQuery(func() (int, error) {
		rolls, err := store.QueryRollup("bench/day", time.Minute, time.Time{}, time.Time{})
		return len(rolls), err
	})
	if err != nil {
		return nil, err
	}
	rawLat, rawN, err := timeQuery(func() (int, error) {
		it, err := store.Query("bench/day", t0, t0.Add(24*time.Hour))
		if err != nil {
			return 0, err
		}
		n := 0
		for it.Next() {
			n++
		}
		return n, nil
	})
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID:    "E13",
		Title: "historian ingest throughput and query latency",
		PaperClaim: "§4.6: data management must archive at acquisition rate and serve " +
			"interactive trend displays; targets ≥1M samples/s ingest, rollup query of a 1 Hz day <5 ms",
		Header: []string{"measurement", "work", "result", "target", "met"},
		Rows: [][]string{
			{"scalar ingest (1 writer)", fmt.Sprintf("%d samples", ingestN),
				fmt.Sprintf("%.2fM samples/s", ingestRate/1e6), ">= 1M/s",
				fmt.Sprintf("%t", ingestRate >= 1e6)},
			{"rollup query (1 min buckets)", fmt.Sprintf("%d buckets over 24h@1Hz", rollupN),
				rollupLat.String(), "< 5ms", fmt.Sprintf("%t", rollupLat < 5*time.Millisecond)},
			{"raw range scan", fmt.Sprintf("%d samples over 24h@1Hz", rawN),
				rawLat.String(), "(reference)", "-"},
		},
		Notes: []string{
			fmt.Sprintf("ingest elapsed %v; batched 1024-sample appends of raw samples", ingestElapsed),
			"query latencies are medians of 9 runs on an in-memory store (sealed segments + head); " +
				"the rollup folds each sorted segment in turn, the raw scan merges them",
		},
	}
	if rollupN != 1440 {
		res.Notes = append(res.Notes, fmt.Sprintf("WARN: expected 1440 rollup buckets, got %d", rollupN))
	}
	return res, nil
}

package historian

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Rollup is one downsampled bucket: the min/max envelope and the mean of
// every raw sample whose timestamp falls in [Start, Start+Dur).
type Rollup struct {
	Start time.Time
	Dur   time.Duration
	Min   float64
	Max   float64
	Sum   float64
	Count int
}

// Mean returns the bucket average.
func (r Rollup) Mean() float64 {
	if r.Count == 0 {
		return 0
	}
	return r.Sum / float64(r.Count)
}

// bucket returns the [lo, hi) nanosecond bounds of the dur-wide bucket
// holding n, floored on the dur grid (pre-epoch times too); hi saturates at
// the largest representable instant.
func bucket(n int64, dur time.Duration) (lo, hi int64) {
	d := int64(dur)
	q := n / d
	if n%d < 0 {
		q--
	}
	lo = q * d
	if hi = lo + d; hi < lo {
		hi = math.MaxInt64
	}
	return lo, hi
}

// QueryRollup folds the channel's samples into buckets of width dur on the
// dur grid and returns the buckets overlapping [from, to] (zero bounds are
// open), oldest first. Any positive width is answerable, and an edge
// bucket holds all of its samples. The fold reads the snapshot Query
// takes — the segments in order, then the sorted head — so a rollup is a
// function of the held samples and reads the same after a reopen.
func (s *Store) QueryRollup(name string, dur time.Duration, from, to time.Time) ([]Rollup, error) {
	if dur <= 0 {
		return nil, fmt.Errorf("historian: channel %q: non-positive rollup width %v", name, dur)
	}
	if !from.IsZero() {
		lo, _ := bucket(from.UnixNano(), dur)
		from = time.Unix(0, lo)
	}
	if !to.IsZero() {
		_, hi := bucket(to.UnixNano(), dur)
		to = time.Unix(0, hi-1)
	}
	runs, err := s.snapshot(name, from, to)
	if err != nil {
		return nil, err
	}
	var out []Rollup
	index := make(map[int64]int) // bucket start → position in out
	var cur int
	var lo, hi int64 // the bucket out[cur] covers; empty until the first sample
	for _, run := range runs {
		for _, smp := range run {
			if n := smp.At.UnixNano(); n < lo || n >= hi {
				lo, hi = bucket(n, dur)
				var ok bool
				if cur, ok = index[lo]; !ok {
					cur = len(out)
					index[lo] = cur
					out = append(out, Rollup{Start: time.Unix(0, lo).UTC(), Dur: dur,
						Min: smp.Value, Max: smp.Value})
				}
			}
			b := &out[cur]
			b.Min = min(b.Min, smp.Value)
			b.Max = max(b.Max, smp.Value)
			b.Sum += smp.Value
			b.Count++
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out, nil
}

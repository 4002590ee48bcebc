package main

import (
	"math"
	"math/bits"
	"time"
)

// histogram is a log-bucketed latency histogram: 64 octaves of 128 linear
// sub-buckets each, so a bucket is at most 0.8 % wide. Quantiles interpolate
// linearly inside the bucket that holds the rank, which keeps two runs of
// the same code from snapping to the same bucket edge. It is not safe for
// concurrent use: every recorder in the harness owns its histogram.
type histogram struct {
	buckets [64 * histSub]uint64
	count   uint64
	sum     float64
}

const (
	histSub     = 128
	histSubBits = 7
)

// bucketOf maps a nanosecond value to its bucket index and the bucket's
// [lo, hi) bounds.
func bucketOf(ns uint64) (idx int, lo, hi float64) {
	if ns < histSub {
		// Below one full octave of sub-buckets every integer is its own
		// bucket; they live in octave 0's slots.
		return int(ns), float64(ns), float64(ns + 1)
	}
	octave := bits.Len64(ns) - 1
	shift := uint(octave - histSubBits)
	sub := (ns >> shift) & (histSub - 1)
	base := uint64(1) << uint(octave)
	width := uint64(1) << shift
	l := base + sub*width
	return (octave-histSubBits+1)*histSub + int(sub), float64(l), float64(l + width)
}

func (h *histogram) record(d time.Duration) {
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	idx, _, _ := bucketOf(ns)
	h.buckets[idx]++
	h.count++
	h.sum += float64(ns)
}

// quantile returns the q-th quantile in nanoseconds (0 when empty).
func (h *histogram) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := q * float64(h.count-1)
	var seen float64
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		if seen+float64(c) > rank {
			lo, hi := bucketBounds(i)
			// Samples are assumed evenly spread inside the bucket.
			frac := (rank - seen + 0.5) / float64(c)
			return lo + math.Min(frac, 1)*(hi-lo)
		}
		seen += float64(c)
	}
	return 0
}

// bucketBounds inverts bucketOf's index.
func bucketBounds(idx int) (lo, hi float64) {
	if idx < histSub {
		return float64(idx), float64(idx + 1)
	}
	octave := idx/histSub + histSubBits - 1
	sub := uint64(idx % histSub)
	shift := uint(octave - histSubBits)
	l := uint64(1)<<uint(octave) + sub<<shift
	return float64(l), float64(l + uint64(1)<<shift)
}

func (h *histogram) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

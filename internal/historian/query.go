package historian

import (
	"sort"
	"time"
)

// Iterator walks raw samples in ascending time order. It iterates over an
// immutable snapshot taken at Query time, so it never blocks (or is
// invalidated by) the channel's writer.
type Iterator struct {
	runs [][]Sample // each sorted ascending
	cur  Sample
}

// Next advances to the next sample, returning false when exhausted.
func (it *Iterator) Next() bool {
	best := -1
	for i, run := range it.runs {
		if len(run) == 0 {
			continue
		}
		if best < 0 || run[0].At.Before(it.runs[best][0].At) {
			best = i
		}
	}
	if best < 0 {
		return false
	}
	it.cur = it.runs[best][0]
	it.runs[best] = it.runs[best][1:]
	return true
}

// At returns the current sample (valid after a true Next).
func (it *Iterator) At() Sample { return it.cur }

// Remaining returns how many samples the iterator still holds (including
// the ones not yet visited, excluding the current one).
func (it *Iterator) Remaining() int {
	n := 0
	for _, run := range it.runs {
		n += len(run)
	}
	return n
}

// Collect drains the iterator into a slice.
func (it *Iterator) Collect() []Sample {
	out := make([]Sample, 0, it.Remaining())
	for it.Next() {
		out = append(out, it.cur)
	}
	return out
}

// Query returns an iterator over the channel's raw samples in [from, to]
// (zero bounds are open-ended). The snapshot is consistent: sealed
// segments are shared immutably and the unsealed head is copied, so the
// iterator is unaffected by concurrent appends.
func (s *Store) Query(name string, from, to time.Time) (*Iterator, error) {
	runs, err := s.snapshot(name, from, to)
	if err != nil {
		return nil, err
	}
	return &Iterator{runs: runs}, nil
}

// snapshot returns the channel's samples in [from, to] as sorted runs: the
// sealed segments in order, then a sorted copy of the head.
func (s *Store) snapshot(name string, from, to time.Time) ([][]Sample, error) {
	ch, err := s.channel(name)
	if err != nil {
		return nil, err
	}
	ch.mu.RLock()
	runs := make([][]Sample, 0, len(ch.segments)+1)
	for _, seg := range ch.segments {
		if run := seg.slice(from, to); len(run) > 0 {
			runs = append(runs, run)
		}
	}
	var headCopy []Sample
	for _, smp := range ch.head {
		if !from.IsZero() && smp.At.Before(from) {
			continue
		}
		if !to.IsZero() && smp.At.After(to) {
			continue
		}
		headCopy = append(headCopy, smp)
	}
	ch.mu.RUnlock()
	if len(headCopy) > 0 {
		sort.SliceStable(headCopy, func(i, j int) bool {
			return headCopy[i].At.Before(headCopy[j].At)
		})
		runs = append(runs, headCopy)
	}
	return runs, nil
}

// QueryAll returns every raw sample of the channel, oldest first.
func (s *Store) QueryAll(name string) ([]Sample, error) {
	it, err := s.Query(name, time.Time{}, time.Time{})
	if err != nil {
		return nil, err
	}
	return it.Collect(), nil
}

// Package historian is the embedded time-series store behind the §4.6 data
// management layer: "the data management functions of the DC [use] a
// relational database ... to store sensor data, intermediate results, and
// condition reports." The relational engine (internal/relstore) keeps the
// low-rate audit rows; the historian keeps the high-rate numeric history
// the prognostics need — per-acquisition vibration features, process-scan
// scalars, SBFR status transitions and fused severities — and serves the
// §10.1 consumers ("scrutinize failure histories and provide better
// projections of future faults as they develop").
//
// The design is a write-optimized multi-channel store:
//
//   - One in-memory head buffer per channel absorbs appends (out-of-order
//     timestamps are accepted — §5.1 requires tolerating time-disordered
//     inputs). When the head fills, or would span more than Window/8, it
//     is sorted and sealed into an immutable segment.
//   - Sealed segments are persisted one record each in an append-only
//     seglog file per channel: a torn final block (power loss mid-append)
//     is truncated away on open; interior corruption is refused.
//   - Every channel keeps one fixed raw window: a seal (and an open) drops
//     the segments that ended more than Window before the channel's newest
//     sample, and the file drops its records before the oldest segment
//     still held; a sample already outside the window is not stored.
//   - Rollups (min/max/mean/count per bucket, any width) are folded from
//     the held samples when asked; nothing but the raw samples is kept.
//   - Queries take a consistent snapshot under a read lock and then
//     iterate lock-free, so concurrent readers never block the single
//     writer per channel for longer than the snapshot.
package historian

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/seglog"
)

// Sample is one observation on a channel.
type Sample struct {
	At    time.Time
	Value float64
}

// Window is how far back a channel keeps samples, measured from its newest
// one. Sealed segments that end before newest − Window are dropped.
const Window = 30 * 24 * time.Hour

// headSpan is the widest time range an unsealed head may cover, so a slow
// channel seals (and drops what left the window) as often as a fast one:
// a channel never holds more than Window + 2·headSpan of samples.
const headSpan = Window / 8

// headCap is the number of samples accumulated before a head is sealed.
const headCap = 4096

// ChannelConfig names one channel of the store.
type ChannelConfig struct {
	// Name identifies the channel ("vib/motor drive end/rms").
	Name string
}

// Options configures a store.
type Options struct {
	// Dir is the segment directory. Empty runs the store purely in memory
	// (a lab DC); non-empty persists every sealed segment (the shipboard
	// configuration, like a DC's report log).
	Dir string
}

// Store is a multi-channel time-series historian. Channel creation and
// lookup are guarded by the store lock; each channel then has its own
// lock, so writers on different channels never contend.
type Store struct {
	dir string

	mu       sync.RWMutex
	channels map[string]*channel
	closed   bool
}

// channel is one named series. The intended concurrency regime is one
// writer per channel with any number of concurrent readers; the mutex
// makes even multi-writer use safe, just not ordered.
type channel struct {
	name string

	mu       sync.RWMutex
	head     []Sample    // arrival-order buffer, sealed when full
	segments []*segment  // immutable, each sorted by time
	log      *seglog.Log // nil for in-memory stores
	total    int64       // samples currently held (head + segments)
	latest   Sample
	hasData  bool
	// spanLo and spanHi (Unix nanos) bound the head's samples and the
	// newest sample at the last seal; the head is sealed before they would
	// part by more than headSpan.
	spanLo, spanHi int64
}

// Open opens (or creates) a store. With a directory, every existing
// segment file is recovered: torn tails are truncated to the last complete
// block.
func Open(opts Options) (*Store, error) {
	s := &Store{dir: opts.Dir, channels: make(map[string]*channel)}
	if opts.Dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("historian: create dir: %w", err)
	}
	entries, err := os.ReadDir(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("historian: read dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != segmentExt {
			continue
		}
		// The header names the channel; the file name only stands in for a
		// header a crash cut short at creation.
		name, err := seglog.FileKey(e.Name(), segmentExt)
		if err != nil {
			return nil, fmt.Errorf("historian: %w", err)
		}
		ch := &channel{}
		if err := ch.openLog(filepath.Join(opts.Dir, e.Name()), name); err != nil {
			return nil, err
		}
		s.channels[ch.name] = ch
	}
	return s, nil
}

// EnsureChannel creates the channel if absent; ensuring an existing
// channel is a no-op.
func (s *Store) EnsureChannel(cfg ChannelConfig) error {
	if cfg.Name == "" {
		return fmt.Errorf("historian: empty channel name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("historian: store closed")
	}
	if _, ok := s.channels[cfg.Name]; ok {
		return nil
	}
	ch := &channel{name: cfg.Name}
	if s.dir != "" {
		path := filepath.Join(s.dir, seglog.FileName(cfg.Name, segmentExt))
		if err := ch.openLog(path, cfg.Name); err != nil {
			return err
		}
	}
	s.channels[cfg.Name] = ch
	return nil
}

func (s *Store) channel(name string) (*channel, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, fmt.Errorf("historian: store closed")
	}
	ch, ok := s.channels[name]
	if !ok {
		return nil, fmt.Errorf("historian: unknown channel %q", name)
	}
	return ch, nil
}

// Append records one observation. Timestamps may arrive out of order
// (§5.1's time-disordered inputs); ordering is restored at seal time and
// at query time.
func (s *Store) Append(name string, at time.Time, value float64) error {
	return s.AppendBatch(name, []Sample{{At: at, Value: value}})
}

// AppendBatch records a batch of observations under one lock acquisition —
// the high-rate ingest path. A sample already more than Window older than
// the channel's newest one is not stored.
func (s *Store) AppendBatch(name string, batch []Sample) error {
	ch, err := s.channel(name)
	if err != nil {
		return err
	}
	ch.mu.Lock()
	defer ch.mu.Unlock()
	for _, smp := range batch {
		if smp.At.IsZero() {
			return fmt.Errorf("historian: channel %q: zero timestamp", name)
		}
		if math.IsNaN(smp.Value) || math.IsInf(smp.Value, 0) {
			return fmt.Errorf("historian: channel %q: non-finite value", name)
		}
		n := smp.At.UnixNano()
		switch {
		case !ch.hasData:
			ch.latest, ch.hasData = smp, true
			ch.spanLo, ch.spanHi = n, n
		case n < ch.latest.At.UnixNano()-int64(Window):
			continue
		case smp.At.After(ch.latest.At):
			ch.latest = smp
		}
		if n-ch.spanLo > int64(headSpan) || ch.spanHi-n > int64(headSpan) {
			if err := ch.sealLocked(); err != nil {
				return err
			}
		}
		ch.head = append(ch.head, smp)
		ch.total++
		ch.spanLo, ch.spanHi = min(ch.spanLo, n), max(ch.spanHi, n)
		if len(ch.head) >= headCap {
			if err := ch.sealLocked(); err != nil {
				return err
			}
		}
	}
	return nil
}

// sealLocked sorts the head into an immutable segment, persists it as one
// block, and drops the segments that left the window. Caller holds ch.mu.
func (ch *channel) sealLocked() error {
	if len(ch.head) > 0 {
		samples := make([]Sample, len(ch.head))
		copy(samples, ch.head)
		sort.SliceStable(samples, func(i, j int) bool { return samples[i].At.Before(samples[j].At) })
		var ord uint64
		if ch.log != nil {
			ord = ch.log.Next()
			if err := ch.log.Append(0, 0, encodeSamples(samples)); err != nil {
				return fmt.Errorf("historian: channel %q: %w", ch.name, err)
			}
		}
		ch.segments = append(ch.segments, newSegment(samples, ord))
		ch.head = ch.head[:0]
	}
	ch.spanLo, ch.spanHi = ch.latest.At.UnixNano(), ch.latest.At.UnixNano()
	return ch.applyRetentionLocked()
}

// applyRetentionLocked drops whole segments that ended before newest −
// Window, and the file's records before the oldest segment still held.
// Caller holds ch.mu.
func (ch *channel) applyRetentionLocked() error {
	cutoff := ch.latest.At.Add(-Window)
	keep := ch.segments[:0]
	for _, seg := range ch.segments {
		if seg.maxAt.Before(cutoff) {
			ch.total -= int64(len(seg.samples))
			continue
		}
		keep = append(keep, seg)
	}
	if len(keep) == len(ch.segments) {
		return nil
	}
	clear(ch.segments[len(keep):])
	ch.segments = keep
	if ch.log == nil {
		return nil
	}
	// The file keeps a suffix: a dropped segment sealed after a held one
	// (time-disordered input) stays in it until the segments before it go,
	// and an open drops it from memory again.
	oldest := ch.log.Next()
	if len(keep) > 0 {
		oldest = keep[0].ord
	}
	if err := ch.log.DropBefore(oldest); err != nil {
		return fmt.Errorf("historian: channel %q: compact: %w", ch.name, err)
	}
	return nil
}

// Sync seals every channel's head and fsyncs the segment files, making
// everything appended so far durable.
func (s *Store) Sync() error {
	for _, name := range s.Channels() {
		ch, err := s.channel(name)
		if err != nil {
			return err
		}
		ch.mu.Lock()
		err = ch.sealLocked()
		if err == nil && ch.log != nil {
			err = ch.log.Sync()
		}
		ch.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// Close syncs and closes the store. Further operations fail; closing an
// already-closed store is a no-op.
func (s *Store) Close() error {
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return nil
	}
	if err := s.Sync(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	for _, ch := range s.channels {
		ch.mu.Lock()
		if ch.log != nil {
			if err := ch.log.Close(); err != nil {
				ch.mu.Unlock()
				return err
			}
			ch.log = nil
		}
		ch.mu.Unlock()
	}
	return nil
}

// Channels returns the channel names in sorted order.
func (s *Store) Channels() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.channels))
	for name := range s.channels {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// HasChannel reports whether the channel exists.
func (s *Store) HasChannel(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.channels[name]
	return ok
}

// ChannelStats summarizes a channel's state.
type ChannelStats struct {
	// Samples currently held (head + sealed segments).
	Samples int64
	// Segments is the sealed segment count.
	Segments int
	// HeadLen is the unsealed head length.
	HeadLen int
	// Oldest and Latest bound the held time range (zero when empty).
	Oldest, Latest time.Time
}

// Stats returns a channel's statistics.
func (s *Store) Stats(name string) (ChannelStats, error) {
	ch, err := s.channel(name)
	if err != nil {
		return ChannelStats{}, err
	}
	ch.mu.RLock()
	defer ch.mu.RUnlock()
	st := ChannelStats{
		Samples:  ch.total,
		Segments: len(ch.segments),
		HeadLen:  len(ch.head),
	}
	if ch.hasData {
		st.Latest = ch.latest.At
		oldest := ch.latest.At
		for _, seg := range ch.segments {
			if seg.minAt.Before(oldest) {
				oldest = seg.minAt
			}
		}
		for _, smp := range ch.head {
			if smp.At.Before(oldest) {
				oldest = smp.At
			}
		}
		st.Oldest = oldest
	}
	return st, nil
}

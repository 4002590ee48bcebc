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
//     inputs). When the head fills it is sorted and sealed into an
//     immutable segment.
//   - Sealed segments are persisted one record each in an append-only
//     seglog file per channel: a torn final block (power loss mid-append)
//     is truncated away on open; interior corruption is refused.
//   - Per-channel retention drops whole expired segments and compacts the
//     segment file.
//   - Multi-resolution rollup tiers (min/max/mean/count per bucket) are
//     maintained incrementally on append and rebuilt on open, so trend
//     queries over days of data touch thousands of buckets, not millions
//     of raw samples.
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

// DefaultHeadCap is the head-buffer capacity used when a channel does not
// set one: the number of samples accumulated before a segment is sealed.
const DefaultHeadCap = 4096

// ChannelConfig describes one channel of the store.
type ChannelConfig struct {
	// Name identifies the channel ("vib/motor drive end/rms").
	Name string
	// Retention bounds how far back samples are kept relative to the
	// newest sample (0: keep everything).
	Retention time.Duration
	// Tiers are the rollup resolutions maintained for the channel
	// (e.g. time.Minute, time.Hour). Queries at a tier must name one of
	// these durations exactly.
	Tiers []time.Duration
	// HeadCap overrides the head-buffer capacity (0: DefaultHeadCap).
	HeadCap int
}

func (c ChannelConfig) validate() error {
	if c.Name == "" {
		return fmt.Errorf("historian: empty channel name")
	}
	if c.Retention < 0 {
		return fmt.Errorf("historian: channel %q: negative retention", c.Name)
	}
	if c.HeadCap < 0 {
		return fmt.Errorf("historian: channel %q: negative head capacity", c.Name)
	}
	seen := make(map[time.Duration]bool, len(c.Tiers))
	for _, d := range c.Tiers {
		if d <= 0 {
			return fmt.Errorf("historian: channel %q: non-positive tier %v", c.Name, d)
		}
		if seen[d] {
			return fmt.Errorf("historian: channel %q: duplicate tier %v", c.Name, d)
		}
		seen[d] = true
	}
	return nil
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
	cfg ChannelConfig

	mu       sync.RWMutex
	head     []Sample   // arrival-order buffer, sealed when full
	segments []*segment // immutable, each sorted by time
	tiers    []*tier
	log      *seglog.Log // nil for in-memory stores
	total    int64       // samples currently held (head + segments)
	latest   Sample
	hasData  bool
}

// Open opens (or creates) a store. With a directory, every existing
// segment file is recovered: torn tails are truncated to the last complete
// block, rollup tiers are rebuilt from the recovered raw data.
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
		s.channels[ch.cfg.Name] = ch
	}
	return s, nil
}

// EnsureChannel creates the channel if absent and applies the
// configuration's retention/tiers/head capacity. Re-ensuring an existing
// channel with new tiers rebuilds the missing tiers from stored data, so
// recovered channels (whose files do not record tier configuration) regain
// their rollups.
func (s *Store) EnsureChannel(cfg ChannelConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if cfg.HeadCap == 0 {
		cfg.HeadCap = DefaultHeadCap
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("historian: store closed")
	}
	ch, ok := s.channels[cfg.Name]
	if !ok {
		ch = &channel{cfg: cfg}
		if s.dir != "" {
			path := filepath.Join(s.dir, seglog.FileName(cfg.Name, segmentExt))
			if err := ch.openLog(path, cfg.Name); err != nil {
				s.mu.Unlock()
				return err
			}
		}
		s.channels[cfg.Name] = ch
	}
	s.mu.Unlock()

	ch.mu.Lock()
	defer ch.mu.Unlock()
	ch.cfg.Retention = cfg.Retention
	if cfg.HeadCap > 0 {
		ch.cfg.HeadCap = cfg.HeadCap
	}
	// Add requested tiers that are not yet maintained, rebuilt over the
	// data already held.
	for _, d := range cfg.Tiers {
		if ch.tierFor(d) != nil {
			continue
		}
		t := newTier(d)
		for _, seg := range ch.segments {
			for _, smp := range seg.samples {
				t.add(smp)
			}
		}
		for _, smp := range ch.head {
			t.add(smp)
		}
		ch.tiers = append(ch.tiers, t)
		ch.cfg.Tiers = append(ch.cfg.Tiers, d)
	}
	return nil
}

func (ch *channel) tierFor(d time.Duration) *tier {
	for _, t := range ch.tiers {
		if t.dur == d {
			return t
		}
	}
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
// the high-rate ingest path.
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
		ch.head = append(ch.head, smp)
		ch.total++
		if !ch.hasData || smp.At.After(ch.latest.At) {
			ch.latest = smp
			ch.hasData = true
		}
		for _, t := range ch.tiers {
			t.add(smp)
		}
		if len(ch.head) >= ch.headCap() {
			if err := ch.sealLocked(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (ch *channel) headCap() int {
	if ch.cfg.HeadCap > 0 {
		return ch.cfg.HeadCap
	}
	return DefaultHeadCap
}

// sealLocked sorts the head into an immutable segment, persists it as one
// block, and applies retention. Caller holds ch.mu.
func (ch *channel) sealLocked() error {
	if len(ch.head) == 0 {
		return nil
	}
	samples := make([]Sample, len(ch.head))
	copy(samples, ch.head)
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].At.Before(samples[j].At) })
	seg := newSegment(samples)
	if ch.log != nil {
		if err := ch.log.Append(0, 0, encodeSamples(samples)); err != nil {
			return fmt.Errorf("historian: channel %q: %w", ch.cfg.Name, err)
		}
	}
	ch.segments = append(ch.segments, seg)
	ch.head = ch.head[:0]
	return ch.applyRetentionLocked()
}

// applyRetentionLocked drops whole segments past the retention horizon and
// compacts the segment file when anything was dropped. Caller holds ch.mu.
func (ch *channel) applyRetentionLocked() error {
	if ch.cfg.Retention <= 0 || !ch.hasData {
		return nil
	}
	cutoff := ch.latest.At.Add(-ch.cfg.Retention)
	keep := ch.segments[:0]
	dropped := 0
	for _, seg := range ch.segments {
		if seg.maxAt.Before(cutoff) {
			dropped++
			ch.total -= int64(len(seg.samples))
			continue
		}
		keep = append(keep, seg)
	}
	if dropped == 0 {
		return nil
	}
	ch.segments = keep
	for _, t := range ch.tiers {
		t.trim(cutoff)
	}
	if ch.log != nil {
		// Compact the file down to the segments still held.
		err := ch.log.Rewrite(func(w *seglog.Log) error {
			for _, seg := range ch.segments {
				if err := w.Append(0, 0, encodeSamples(seg.samples)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("historian: channel %q: compact: %w", ch.cfg.Name, err)
		}
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
	// Tiers lists the maintained rollup resolutions.
	Tiers []time.Duration
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
	for _, t := range ch.tiers {
		st.Tiers = append(st.Tiers, t.dur)
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

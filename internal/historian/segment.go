package historian

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/seglog"
)

// A channel's file is a seglog log (see internal/seglog and DESIGN.md,
// "On-disk logs") whose header meta is the channel name. Each sealed
// segment is one record; its body is count×(i64 unixnano, f64 bits),
// little-endian, so count = bodyLen/16.
const (
	segmentExt = ".hseg"
	recordSize = 16 // i64 nanos + f64 value
)

var segmentFormat = seglog.Format{Magic: "MPROSHS2", MaxBody: 1 << 24}

// segment is an immutable sorted run of samples.
type segment struct {
	samples      []Sample // sorted ascending by At
	minAt, maxAt time.Time
	ord          uint64 // its record's ordinal in the channel's file
}

func newSegment(sorted []Sample, ord uint64) *segment {
	return &segment{
		samples: sorted,
		minAt:   sorted[0].At,
		maxAt:   sorted[len(sorted)-1].At,
		ord:     ord,
	}
}

// slice returns the sub-run overlapping [from, to] (zero bounds are open).
func (g *segment) slice(from, to time.Time) []Sample {
	lo := 0
	if !from.IsZero() {
		lo = sort.Search(len(g.samples), func(i int) bool {
			return !g.samples[i].At.Before(from)
		})
	}
	hi := len(g.samples)
	if !to.IsZero() {
		hi = sort.Search(len(g.samples), func(i int) bool {
			return g.samples[i].At.After(to)
		})
	}
	if lo >= hi {
		return nil
	}
	return g.samples[lo:hi]
}

// encodeSamples is the record body of one sealed segment.
func encodeSamples(samples []Sample) []byte {
	buf := make([]byte, 0, len(samples)*recordSize)
	for _, s := range samples {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.At.UnixNano()))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.Value))
	}
	return buf
}

// openLog opens (recovering) or creates the channel's file at path and
// loads its segments. name goes into the header of a file that has to be
// created; an existing header's name is authoritative and becomes
// ch.name.
func (ch *channel) openLog(path, name string) error {
	log, _, err := seglog.Open(path, segmentFormat, []byte(name), func(r seglog.Record) error {
		if len(r.Body) == 0 || len(r.Body)%recordSize != 0 {
			return fmt.Errorf("implausible block of %d bytes", len(r.Body))
		}
		samples := make([]Sample, len(r.Body)/recordSize)
		for i := range samples {
			rec := r.Body[i*recordSize:]
			nanos := int64(binary.LittleEndian.Uint64(rec))
			bits := binary.LittleEndian.Uint64(rec[8:])
			samples[i] = Sample{At: time.Unix(0, nanos).UTC(), Value: math.Float64frombits(bits)}
		}
		// Blocks are written sorted; tolerate (and repair) any drift.
		sort.SliceStable(samples, func(i, j int) bool { return samples[i].At.Before(samples[j].At) })
		ch.segments = append(ch.segments, newSegment(samples, uint64(len(ch.segments))))
		return nil
	})
	if err != nil {
		return fmt.Errorf("historian: %w", err)
	}
	if len(log.Meta()) == 0 {
		_ = log.Close() // best effort: the refusal is the story
		return fmt.Errorf("historian: %s: empty channel name", path)
	}
	ch.name = string(log.Meta())
	ch.log = log
	for _, seg := range ch.segments {
		ch.total += int64(len(seg.samples))
		if last := seg.samples[len(seg.samples)-1]; !ch.hasData || last.At.After(ch.latest.At) {
			ch.latest = last
			ch.hasData = true
		}
	}
	ch.spanLo, ch.spanHi = ch.latest.At.UnixNano(), ch.latest.At.UnixNano()
	// A crash between a seal's append and its drop, or a failed drop, can
	// leave segments that already left the window.
	if err := ch.applyRetentionLocked(); err != nil {
		_ = log.Close() // best effort: the drop error is the story
		return err
	}
	return nil
}

package dc

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/proto"
)

// The guards screen the DC's raw sensor channels. The §5.5 reports already
// carry believability factors for conclusions; the guards extend the idea
// one level down: a conclusion computed from a channel that is behaving like
// a broken sensor — stuck, dropped out, or spiking — gets its believability
// capped at the source, and the channel is flagged in the report so the PDME
// can show maintenance personnel why. Their thresholds are design constants
// of the DC, like its MUX geometry.
const (
	// stuckFrames is how many consecutive identical (or flat) observations
	// mark a channel stuck.
	stuckFrames = 3
	// flatEpsilon is the peak-to-peak amplitude below which a vibration
	// frame counts as flat — a live accelerometer on running machinery is
	// never this quiet.
	flatEpsilon = 1e-9
	// dropoutFraction is the fraction of exactly-zero samples from which a
	// frame counts as dropped out.
	dropoutFraction = 0.25
	// spikeFactor is the multiple of the frame RMS beyond which a sample is
	// an impossible excursion. Real bearing impacts produce crest factors of
	// single digits; a loose connector produces isolated full-scale hits far
	// beyond that.
	spikeFactor = 25.0
	// believabilityCap is the maximum Belief a report derived from a suspect
	// channel may carry.
	believabilityCap = 0.2
	// nonFiniteSample is the verdict on a frame holding a NaN or infinite
	// sample; its point abstains from the vibration test.
	nonFiniteSample = "invalid: non-finite sample"
)

// GuardConfig is the guard's configuration. It has no fields: every
// threshold is a constant.
type GuardConfig struct{}

// channelState is the guard's per-channel history.
type channelState struct {
	// channel names the channel in the reports it quarantines.
	channel string
	// fingerprint summarizes the last observation (frame statistics or
	// scalar value); repeats count toward stuck-at.
	fingerprint [3]float64
	hasPrint    bool
	repeats     int
	// everChanged records whether the channel has ever produced two
	// different observations. Scalar stuck-at detection only arms after
	// variation: a reading that has been constant since boot is
	// indistinguishable from a setpoint or an idle machine.
	everChanged bool
	// suspect is the latest verdict ("" = healthy).
	suspect string
}

// ChannelGuard runs stuck-at, dropout, and spike detection over raw sensor
// channels. It is driven synchronously from the DC's scheduled tasks and is
// not safe for concurrent use (the DC is single-threaded by design).
type ChannelGuard struct {
	channels map[string]*channelState
}

// NewChannelGuard builds a guard.
func NewChannelGuard(GuardConfig) *ChannelGuard {
	return &ChannelGuard{channels: make(map[string]*channelState)}
}

func (g *ChannelGuard) state(channel string) *channelState {
	st, ok := g.channels[channel]
	if !ok {
		st = &channelState{channel: channel}
		g.channels[channel] = st
	}
	return st
}

// observe folds one fingerprint into a channel's stuck-at history and
// returns how many consecutive identical observations it has seen.
func (st *channelState) observe(fp [3]float64) int {
	if st.hasPrint && fp == st.fingerprint {
		st.repeats++
	} else {
		if st.hasPrint {
			st.everChanged = true
		}
		st.repeats = 1
	}
	st.fingerprint = fp
	st.hasPrint = true
	return st.repeats
}

// InspectFrame screens one vibration frame and records the verdict for the
// channel. It returns the suspicion reason ("" when the frame looks like a
// live sensor).
func (g *ChannelGuard) InspectFrame(channel string, frame []float64) string {
	return g.inspectFrame(g.state(channel), frame)
}

// inspectFrame is InspectFrame on a channel's state the caller looked up.
func (g *ChannelGuard) inspectFrame(st *channelState, frame []float64) string {
	st.suspect = g.frameVerdict(st, frame)
	return st.suspect
}

func (g *ChannelGuard) frameVerdict(st *channelState, frame []float64) string {
	if len(frame) == 0 {
		return "dropout: empty frame"
	}
	min, max := frame[0], frame[0]
	var sumSq float64
	zeros := 0
	for _, v := range frame {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		sumSq += v * v
		if v == 0 {
			zeros++
		}
	}
	// A NaN or infinite sample makes the sum of squares NaN or +Inf, so one
	// test after the loop stands for one per sample. Finite samples whose
	// squares overflow also make it +Inf: only then is the frame scanned
	// again, and such a frame goes on to the checks below as before.
	if math.IsNaN(sumSq) || math.IsInf(sumSq, 0) {
		for _, v := range frame {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nonFiniteSample
			}
		}
	}
	if frac := float64(zeros) / float64(len(frame)); frac >= dropoutFraction {
		return fmt.Sprintf("dropout: %.0f%% zero samples", frac*100)
	}
	if max-min < flatEpsilon {
		if st.observe([3]float64{min, max, sumSq}) >= stuckFrames {
			return "stuck-at: flatlined frame"
		}
		return ""
	}
	// Stuck-at on a live-looking signal: the exact same frame statistics
	// repeating means the acquisition path is replaying one buffer.
	if st.observe([3]float64{min, max, sumSq}) >= stuckFrames {
		return "stuck-at: identical frame statistics repeating"
	}
	rms := math.Sqrt(sumSq / float64(len(frame)))
	if rms > 0 {
		limit := spikeFactor * rms
		for _, v := range frame {
			if math.Abs(v) > limit {
				return fmt.Sprintf("spike: excursion beyond %.0fx RMS", spikeFactor)
			}
		}
	}
	return ""
}

// InspectValue screens one process-scalar observation and records the
// verdict for the channel. Scalars legitimately repeat (a steady plant is
// steady, and setpoint-like channels may be constant forever), so stuck-at
// only arms once the channel has shown variation and then freezes; a
// non-finite reading is always suspect.
func (g *ChannelGuard) InspectValue(channel string, v float64) string {
	return g.inspectValue(g.state(channel), v)
}

// inspectValue is InspectValue on a channel's state the caller looked up.
func (g *ChannelGuard) inspectValue(st *channelState, v float64) string {
	verdict := ""
	switch {
	case math.IsNaN(v) || math.IsInf(v, 0):
		verdict = "invalid: non-finite reading"
	case st.observe([3]float64{v, 0, 0}) >= stuckFrames && st.everChanged:
		verdict = "stuck-at: constant reading"
	}
	st.suspect = verdict
	return verdict
}

// quarantine caps the believability of a report derived from the channels
// read, once any of them is suspect, and names each suspect one with its
// verdict so the PDME can explain the weak belief to maintenance personnel.
func quarantine(r *proto.Report, read []*channelState) {
	for _, st := range read {
		if st.suspect == "" {
			continue
		}
		if r.Belief > believabilityCap {
			r.Belief = believabilityCap
		}
		r.SuspectChannels = append(r.SuspectChannels, st.channel)
		if r.AdditionalInfo != "" {
			r.AdditionalInfo += "; "
		}
		r.AdditionalInfo += fmt.Sprintf("channel %s suspect (%s); believability capped", st.channel, st.suspect)
	}
}

// Suspects returns every currently suspect channel, sorted.
func (g *ChannelGuard) Suspects() []string {
	var out []string
	for name, st := range g.channels {
		if st.suspect != "" {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

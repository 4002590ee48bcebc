package main

import (
	"fmt"
	"math/rand"

	"repro/internal/chiller"
)

// plantProfile is one plant condition: a set of seeded fault severities
// (none for a healthy plant).
type plantProfile struct {
	name   string
	faults map[chiller.Fault]float64
}

// faultRange is a fault with the severity range its seed is drawn from.
// The ranges sit where every knowledge source that covers the fault calls
// it, so the output checks never depend on a marginal detection.
type faultRange struct {
	fault  chiller.Fault
	lo, hi float64
}

func (fr faultRange) draw(rng *rand.Rand) float64 {
	return fr.lo + rng.Float64()*(fr.hi-fr.lo)
}

var (
	vibFaults = []faultRange{
		{chiller.MotorImbalance, 0.6, 0.9},
		{chiller.MotorBearingOuter, 0.6, 0.9},
		{chiller.GearToothWear, 0.6, 0.9},
		// Oil whirl also drops the oil pressure; 0.7 keeps it under the
		// SBFR monitor's 18.5 psi line despite sensor noise.
		{chiller.OilWhirl, 0.7, 0.9},
	}
	processFaults = []faultRange{
		{chiller.RefrigerantLowCharge, 0.6, 0.8},
		{chiller.CondenserFouling, 0.5, 0.8},
	}
)

// recording is a plant profile prerecorded for replay: a few rotations of
// vibration frames per measurement point and a ring of process snapshots.
// The chiller simulator runs only here, before any timing.
type recording struct {
	plantProfile
	cfg    chiller.Config
	load   float64
	frames [][chiller.NumPoints][]float64
	states []chiller.ProcessState
}

const (
	frameRotations = 3
	stateRotations = 16
)

func record(p plantProfile, seed int64, frameLen int) (*recording, error) {
	cfg := chiller.DefaultConfig()
	cfg.Seed = seed
	plant, err := chiller.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("record %s: %w", p.name, err)
	}
	for f, sev := range p.faults {
		if err := plant.SetFault(f, sev); err != nil {
			return nil, fmt.Errorf("record %s: %w", p.name, err)
		}
	}
	rec := &recording{plantProfile: p, cfg: plant.Config(), load: plant.Load()}
	for r := 0; r < frameRotations; r++ {
		var set [chiller.NumPoints][]float64
		for _, pt := range chiller.AllPoints() {
			if set[pt], err = plant.AcquireVibration(pt, frameLen); err != nil {
				return nil, fmt.Errorf("record %s: %w", p.name, err)
			}
		}
		rec.frames = append(rec.frames, set)
	}
	for i := 0; i < stateRotations; i++ {
		rec.states = append(rec.states, plant.ProcessState())
	}
	return rec, nil
}

// replaySource is a dc.Source that serves a recording. Successive
// acquisitions of a point walk the frame rotations and successive process
// reads walk the snapshot ring, so no DC sees the same frame or scalar
// vector twice in a row; dc.ChannelGuard would quarantine that as a stuck
// sensor. Not safe for concurrent use, like the plant it stands in for.
type replaySource struct {
	rec      *recording
	frameIdx [chiller.NumPoints]int
	stateIdx int
}

func newReplaySource(rec *recording) *replaySource { return &replaySource{rec: rec} }

// use switches the source to another recording (dc_tick feeds one DC every
// profile in turn). The rotation counters carry on, so a switch never
// restarts at a frame the DC has just seen.
func (s *replaySource) use(rec *recording) { s.rec = rec }

func (s *replaySource) AcquireVibration(pt chiller.MeasurementPoint, n int) ([]float64, error) {
	if int(pt) < 0 || int(pt) >= chiller.NumPoints {
		return nil, fmt.Errorf("replay: unknown measurement point %d", pt)
	}
	frame := s.rec.frames[s.frameIdx[pt]%len(s.rec.frames)][pt]
	s.frameIdx[pt]++
	if len(frame) != n {
		return nil, fmt.Errorf("replay: recorded %d-sample frames, DC asked for %d", len(frame), n)
	}
	return frame, nil
}

func (s *replaySource) ProcessState() chiller.ProcessState {
	st := s.rec.states[s.stateIdx%len(s.rec.states)]
	s.stateIdx++
	return st
}

func (s *replaySource) Load() float64 { return s.rec.load }

func (s *replaySource) Config() chiller.Config { return s.rec.cfg }

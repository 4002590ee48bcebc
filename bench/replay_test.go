package main

import (
	"math"
	"testing"

	"repro/internal/chiller"
	"repro/internal/dc"
)

func testRecording(t *testing.T, seed int64) *recording {
	t.Helper()
	rec, err := record(plantProfile{name: "imbalance",
		faults: map[chiller.Fault]float64{chiller.MotorImbalance: 0.7}}, seed, 2048)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// frameSum is enough of a fingerprint to tell two recorded frames apart.
func frameSum(f []float64) float64 {
	var s float64
	for _, v := range f {
		s += v * v
	}
	return s
}

// TestReplayNeverRepeatsBackToBack fails if a DC would see the same frame or
// the same process snapshot twice in a row, also across a switch of
// recordings: dc.ChannelGuard quarantines a repeating channel as stuck.
func TestReplayNeverRepeatsBackToBack(t *testing.T) {
	a, b := testRecording(t, 1), testRecording(t, 2)
	src := newReplaySource(a)
	var lastFrame [chiller.NumPoints]float64
	lastState := chiller.ProcessState{}
	for i := 0; i < 40; i++ {
		if i%7 == 6 { // switch recordings now and then, as dc_tick does per tick
			if src.rec == a {
				src.use(b)
			} else {
				src.use(a)
			}
		}
		for _, pt := range chiller.AllPoints() {
			f, err := src.AcquireVibration(pt, 2048)
			if err != nil {
				t.Fatal(err)
			}
			if sum := frameSum(f); sum == lastFrame[pt] {
				t.Fatalf("acquisition %d of %v repeats the frame before it", i, pt)
			} else {
				lastFrame[pt] = sum
			}
		}
		if st := src.ProcessState(); st == lastState {
			t.Fatalf("process read %d repeats the snapshot before it", i)
		} else {
			lastState = st
		}
	}
	if _, err := src.AcquireVibration(chiller.MotorDE, 4096); err == nil {
		t.Error("a frame length the recording does not have should be refused")
	}
}

// TestReplayKeepsTheGuardQuiet drives the real guard with replayed data for
// many rounds: no channel may turn suspect.
func TestReplayKeepsTheGuardQuiet(t *testing.T) {
	src := newReplaySource(testRecording(t, 3))
	guard := dc.NewChannelGuard(dc.GuardConfig{})
	for i := 0; i < 50; i++ {
		for _, pt := range chiller.AllPoints() {
			f, err := src.AcquireVibration(pt, 2048)
			if err != nil {
				t.Fatal(err)
			}
			if reason := guard.InspectFrame("vib/"+pt.String(), f); reason != "" {
				t.Fatalf("round %d: %v flagged: %s", i, pt, reason)
			}
		}
		for name, v := range dc.ProcessScalars(src.ProcessState()) {
			if reason := guard.InspectValue(dc.ProcChannel(name), v); reason != "" {
				t.Fatalf("round %d: %s flagged: %s", i, name, reason)
			}
		}
	}
}

func TestRecordingIsSeeded(t *testing.T) {
	a, b, c := testRecording(t, 5), testRecording(t, 5), testRecording(t, 6)
	if frameSum(a.frames[0][0]) != frameSum(b.frames[0][0]) || a.states[3] != b.states[3] {
		t.Error("the same seed gave different recordings")
	}
	if math.Float64bits(frameSum(a.frames[0][0])) == math.Float64bits(frameSum(c.frames[0][0])) {
		t.Error("different seeds gave the same recording")
	}
}

package mpros

import (
	"testing"
	"time"

	"repro/internal/chiller"
)

func TestStationConfigOverrides(t *testing.T) {
	start := time.Date(1999, 1, 1, 0, 0, 0, 0, time.UTC)
	s, err := NewStation(StationConfig{
		Seed:              3,
		VibrationInterval: time.Hour,
		ProcessInterval:   10 * time.Minute,
		Start:             start,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.DC.Scheduler().Now(); !got.Equal(start) {
		t.Errorf("start %v, want %v", got, start)
	}
	if err := s.InjectFault(chiller.MotorImbalance, 0.8); err != nil {
		t.Fatal(err)
	}
	// With a 1-hour vibration interval, 6 hours produce 7 tests (t=0..6h),
	// each reporting the strong fault.
	if err := s.Advance(6 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if n := len(s.DC.StoredReports(chiller.MotorImbalance.String())); n != 7 {
		t.Errorf("%d vibration reports, want 7 (hourly schedule)", n)
	}
}

func TestSetLoadAndMachineIdentity(t *testing.T) {
	s, err := NewStation(StationConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.SetLoad(0.25); err != nil {
		t.Fatal(err)
	}
	if s.Plant.Load() != 0.25 {
		t.Error("load override lost")
	}
	if err := s.SetLoad(5); err == nil {
		t.Error("invalid load accepted")
	}
	if s.Machine.IsZero() {
		t.Error("machine id unset")
	}
	// The machine exists in the ship model with its configured name.
	props, err := s.PDME.Model().Get(s.Machine)
	if err != nil || props["name"] != "A/C Chiller 1" {
		t.Errorf("machine object: %v %v", props, err)
	}
}

func TestStationOpenFailurePropagates(t *testing.T) {
	// An unwritable DB path must fail construction, not panic later.
	if _, err := NewStation(StationConfig{Seed: 1, DBPath: "/proc/definitely/not/writable/db"}); err == nil {
		t.Fatal("unwritable path accepted")
	}
}

package dc

import (
	"fmt"
	"time"

	"repro/internal/chiller"
	"repro/internal/historian"
	"repro/internal/vibration"
)

// The DC's historian channels reproduce the §4.6 data-management layer at
// acquisition rate: every vibration test stores its per-point feature
// scalars, every process scan stores the full process-state vector, and
// the SBFR monitor stores its status-register transitions. The historian
// is the DC's one store of what it measured; the DC database holds only
// the condition reports it issued (§4.9's ship-side audit log).

// Historian channel name helpers. Names are stable API: the replay example
// and downstream consumers reconstruct state from them.
func VibChannel(pt chiller.MeasurementPoint, feature string) string {
	return "vib/" + pt.String() + "/" + feature
}

// ProcChannel names a process-scalar channel.
func ProcChannel(field string) string { return "proc/" + field }

// SBFRChannel names an SBFR machine's status-transition channel.
func SBFRChannel(machine string) string { return "sbfr/" + machine + "/status" }

// VibFeatures are the per-point feature scalars recorded each vibration
// test.
var VibFeatures = []string{"rms", "crest", "kurtosis"}

// ProcFields lists the recorded process scalars in a fixed order.
var ProcFields = []string{
	"evap_pressure", "cond_pressure", "evap_approach", "cond_approach",
	"superheat", "chw_supply", "chw_return", "motor_current",
	"oil_pressure", "oil_temp", "vane_position", "load",
}

// ProcessScalars flattens a process snapshot into the recorded channels.
func ProcessScalars(ps chiller.ProcessState) map[string]float64 {
	return map[string]float64{
		"evap_pressure": ps.EvapPressurePSI,
		"cond_pressure": ps.CondPressurePSI,
		"evap_approach": ps.EvapApproachF,
		"cond_approach": ps.CondApproachF,
		"superheat":     ps.SuperheatF,
		"chw_supply":    ps.ChilledSupplyF,
		"chw_return":    ps.ChilledReturnF,
		"motor_current": ps.MotorCurrentA,
		"oil_pressure":  ps.OilPressurePSI,
		"oil_temp":      ps.OilTempF,
		"vane_position": ps.VanePosition,
		"load":          ps.LoadFraction,
	}
}

// ProcessStateFromScalars rebuilds a process snapshot from recorded
// scalars — the replay path: stored history back through the analyzers.
func ProcessStateFromScalars(vals map[string]float64) (chiller.ProcessState, error) {
	for _, f := range ProcFields {
		if _, ok := vals[f]; !ok {
			return chiller.ProcessState{}, fmt.Errorf("dc: replay scalar %q missing", f)
		}
	}
	return chiller.ProcessState{
		EvapPressurePSI: vals["evap_pressure"],
		CondPressurePSI: vals["cond_pressure"],
		EvapApproachF:   vals["evap_approach"],
		CondApproachF:   vals["cond_approach"],
		SuperheatF:      vals["superheat"],
		ChilledSupplyF:  vals["chw_supply"],
		ChilledReturnF:  vals["chw_return"],
		MotorCurrentA:   vals["motor_current"],
		OilPressurePSI:  vals["oil_pressure"],
		OilTempF:        vals["oil_temp"],
		VanePosition:    vals["vane_position"],
		LoadFraction:    vals["load"],
	}, nil
}

// ensureHistorianChannels registers every channel the DC records.
func (d *DC) ensureHistorianChannels() error {
	for _, pt := range chiller.AllPoints() {
		for _, feat := range VibFeatures {
			if err := d.hist.EnsureChannel(historian.ChannelConfig{Name: VibChannel(pt, feat)}); err != nil {
				return err
			}
		}
	}
	for _, f := range ProcFields {
		if err := d.hist.EnsureChannel(historian.ChannelConfig{Name: ProcChannel(f)}); err != nil {
			return err
		}
	}
	return nil
}

// recordVibrationFeatures stores one acquisition's feature scalars.
func (d *DC) recordVibrationFeatures(pt chiller.MeasurementPoint, f *vibration.Features, now time.Time) error {
	for feat, v := range map[string]float64{
		"rms": f.OverallRMS, "crest": f.CrestFactor, "kurtosis": f.Kurtosis,
	} {
		if err := d.hist.Append(VibChannel(pt, feat), now, v); err != nil {
			return err
		}
	}
	return nil
}

// recordProcessScan stores the full process-state vector.
func (d *DC) recordProcessScan(ps chiller.ProcessState, now time.Time) error {
	for f, v := range ProcessScalars(ps) {
		if err := d.hist.Append(ProcChannel(f), now, v); err != nil {
			return err
		}
	}
	return nil
}

// recordSBFRStatus stores a machine's status register whenever it changes
// (transitions only, so the channel stays sparse).
func (d *DC) recordSBFRStatus(machine string, status float64, now time.Time) error {
	//lint:allow floateq SBFR status registers hold exact small integers; change detection must be exact
	if last, ok := d.sbfrStatus[machine]; ok && last == status {
		return nil
	}
	name := SBFRChannel(machine)
	if !d.hist.HasChannel(name) {
		if err := d.hist.EnsureChannel(historian.ChannelConfig{Name: name}); err != nil {
			return err
		}
	}
	if err := d.hist.Append(name, now, status); err != nil {
		return err
	}
	d.sbfrStatus[machine] = status
	return nil
}

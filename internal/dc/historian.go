package dc

import (
	"fmt"
	"math"
	"sort"
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

// vibFeatures is the one table of the per-point feature scalars a
// vibration test records, in VibFeatures order.
var vibFeatures = [...]struct {
	name  string
	value func(*vibration.Features) float64
}{
	{"rms", func(f *vibration.Features) float64 { return f.OverallRMS }},
	{"crest", func(f *vibration.Features) float64 { return f.CrestFactor }},
	{"kurtosis", func(f *vibration.Features) float64 { return f.Kurtosis }},
}

// VibFeatures are the per-point feature scalars recorded each vibration
// test.
var VibFeatures = func() []string {
	out := make([]string, len(vibFeatures))
	for i, f := range vibFeatures {
		out[i] = f.name
	}
	return out
}()

// vibChannels holds every point's feature channel names, built once.
var vibChannels = func() (out [chiller.NumPoints][len(vibFeatures)]string) {
	for _, pt := range chiller.AllPoints() {
		for k, f := range vibFeatures {
			out[pt][k] = VibChannel(pt, f.name)
		}
	}
	return out
}()

// procField is one recorded process scalar: its name, its channel (the
// historian's and the guard's), and where a snapshot holds its value.
type procField struct {
	name    string
	channel string
	at      func(*chiller.ProcessState) *float64
}

// numProcFields is the number of recorded process scalars.
const numProcFields = 12

// procFields is the one table of recorded process scalars, in ProcFields
// order, with each channel name built once.
var procFields = func() [numProcFields]procField {
	t := [numProcFields]procField{
		{name: "evap_pressure", at: func(ps *chiller.ProcessState) *float64 { return &ps.EvapPressurePSI }},
		{name: "cond_pressure", at: func(ps *chiller.ProcessState) *float64 { return &ps.CondPressurePSI }},
		{name: "evap_approach", at: func(ps *chiller.ProcessState) *float64 { return &ps.EvapApproachF }},
		{name: "cond_approach", at: func(ps *chiller.ProcessState) *float64 { return &ps.CondApproachF }},
		{name: "superheat", at: func(ps *chiller.ProcessState) *float64 { return &ps.SuperheatF }},
		{name: "chw_supply", at: func(ps *chiller.ProcessState) *float64 { return &ps.ChilledSupplyF }},
		{name: "chw_return", at: func(ps *chiller.ProcessState) *float64 { return &ps.ChilledReturnF }},
		{name: "motor_current", at: func(ps *chiller.ProcessState) *float64 { return &ps.MotorCurrentA }},
		{name: "oil_pressure", at: func(ps *chiller.ProcessState) *float64 { return &ps.OilPressurePSI }},
		{name: "oil_temp", at: func(ps *chiller.ProcessState) *float64 { return &ps.OilTempF }},
		{name: "vane_position", at: func(ps *chiller.ProcessState) *float64 { return &ps.VanePosition }},
		{name: "load", at: func(ps *chiller.ProcessState) *float64 { return &ps.LoadFraction }},
	}
	for i := range t {
		t[i].channel = ProcChannel(t[i].name)
	}
	return t
}()

// procScreenOrder lists procFields' indices in name order, the order the
// guard screens a scan's values in, so a quarantined report names its
// suspect channels in that order.
var procScreenOrder = func() (order [numProcFields]int) {
	for i := range order {
		order[i] = i
	}
	sort.Slice(order[:], func(a, b int) bool { return procFields[order[a]].name < procFields[order[b]].name })
	return order
}()

// ProcFields lists the recorded process scalars in a fixed order.
var ProcFields = func() []string {
	out := make([]string, numProcFields)
	for i, f := range procFields {
		out[i] = f.name
	}
	return out
}()

// ProcessScalars flattens a process snapshot into the recorded channels.
func ProcessScalars(ps chiller.ProcessState) map[string]float64 {
	out := make(map[string]float64, numProcFields)
	for _, f := range procFields {
		out[f.name] = *f.at(&ps)
	}
	return out
}

// ProcessStateFromScalars rebuilds a process snapshot from recorded
// scalars — the replay path: stored history back through the analyzers.
func ProcessStateFromScalars(vals map[string]float64) (chiller.ProcessState, error) {
	var ps chiller.ProcessState
	for _, f := range procFields {
		v, ok := vals[f.name]
		if !ok {
			return chiller.ProcessState{}, fmt.Errorf("dc: replay scalar %q missing", f.name)
		}
		*f.at(&ps) = v
	}
	return ps, nil
}

// ensureHistorianChannels registers every channel the DC records.
func (d *DC) ensureHistorianChannels() error {
	for _, pt := range chiller.AllPoints() {
		for _, ch := range vibChannels[pt] {
			if err := d.hist.EnsureChannel(historian.ChannelConfig{Name: ch}); err != nil {
				return err
			}
		}
	}
	for _, f := range procFields {
		if err := d.hist.EnsureChannel(historian.ChannelConfig{Name: f.channel}); err != nil {
			return err
		}
	}
	return nil
}

// recordVibrationFeatures stores one acquisition's feature scalars.
func (d *DC) recordVibrationFeatures(pt chiller.MeasurementPoint, f *vibration.Features, now time.Time) error {
	for k, ch := range vibChannels[pt] {
		if err := d.hist.Append(ch, now, vibFeatures[k].value(f)); err != nil {
			return err
		}
	}
	return nil
}

// recordProcessScan stores a scan's process values, in procFields order.
// It skips a non-finite value, which the historian refuses; the guard has
// already judged it.
func (d *DC) recordProcessScan(vals *[numProcFields]float64, now time.Time) error {
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		if err := d.hist.Append(procFields[i].channel, now, v); err != nil {
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

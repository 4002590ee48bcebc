package dc

import (
	"fmt"
	"math"
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
	var names []string
	for _, pt := range chiller.AllPoints() {
		names = append(names, vibChannels[pt][:]...)
	}
	for _, f := range procFields {
		names = append(names, f.channel)
	}
	for _, m := range d.sbfrMachines {
		names = append(names, m.channel)
	}
	for _, name := range names {
		if err := d.hist.EnsureChannel(historian.ChannelConfig{Name: name}); err != nil {
			return err
		}
	}
	return nil
}

// record stores one sample, the one historian write of every scan. It skips
// a non-finite value, which the historian refuses; a non-finite raw value
// has its guard verdict already.
func (d *DC) record(channel string, now time.Time, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return d.hist.Append(channel, now, v)
}

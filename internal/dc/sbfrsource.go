package dc

import (
	"fmt"
	"math"
	"time"

	"repro/internal/chiller"
	"repro/internal/proto"
	"repro/internal/sbfr"
)

// The SBFR process monitor is the DC-resident use of State-Based Feature
// Recognition the paper describes: "state based feature recognition
// routines to collect and analyze process variables" (§5.8). Two enhanced
// state machines watch slow process channels for temporally persistent
// excursions — exactly the time-correlation job SBFR was built for — and
// flag their status registers; the DC acts as the §6.3 "other agent" that
// notices a flagged condition, emits a §7 report, and resets the register.

// ProcessMonitorChannels are the process channels the monitor samples.
var ProcessMonitorChannels = []string{"oil_pressure", "evap_pressure"}

// ProcessMonitorSource is the SBFR assembly for the process monitor.
// Thresholds are calibrated to the chiller simulator's healthy envelope
// (oil ≈ 22 psi, suction ≈ 30–36 psi): a reading must stay depressed for
// more than four consecutive samples before a condition is flagged, the
// same debouncing idea as Figure 3's ΔT constraints.
const ProcessMonitorSource = `
# Persistent lubrication-pressure depression: oil whirl precursor.
machine OilPressureLow
  locals 1
  state Watch
    when local.0 > 4 do status.self = 1 goto Alarm
    when in.oil_pressure < 18.5 do local.0 = local.0 + 1 goto Watch
    when in.oil_pressure >= 18.5 do local.0 = 0 goto Watch
  state Alarm
    when status.self == 0 do local.0 = 0 goto Watch

# Persistent suction-pressure depression: refrigerant loss precursor.
machine SuctionLow
  locals 1
  state Watch
    when local.0 > 4 do status.self = 1 goto Alarm
    when in.evap_pressure < 26 do local.0 = local.0 + 1 goto Watch
    when in.evap_pressure >= 26 do local.0 = 0 goto Watch
  state Alarm
    when status.self == 0 do local.0 = 0 goto Watch
`

// sbfrMachine is one monitor machine as the DC drives it: the §7.2 machine
// condition it reports, with its severity and believability, its historian
// channel, and the status last recorded (NaN before the first scan, so the
// first status is always recorded).
type sbfrMachine struct {
	condition string
	severity  float64
	belief    float64
	explain   string
	name      string
	channel   string
	status    float64
}

// monitorConditions maps each monitor machine to the report it raises.
var monitorConditions = map[string]sbfrMachine{
	"OilPressureLow": {
		condition: chiller.OilWhirl.String(),
		severity:  0.45,
		belief:    0.6,
		explain:   "SBFR: lubrication oil pressure persistently below 18.5 psi (5+ consecutive samples)",
	},
	"SuctionLow": {
		condition: chiller.RefrigerantLowCharge.String(),
		severity:  0.45,
		belief:    0.55,
		explain:   "SBFR: suction pressure persistently below 26 psi (5+ consecutive samples)",
	},
}

// newProcessMonitor assembles the monitor system and resolves each of its
// machines.
func newProcessMonitor() (*sbfr.System, []sbfrMachine, error) {
	sys, err := sbfr.NewSystemFromSource(ProcessMonitorSource, ProcessMonitorChannels)
	if err != nil {
		return nil, nil, err
	}
	var machines []sbfrMachine
	for _, name := range sys.MachineNames() {
		m, ok := monitorConditions[name]
		if !ok {
			return nil, nil, fmt.Errorf("dc: SBFR machine %q has no report mapping", name)
		}
		m.name, m.channel, m.status = name, SBFRChannel(name), math.NaN()
		machines = append(machines, m)
	}
	return sys, machines, nil
}

// cycleSBFR ticks the monitor on one process sample through the DC-owned
// input vector, so the tick itself allocates nothing.
func (d *DC) cycleSBFR(ps chiller.ProcessState) error {
	d.sbfrIn = [2]float64{ps.OilPressurePSI, ps.EvapPressurePSI}
	return d.sbfrSys.Cycle(d.sbfrIn[:])
}

// RunSBFRScan takes the DC's scan steps on the monitor. Acquire: one process
// sample. Diagnose: one monitor cycle on it. Record: each machine's status
// register whenever it changes, so the channel stays sparse. Emit: a report
// for each machine whose register is flagged, then the register's reset
// (the DC is the acknowledging agent). The process scan screens the
// channels the monitor reads, and its reports are not quarantined by them.
func (d *DC) RunSBFRScan(now time.Time) error {
	if d.sbfrSys == nil {
		return fmt.Errorf("dc: SBFR monitor not enabled")
	}
	d.sbfrScans++
	if err := d.cycleSBFR(d.src.ProcessState()); err != nil {
		return err
	}
	for i := range d.sbfrMachines {
		m := &d.sbfrMachines[i]
		status, err := d.sbfrSys.Status(m.name)
		if err != nil {
			return err
		}
		//lint:allow floateq SBFR status registers hold exact small integers; change detection must be exact
		if status == m.status {
			continue
		}
		if err := d.record(m.channel, now, status); err != nil {
			return err
		}
		m.status = status
	}
	for _, m := range d.sbfrMachines {
		if m.status == 0 {
			continue
		}
		report := &proto.Report{
			DCID:               d.cfg.ID,
			KnowledgeSourceID:  "ks/sbfr",
			SensedObjectID:     d.cfg.ObjectID,
			MachineConditionID: m.condition,
			Severity:           m.severity,
			Belief:             m.belief,
			Explanation:        m.explain,
			Timestamp:          now,
			Prognostics:        proto.PrognosticVector{{Probability: 0.4, HorizonSeconds: 60 * 86400}},
		}
		if err := d.emit(report, now); err != nil {
			return err
		}
		if err := d.sbfrSys.SetStatus(m.name, 0); err != nil {
			return err
		}
	}
	return nil
}

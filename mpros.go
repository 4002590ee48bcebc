// Package mpros is the public API of the MPROS reproduction: the Machinery
// Prognostic and Diagnostic System of "Condition-Based Maintenance:
// Algorithms and Applications for Embedded High Performance Computing"
// (Bennett & Hadden, IPPS/SPDP Workshops 1999).
//
// The package assembles the internal subsystems — the chiller plant
// simulator, the Data Concentrator with its analyzer suite (DLI-style
// vibration rulebook, fuzzy process diagnostics, SBFR), the report
// protocol, and the PDME with its Object-Oriented Ship Model and
// Dempster-Shafer / conservative-envelope knowledge fusion — into ready-to-
// run deployments. Examples under examples/ and the mprosbench experiment
// harness drive everything through this facade.
package mpros

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/chiller"
	"repro/internal/dc"
	"repro/internal/fusion"
	"repro/internal/health"
	"repro/internal/historian"
	"repro/internal/oosm"
	"repro/internal/pdme"
	"repro/internal/proto"
	"repro/internal/uplink"
)

// Re-exported core types, so facade users need no internal imports.
type (
	// Report is the §7.2 failure prediction report.
	Report = proto.Report
	// PrognosticVector is the §7.3 (probability, time) list.
	PrognosticVector = proto.PrognosticVector
	// SeverityGrade is the Slight/Moderate/Serious/Extreme scale.
	SeverityGrade = proto.SeverityGrade
	// Fault enumerates the twelve FMEA failure modes of the chiller model.
	Fault = chiller.Fault
	// MaintenanceItem is one row of the PDME's prioritized list.
	MaintenanceItem = pdme.MaintenanceItem
	// Groups maps logical failure groups to condition names.
	Groups = fusion.Groups
	// HealthConfig parametrizes the PDME's fleet-health registry
	// (liveness thresholds, staleness-discounting curve).
	HealthConfig = health.Config
	// Source is the plant interface a DC instruments; FleetConfig.WrapSource
	// interposes on it for sensor-fault injection.
	Source = dc.Source
)

// Health state constants.
const (
	HealthUnknown  = health.StateUnknown
	HealthAlive    = health.StateAlive
	HealthLate     = health.StateLate
	HealthSilent   = health.StateSilent
	HealthFlapping = health.StateFlapping
)

// Severity grade constants.
const (
	SeverityNone     = proto.SeverityNone
	SeveritySlight   = proto.SeveritySlight
	SeverityModerate = proto.SeverityModerate
	SeveritySerious  = proto.SeveritySerious
	SeverityExtreme  = proto.SeverityExtreme
)

// ChillerGroups returns the logical failure groups (§5.3) for the
// centrifugal chiller's twelve FMEA failure modes.
func ChillerGroups() Groups {
	g := Groups{}
	for name, faults := range chiller.FaultGroups() {
		for _, f := range faults {
			g[name] = append(g[name], f.String())
		}
	}
	return g
}

// StationConfig configures a single-chiller monitoring station: one
// simulated plant, one Data Concentrator, one PDME, connected in-process.
type StationConfig struct {
	// Seed drives the plant's reproducible randomness.
	Seed int64
	// DBPath is the DC's report log (dc.Config.ReportLog): the newest
	// condition reports the DC issued outlive the process (its measurements
	// live in the historian); empty keeps them in memory. The PDME keeps no
	// database: JournalDir is its durable store.
	DBPath string
	// VibrationInterval and ProcessInterval override the DC test schedule
	// (zero keeps the defaults: 4h vibration, 30m process).
	VibrationInterval time.Duration
	ProcessInterval   time.Duration
	// Start is the initial virtual time (zero: 1998-08-01, when the paper's
	// PDME first ran).
	Start time.Time
	// EnableSBFR activates the DC's SBFR process monitor as a third
	// knowledge source (§5.8). The fourth source, the WNN classifier, is
	// attached separately via Station.DC.AttachWNN because its training is
	// expensive (see wnn.NewChillerClassifier).
	EnableSBFR bool
	// HistorianDir persists the station's time-series historian on disk;
	// empty runs it in memory. The DC and PDME share one store: DC
	// acquisitions and PDME severity histories land in the same archive,
	// and replay tools (examples/historian-replay) read it back.
	HistorianDir string
	// Heartbeat schedules the DC's liveness heartbeat at this interval
	// (0: no heartbeats). In-process stations deliver heartbeats straight
	// into the PDME's health registry.
	Heartbeat time.Duration
	// Health, when set, enables staleness-discounted fusion on the PDME
	// (see HealthConfig); nil keeps classic undiscounted fusion while the
	// registry still tracks liveness.
	Health *HealthConfig
	// JournalDir persists the PDME's write-ahead journal + checkpoints on
	// disk; empty runs without durability. With it set, a killed station
	// process recovers its fusion state (evidence, dedup window, health
	// history) bit-for-bit on the next NewStation over the same directory.
	JournalDir string
	// DedupWindow overrides the PDME's per-DC duplicate-suppression window
	// capacity (0: proto.DefaultDedupWindow, 4096 sequences).
	DedupWindow int
}

// Station is a complete single-machine MPROS deployment.
type Station struct {
	// Plant is the simulated chiller.
	Plant *chiller.Plant
	// DC is the data concentrator instrumenting it.
	DC *dc.DC
	// PDME is the monitoring engine fusing the DC's reports.
	PDME *pdme.PDME
	// Machine is the OOSM id of the monitored chiller.
	Machine oosm.ObjectID
	// Historian is the shared time-series store (DC acquisitions + PDME
	// severity/lifetime archives).
	Historian *historian.Store
	// Recovery summarizes what the PDME's journal restored at build time
	// (zero value when JournalDir is unset).
	Recovery pdme.RecoveryStats

	node *Node
}

// NewStation assembles a station.
func NewStation(cfg StationConfig) (*Station, error) {
	plantCfg := chiller.DefaultConfig()
	plantCfg.Seed = cfg.Seed
	plant, err := chiller.New(plantCfg)
	if err != nil {
		return nil, err
	}
	// Model the monitored machine itself: the model is fresh at every start
	// and row ids are per table, so it is chiller/1 in every process life.
	var machine oosm.ObjectID
	modelMachine := func(model *oosm.Model) error {
		err := model.RegisterClass(oosm.Class{
			Name: "chiller",
			Props: map[string]oosm.PropType{
				"name":         oosm.PropString,
				"manufacturer": oosm.PropString,
			},
		})
		if err != nil {
			return err
		}
		machine, err = model.Create("chiller", map[string]any{
			"name": "A/C Chiller 1", "manufacturer": "Carrier",
		})
		return err
	}
	node, err := OpenNode(cfg.HistorianDir, cfg.Health, cfg.DedupWindow, modelMachine,
		pdme.JournalOptions{Dir: cfg.JournalDir}, nil)
	if err != nil {
		return nil, err
	}
	dcCfg := dc.DefaultConfig("dc-1", machine.String())
	dcCfg.ReportLog = cfg.DBPath
	dcCfg.EnableSBFR = cfg.EnableSBFR
	dcCfg.Historian = node.Historian
	if cfg.VibrationInterval > 0 {
		dcCfg.VibrationInterval = cfg.VibrationInterval
	}
	if cfg.ProcessInterval > 0 {
		dcCfg.ProcessInterval = cfg.ProcessInterval
	}
	if !cfg.Start.IsZero() {
		dcCfg.Start = cfg.Start
	}
	dcCfg.HeartbeatInterval = cfg.Heartbeat
	conc, err := dc.New(dcCfg, plant, nil, node.PDME)
	if err != nil {
		node.Close()
		return nil, err
	}
	return &Station{Plant: plant, DC: conc, PDME: node.PDME, Machine: machine,
		Historian: node.Historian, Recovery: node.Recovery, node: node}, nil
}

// InjectFault sets a failure mode's severity on the plant.
func (s *Station) InjectFault(f Fault, severity float64) error {
	return s.Plant.SetFault(f, severity)
}

// SetLoad sets the plant load fraction.
func (s *Station) SetLoad(frac float64) error { return s.Plant.SetLoad(frac) }

// Advance runs the station's virtual clock forward, executing scheduled
// tests and fusing the resulting reports.
func (s *Station) Advance(d time.Duration) error { return s.DC.RunFor(d) }

// Belief returns the PDME's fused belief in a fault on the machine.
func (s *Station) Belief(f Fault) (float64, error) {
	return s.PDME.Belief(s.Machine.String(), f.String())
}

// FusedPrognostic returns the fused failure-probability vector for a fault,
// a copy the caller may keep and change.
func (s *Station) FusedPrognostic(f Fault) PrognosticVector {
	return slices.Clone(s.PDME.FusedPrognostic(s.Machine.String(), f.String()))
}

// PrioritizedList returns the fused maintenance list.
func (s *Station) PrioritizedList() []MaintenanceItem { return s.PDME.PrioritizedList() }

// Browser renders the Figure 2-style machine display.
func (s *Station) Browser() (string, error) {
	return s.PDME.RenderBrowser(s.Machine.String())
}

// Close releases the DC (closing its report log), the PDME (writing its final
// checkpoint), and the shared historian.
func (s *Station) Close() error { return errors.Join(s.DC.Close(), s.node.Close()) }

// FleetConfig configures a multi-DC deployment reporting to one PDME over
// TCP — the paper's distributed architecture: "Conclusions reached by these
// algorithms are then sent over the ship's network to a centrally located
// machine" (§1.1).
type FleetConfig struct {
	// DCCount is the number of data concentrators (one chiller each).
	DCCount int
	// SeedBase offsets each plant's random seed.
	SeedBase int64
	// Addr is the PDME listen address ("127.0.0.1:0" for tests).
	Addr string
	// SpoolDir persists each station's store-and-forward spool under a
	// per-DC subdirectory; empty keeps the spools in memory (reports then
	// survive outages but not a DC process restart).
	SpoolDir string
	// Uplink tunes the stations' transport (timeouts, backoff, capacity);
	// Addr, DCID, and SpoolDir are filled in per station. Zero values take
	// the uplink package defaults.
	Uplink uplink.Config
	// DialVia, when set, is called for each station with its index and the
	// PDME's bound address, and returns the address that station dials
	// instead — the hook where chaos tests interpose a netfault proxy, one
	// per station or one shared by all.
	DialVia func(station int, pdmeAddr string) (string, error)
	// WrapSource, when set, interposes on each station's plant before the
	// DC instruments it — the hook where chaos tests inject sensor faults
	// (stuck channels, dropouts) for a single station.
	WrapSource func(station int, src Source) Source
	// Heartbeat schedules each DC's liveness heartbeat at this interval
	// (0: no heartbeats). Heartbeats ride the uplink out-of-band: they are
	// never spooled, and a dropped heartbeat is itself the outage signal.
	Heartbeat time.Duration
	// Health, when set, enables staleness-discounted fusion on the fleet's
	// PDME; nil keeps classic undiscounted fusion while the health registry
	// still tracks per-DC liveness.
	Health *HealthConfig
	// DedupWindow overrides the PDME's per-DC duplicate-suppression window
	// capacity (0: proto.DefaultDedupWindow, 4096 sequences).
	DedupWindow int
}

// fleetFlushTimeout bounds Advance's post-run spool drain.
const fleetFlushTimeout = 60 * time.Second

// Fleet is a PDME plus several networked DCs.
type Fleet struct {
	// PDME is the central engine.
	PDME *pdme.PDME
	// Addr is the PDME's bound TCP address.
	Addr string
	// Stations hold each DC and its plant; their uplinks dial Addr (or the
	// DialVia override).
	Stations []*FleetStation

	node *Node
}

// FleetStation is one DC of a fleet.
type FleetStation struct {
	Plant   *chiller.Plant
	DC      *dc.DC
	Machine oosm.ObjectID
	// Uplink is the station's resilient transport: it spools reports while
	// the PDME is unreachable, redials with backoff, and tags deliveries
	// for server-side dedup. Counters() exposes delivery statistics.
	Uplink *uplink.Uplink

	// upCfg is the configuration the station's uplink was built from.
	upCfg uplink.Config
}

// NewFleet assembles and starts a fleet.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.DCCount < 1 {
		return nil, fmt.Errorf("mpros: fleet needs at least one DC")
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	machines := make([]oosm.ObjectID, cfg.DCCount)
	modelMachines := func(model *oosm.Model) error {
		err := model.RegisterClass(oosm.Class{
			Name:  "chiller",
			Props: map[string]oosm.PropType{"name": oosm.PropString},
		})
		for i := 0; i < len(machines) && err == nil; i++ {
			machines[i], err = model.Create("chiller", map[string]any{
				"name": fmt.Sprintf("A/C Chiller %d", i+1),
			})
		}
		return err
	}
	node, err := OpenNode("", cfg.Health, cfg.DedupWindow, modelMachines, pdme.JournalOptions{}, nil)
	if err != nil {
		return nil, err
	}
	f := &Fleet{PDME: node.PDME, node: node}
	if f.Addr, err = node.Serve(cfg.Addr, 0); err != nil {
		f.Close()
		return nil, err
	}
	for i := 0; i < cfg.DCCount; i++ {
		plantCfg := chiller.DefaultConfig()
		plantCfg.Seed = cfg.SeedBase + int64(i)
		plant, err := chiller.New(plantCfg)
		if err != nil {
			f.Close()
			return nil, err
		}
		dcid := fmt.Sprintf("dc-%d", i+1)
		upCfg := cfg.Uplink
		upCfg.Addr = f.Addr
		upCfg.DCID = dcid
		if cfg.DialVia != nil {
			if upCfg.Addr, err = cfg.DialVia(i, f.Addr); err != nil {
				f.Close()
				return nil, err
			}
		}
		if cfg.SpoolDir != "" {
			upCfg.SpoolDir = filepath.Join(cfg.SpoolDir, dcid)
		}
		up, err := uplink.New(upCfg)
		if err != nil {
			f.Close()
			return nil, err
		}
		dcCfg := dc.DefaultConfig(dcid, machines[i].String())
		dcCfg.HeartbeatInterval = cfg.Heartbeat
		var src Source = plant
		if cfg.WrapSource != nil {
			src = cfg.WrapSource(i, src)
		}
		conc, err := dc.New(dcCfg, src, nil, up)
		if err != nil {
			up.Close()
			f.Close()
			return nil, err
		}
		f.Stations = append(f.Stations, &FleetStation{
			Plant: plant, DC: conc, Machine: machines[i], Uplink: up, upCfg: upCfg,
		})
	}
	return f, nil
}

// Advance runs every DC's virtual clock forward by d, then drains the
// stations' spools so fused beliefs reflect every report generated — a
// mid-Advance outage only delays delivery, it never loses reports.
func (f *Fleet) Advance(d time.Duration) error {
	for _, s := range f.Stations {
		if err := s.DC.RunFor(d); err != nil {
			return err
		}
	}
	return f.Flush(fleetFlushTimeout)
}

// Flush blocks until every station's spool is drained or the timeout
// elapses (e.g. the PDME is still partitioned away).
func (f *Fleet) Flush(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, s := range f.Stations {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			remaining = time.Millisecond
		}
		if err := s.Uplink.Flush(remaining); err != nil {
			return err
		}
	}
	return nil
}

// Close shuts down uplinks, the server, and the PDME.
func (f *Fleet) Close() error {
	for _, s := range f.Stations {
		if s.Uplink != nil {
			s.Uplink.Close()
		}
	}
	return f.node.Close()
}

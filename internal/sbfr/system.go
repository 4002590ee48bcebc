package sbfr

import (
	"fmt"
)

// System schedules a set of machines over shared sensor channels and status
// registers — "several enhanced finite-state machines operating in
// parallel". Machines are stepped in declaration order each cycle; status
// register writes are visible immediately, which is what lets the Figure 3
// stiction machine reset the spike machine's status within the same cycle
// family of ticks.
type System struct {
	channels   []string
	chanIdx    map[string]int
	machines   []*Runtime
	machineIdx map[string]int
	status     []float64
	sensors    []float64
	prev       []float64
	deltas     []float64
	ticks      int64
	started    bool
}

// NewSystem builds a system from compiled programs sharing the channel list
// used at assembly time.
func NewSystem(channels []string, progs []*Program) (*System, error) {
	if len(progs) == 0 {
		return nil, fmt.Errorf("sbfr: system needs at least one machine")
	}
	if len(progs) > 255 {
		return nil, fmt.Errorf("sbfr: too many machines (%d)", len(progs))
	}
	s := &System{
		channels:   append([]string(nil), channels...),
		chanIdx:    make(map[string]int, len(channels)),
		machineIdx: make(map[string]int, len(progs)),
		status:     make([]float64, len(progs)),
		sensors:    make([]float64, len(channels)),
		prev:       make([]float64, len(channels)),
		deltas:     make([]float64, len(channels)),
	}
	for i, c := range channels {
		if _, dup := s.chanIdx[c]; dup {
			return nil, fmt.Errorf("sbfr: duplicate channel %q", c)
		}
		s.chanIdx[c] = i
	}
	for i, p := range progs {
		if p.SelfIndex != i {
			return nil, fmt.Errorf("sbfr: machine %q has self index %d, expected %d (assemble all machines together)", p.Name, p.SelfIndex, i)
		}
		if _, dup := s.machineIdx[p.Name]; dup {
			return nil, fmt.Errorf("sbfr: duplicate machine %q", p.Name)
		}
		rt, err := newRuntime(p)
		if err != nil {
			return nil, err
		}
		s.machines = append(s.machines, rt)
		s.machineIdx[p.Name] = i
	}
	return s, nil
}

// NewSystemFromSource assembles source against channels and builds a system.
func NewSystemFromSource(source string, channels []string) (*System, error) {
	progs, err := AssembleSystem(source, channels)
	if err != nil {
		return nil, err
	}
	return NewSystem(channels, progs)
}

// Cycle advances the system one tick with the given sensor values (one per
// channel, in the order given to NewSystem). The first cycle establishes the
// baseline, so deltas are zero on tick one. Every buffer the tick touches is
// owned by the system, so steady-state cycles do not allocate.
//
//mpros:hotpath rule-machine tick on the embedded cycle
func (s *System) Cycle(inputs []float64) error {
	if len(inputs) != len(s.sensors) {
		return fmt.Errorf("sbfr: got %d inputs, want %d", len(inputs), len(s.sensors))
	}
	if s.started {
		copy(s.prev, s.sensors)
	}
	copy(s.sensors, inputs)
	if !s.started {
		copy(s.prev, s.sensors)
		s.started = true
	}
	for i := range s.deltas {
		s.deltas[i] = s.sensors[i] - s.prev[i]
	}
	env := evalEnv{sensors: s.sensors, deltas: s.deltas, status: s.status}
	for _, m := range s.machines {
		if _, err := m.step(&env); err != nil {
			return err
		}
	}
	s.ticks++
	return nil
}

// Ticks returns the number of completed cycles.
func (s *System) Ticks() int64 { return s.ticks }

// MachineNames returns machine names in scheduling order.
func (s *System) MachineNames() []string {
	out := make([]string, len(s.machines))
	for i, m := range s.machines {
		out[i] = m.prog.Name
	}
	return out
}

// Status returns a machine's status register.
func (s *System) Status(machine string) (float64, error) {
	i, ok := s.machineIdx[machine]
	if !ok {
		return 0, fmt.Errorf("sbfr: no machine %q", machine)
	}
	return s.status[i], nil
}

// SetStatus writes a machine's status register — the paper's external-agent
// handshake: after a higher-level component notices a flagged condition it
// "has the responsibility to then reset [the] status register to 0".
func (s *System) SetStatus(machine string, v float64) error {
	i, ok := s.machineIdx[machine]
	if !ok {
		return fmt.Errorf("sbfr: no machine %q", machine)
	}
	s.status[i] = v
	return nil
}

// StateOf returns a machine's current state name.
func (s *System) StateOf(machine string) (string, error) {
	i, ok := s.machineIdx[machine]
	if !ok {
		return "", fmt.Errorf("sbfr: no machine %q", machine)
	}
	return s.machines[i].State(), nil
}

// LocalOf returns local variable n of a machine.
func (s *System) LocalOf(machine string, n int) (float64, error) {
	i, ok := s.machineIdx[machine]
	if !ok {
		return 0, fmt.Errorf("sbfr: no machine %q", machine)
	}
	return s.machines[i].Local(n), nil
}

// Reset returns every machine to its initial state and zeroes all status
// registers and tick counts.
func (s *System) Reset() {
	for _, m := range s.machines {
		m.Reset()
	}
	for i := range s.status {
		s.status[i] = 0
	}
	s.ticks = 0
	s.started = false
}

// FootprintBytes returns the total compiled bytecode size of all machines —
// the quantity the paper bounds at 32 KB for 100 machines plus interpreter.
func (s *System) FootprintBytes() int {
	total := 0
	for _, m := range s.machines {
		total += m.prog.Size()
	}
	return total
}

// RuntimeBytes estimates the RAM the machine runtimes need: locals and
// status registers at 8 bytes each plus per-machine bookkeeping.
func (s *System) RuntimeBytes() int {
	total := 8 * len(s.status)
	for _, m := range s.machines {
		total += 8*len(m.locals) + 16 // state + elapsed
	}
	return total
}

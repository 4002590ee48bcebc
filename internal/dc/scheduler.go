// Package dc implements the MPROS Data Concentrator (§5.8): "The DC
// software is coordinated by an event scheduler. It coordinates standard
// vibration test[s] including data acquisition and communication of the
// results ... The data is processed and then sent to an expert system
// [which] applies stored rules for each equipment type and derives the
// diagnoses ... Each of the components extract information from and store
// data in the DC database."
//
// The DC owns: a virtual-time event scheduler; a MUX/channel acquisition
// model mirroring the §8 hardware (two 16×4 multiplexer cards with RMS
// detectors feeding a 4-channel DSP card); the analyzer suite
// (vibration rulebook, fuzzy process diagnostics, optional SBFR system);
// a historian for measurements; a bounded ring and log of the condition
// reports it issued; and an uplink Sink that carries reports to the PDME.
package dc

import (
	"container/heap"
	"fmt"
	"sort"
	"time"
)

// Task is a periodic scheduled activity.
type Task struct {
	// Name identifies the task in logs and the task table.
	Name string
	// Interval is the repetition period; it must be positive.
	Interval time.Duration
	// Run executes the activity at virtual time now.
	Run func(now time.Time) error
}

// TaskStatus is one task's execution record, reported in heartbeats so the
// PDME can see not just that a DC is alive but that its analysis suites are
// actually running.
type TaskStatus struct {
	// Name is the task name.
	Name string
	// LastRun is the virtual time of the most recent execution (zero:
	// never ran).
	LastRun time.Time
	// Runs counts executions.
	Runs int64
}

// Scheduler is a deterministic virtual-time event scheduler. The paper's DC
// runs tests on wall-clock schedules; driving the same queue with virtual
// time lets a month of shipboard operation execute in milliseconds of test
// time. It is not safe for concurrent use.
type Scheduler struct {
	now    time.Time
	queue  eventQueue
	seq    int64
	status map[string]*TaskStatus
}

type event struct {
	at   time.Time
	seq  int64 // tiebreak for deterministic ordering
	task *Task
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// NewScheduler creates a scheduler starting at the given virtual time.
func NewScheduler(start time.Time) *Scheduler {
	s := &Scheduler{now: start, status: make(map[string]*TaskStatus)}
	heap.Init(&s.queue)
	return s
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Time { return s.now }

// Schedule enqueues a task to first run after delay, then repeat at its
// interval.
func (s *Scheduler) Schedule(t *Task, delay time.Duration) error {
	if t == nil || t.Run == nil {
		return fmt.Errorf("dc: nil task")
	}
	if t.Interval <= 0 {
		return fmt.Errorf("dc: task %q has interval %v, want a positive period", t.Name, t.Interval)
	}
	if delay < 0 {
		return fmt.Errorf("dc: negative delay")
	}
	s.seq++
	heap.Push(&s.queue, &event{at: s.now.Add(delay), seq: s.seq, task: t})
	return nil
}

// RunUntil executes due tasks in time order until the virtual clock passes
// end; each run re-enqueues its task at its interval. A task error aborts
// the run with the clock at the failed run: the task's next occurrence is
// queued all the same, so a later RunUntil carries on with it, and the
// failed run does not count in the task's status.
func (s *Scheduler) RunUntil(end time.Time) error {
	for len(s.queue) > 0 {
		next := s.queue[0]
		if next.at.After(end) {
			break
		}
		heap.Pop(&s.queue)
		s.now = next.at
		err := next.task.Run(s.now)
		s.seq++
		heap.Push(&s.queue, &event{at: s.now.Add(next.task.Interval), seq: s.seq, task: next.task})
		if err != nil {
			return fmt.Errorf("dc: task %q at %v: %w", next.task.Name, s.now, err)
		}
		st, ok := s.status[next.task.Name]
		if !ok {
			st = &TaskStatus{Name: next.task.Name}
			s.status[next.task.Name] = st
		}
		st.LastRun = s.now
		st.Runs++
	}
	if s.now.Before(end) {
		s.now = end
	}
	return nil
}

// Pending returns the number of queued events.
func (s *Scheduler) Pending() int { return len(s.queue) }

// Statuses returns every executed task's last-run record, sorted by name.
func (s *Scheduler) Statuses() []TaskStatus {
	out := make([]TaskStatus, 0, len(s.status))
	for _, st := range s.status {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

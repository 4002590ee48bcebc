package mpros

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"testing"
	"time"

	"repro/internal/chiller"
	"repro/internal/pdme"
	"repro/internal/testkit"
)

// TestMain doubles as the crash-chaos child process: re-executed with
// MPROS_CRASH_CHILD=1, the test binary becomes a minimal journaled PDME
// server that the parent test SIGKILLs at will. Running the child inside
// the test binary keeps the harness self-contained — no separate build
// step, and `go test -race .` races the child too.
func TestMain(m *testing.M) {
	if os.Getenv("MPROS_CRASH_CHILD") == "1" {
		crashChildRun()
		return
	}
	os.Exit(m.Run())
}

// crashChildRun is the child body: a node (OpenNode, as pdmed builds it) with the journal open, serving the §7 wire protocol at
// the addressed port. It prints READY once the listener is up and then
// blocks until killed — there is deliberately no graceful-shutdown path;
// SIGKILL is the only exit.
func crashChildRun() {
	dir := os.Getenv("MPROS_CRASH_DIR")
	addr := os.Getenv("MPROS_CRASH_ADDR")
	// An aggressive cadence (vs the 1024 default) so random kills land
	// mid-checkpoint, not just mid-append.
	node, err := OpenNode("", nil, 0, nil, pdme.JournalOptions{Dir: dir, CheckpointEvery: 8}, nil)
	if err != nil {
		crashChildFail(err)
	}
	if _, err := node.Serve(addr, 0); err != nil {
		crashChildFail(err)
	}
	fmt.Println("READY")
	select {}
}

func crashChildFail(err error) {
	fmt.Fprintln(os.Stderr, "crash child:", err)
	os.Exit(2)
}

// crashChild manages one child incarnation from the parent side.
type crashChild struct {
	t    *testing.T
	dir  string
	addr string
	cmd  *exec.Cmd
}

// start spawns a fresh child over the same journal dir and address and
// waits for its READY handshake (recovery has finished and the listener
// is bound — uplinks redialing the fixed address will reach it).
func (c *crashChild) start() {
	c.t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(),
		"MPROS_CRASH_CHILD=1",
		"MPROS_CRASH_DIR="+c.dir,
		"MPROS_CRASH_ADDR="+c.addr,
	)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		c.t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		c.t.Fatal(err)
	}
	ready := make(chan bool, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if sc.Text() == "READY" {
				ready <- true
				// Keep draining so the child never blocks on a full pipe.
				for sc.Scan() {
				}
				return
			}
		}
		ready <- false
	}()
	select {
	case ok := <-ready:
		if !ok {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			c.t.Fatal("crash child exited before READY")
		}
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		c.t.Fatal("crash child did not become READY in 30s")
	}
	c.cmd = cmd
}

// kill SIGKILLs the child — no flush, no checkpoint, no courtesy.
func (c *crashChild) kill() {
	c.t.Helper()
	if c.cmd == nil {
		return
	}
	_ = c.cmd.Process.Kill()
	_ = c.cmd.Wait() // reap; error is the expected kill signal
	c.cmd = nil
}

// TestCrashChaosKill9Recovery is the durability acceptance scenario: a
// fleet reports to an out-of-process journaled PDME that is SIGKILLed at
// randomized points (mid-append, mid-checkpoint) and restarted over the
// same journal; DC uplinks redial and drain their persistent spools. After
// a final kill, the journal is recovered in-process and the result must
// match an undisturbed in-process run exactly — same received count (zero
// lost, zero double-fused) and bit-identical beliefs.
func TestCrashChaosKill9Recovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills child processes")
	}
	faults := []chiller.Fault{chiller.MotorImbalance, chiller.GearToothWear}
	const seedBase = 7500
	phases := []time.Duration{4 * time.Hour, 4 * time.Hour, 6 * time.Hour, 4 * time.Hour}

	// Undisturbed reference: the fleet reports to its own in-process PDME.
	base, err := NewFleet(chaosFleetConfig(seedBase, ""))
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range base.Stations {
		if err := st.Plant.SetFault(faults[i], 0.8); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range phases {
		if err := base.Advance(d); err != nil {
			t.Fatal(err)
		}
	}
	want := collectOutcome(t, base, faults)
	if err := base.Close(); err != nil {
		t.Fatal(err)
	}
	if want.received == 0 {
		t.Fatal("reference run produced no reports")
	}

	// Pick a fixed port for the child: every incarnation rebinds it so the
	// uplinks' redial loop finds the restarted server without help.
	childAddr := testkit.FreeAddr(t)

	journalDir := testkit.KeptDir(t)
	child := &crashChild{t: t, dir: journalDir, addr: childAddr}
	child.start()
	defer child.kill()

	// Chaos fleet: same seeds and schedule, but every uplink dials the
	// child instead of the fleet's own PDME, and spools persist on disk so
	// nothing is lost while the child is down.
	cfg := chaosFleetConfig(seedBase, t.TempDir())
	cfg.DialVia = func(int, string) (string, error) { return childAddr, nil }
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i, st := range f.Stations {
		if err := st.Plant.SetFault(faults[i], 0.8); err != nil {
			t.Fatal(err)
		}
	}

	// Fixed seed: reproducible kill schedule, no wall clock involved.
	const killSeed = 7500
	rng := rand.New(rand.NewSource(killSeed))
	kills := 0
	var delays []time.Duration
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("kill schedule: seed %d, delays before each kill %v", killSeed, delays)
		}
	})
	for phase, d := range phases {
		done := make(chan error, 1)
		go func() { done <- f.Advance(d) }()
		// Phases 2 and 3 get SIGKILLed mid-flight (twice, then once);
		// phases 1 and 4 run clean so the journal also proves itself on
		// quiescent restarts.
		for k := 0; k < []int{0, 2, 1, 0}[phase]; k++ {
			delays = append(delays, time.Duration(5+rng.Intn(35))*time.Millisecond)
			time.Sleep(delays[len(delays)-1])
			child.kill()
			kills++
			child.start()
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Flush(time.Minute); err != nil {
		t.Fatal(err)
	}
	for i, st := range f.Stations {
		c := st.Uplink.Counters()
		if c.Dropped != 0 {
			t.Errorf("station %v dropped %d reports", st.Machine, c.Dropped)
		}
		if st.Uplink.Pending() != 0 {
			t.Errorf("station %v still has %d spooled", st.Machine, st.Uplink.Pending())
		}
		t.Logf("station %d uplink: sent=%d acked=%d retried=%d spooled=%d replayed=%d dup=%d",
			i, c.Sent, c.Acked, c.Retried, c.Spooled, c.Replayed, c.DedupAcks)
	}
	if kills == 0 {
		t.Fatal("chaos schedule performed no kills — scenario is vacuous")
	}

	// Final kill-9, then recover the journal in-process: this is exactly
	// what the next pdmed boot would do.
	child.kill()
	recNode, err := OpenNode("", nil, 0, nil, pdme.JournalOptions{Dir: journalDir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer recNode.Close()
	rec, stats := recNode.PDME, recNode.Recovery
	if !stats.CheckpointLoaded {
		t.Error("no checkpoint survived despite the 8-record cadence")
	}
	if stats.SkippedRecords != 0 {
		t.Errorf("%d journal records skipped on recovery", stats.SkippedRecords)
	}
	t.Logf("kills=%d recovery: checkpoint@%d + %d replayed reports (torn bytes %d)",
		kills, stats.CheckpointSeq, stats.ReportsReplayed, stats.TornBytes)

	if got := rec.ReceivedReports(); got != want.received {
		t.Errorf("recovered PDME fused %d reports, undisturbed run %d (lost or duplicated fusion)",
			got, want.received)
	}
	for i, st := range f.Stations {
		for _, fault := range faults {
			key := fmt.Sprintf("%d|%s", i, fault)
			b, err := rec.Belief(st.Machine.String(), fault.String())
			if err != nil {
				b = -1
			}
			if wb := want.beliefs[key]; math.Abs(b-wb) > 1e-12 {
				t.Errorf("belief[%s] = %v after crash recovery, undisturbed %v", key, b, wb)
			}
		}
	}
	ranked := rec.PrioritizedList()
	if len(ranked) == 0 || ranked[0].Belief < 0.9 {
		t.Errorf("recovered prioritized list unconvincing: %+v", ranked)
	}
}

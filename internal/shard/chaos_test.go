package shard

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/health"
	"repro/internal/netfault"
	"repro/internal/oosm"
	"repro/internal/pdme"
	"repro/internal/proto"
	"repro/internal/relstore"
	"repro/internal/testkit"
)

// TestMain doubles as the shard-chaos child process: re-executed with
// MPROS_SHARD_CHILD=1, the test binary becomes a journaled shard PDME with a
// summary forwarder attached — a full fleet member the parent test SIGKILLs
// at will. Running the child inside the test binary keeps the harness
// self-contained, and `go test -race ./internal/shard` races the child too.
func TestMain(m *testing.M) {
	if os.Getenv("MPROS_SHARD_CHILD") == "1" {
		shardChildRun()
		return
	}
	os.Exit(m.Run())
}

// shardChildRun is the child body: an in-memory-model PDME with the journal
// open, a forwarder streaming fused conclusions to the aggregator address,
// and the §7 report server on the fixed shard address. It prints READY once
// recovery is done and the listener is up, answers STATUS requests on stdin,
// and otherwise blocks until killed — SIGKILL is the only exit.
func shardChildRun() {
	model, err := oosm.NewModel(relstore.NewMemory())
	if err != nil {
		shardChildFail(err)
	}
	engine, err := pdme.New(model, testGroups())
	if err != nil {
		shardChildFail(err)
	}
	// An aggressive cadence (vs the default) so random kills land
	// mid-checkpoint, not just mid-append.
	if _, err := engine.OpenJournal(pdme.JournalOptions{
		Dir:             os.Getenv("MPROS_SHARD_JOURNAL"),
		CheckpointEvery: 64,
	}); err != nil {
		shardChildFail(err)
	}
	id := os.Getenv("MPROS_SHARD_ID")
	fwd, err := Forward(engine, ForwarderConfig{
		ShardID:        id,
		AggregatorAddr: os.Getenv("MPROS_SHARD_AGG"),
		SpoolDir:       os.Getenv("MPROS_SHARD_FSPOOL"),
		DialTimeout:    500 * time.Millisecond,
		SendTimeout:    2 * time.Second,
		BackoffMin:     10 * time.Millisecond,
		BackoffMax:     80 * time.Millisecond,
		Seed:           int64(hashPair("chaos-child", id)),
	})
	if err != nil {
		shardChildFail(err)
	}
	// Recovery rebuilt conclusions before the subscription existed; resync
	// forwards that recovered state so the aggregator catches up even if no
	// new report arrives after the restart.
	fwd.Resync()
	if _, _, err := engine.Serve(os.Getenv("MPROS_SHARD_ADDR")); err != nil {
		shardChildFail(err)
	}
	fmt.Println("READY")
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		if sc.Text() == "STATUS" {
			fmt.Printf("STATUS received=%d dedup=%d fwdpending=%d fwdboot=%d\n",
				engine.ReceivedReports(), engine.DedupHits(), fwd.Pending(), fwd.Boot())
		}
	}
	select {} // stdin closed: the parent is gone or about to SIGKILL us
}

func shardChildFail(err error) {
	fmt.Fprintln(os.Stderr, "shard child:", err)
	os.Exit(2)
}

// chaosSleep is the harness's single wall-clock wait. The chaos test
// orchestrates real processes and real sockets, so its own pacing is
// inherently wall-clock; everything the FLEET computes stays on virtual
// event time.
func chaosSleep(d time.Duration) {
	//lint:allow noclock chaos harness pacing; fleet state itself is event-time only
	time.Sleep(d)
}

// shardChild manages one child incarnation from the parent side.
type shardChild struct {
	id      string
	addr    string // fixed report address, rebound by every incarnation
	journal string
	fspool  string
	agg     string // aggregator address (shard-7 points at a fault proxy)

	cmd   *exec.Cmd
	stdin io.WriteCloser
	lines chan string
}

// start spawns a fresh child over the same journal/spool dirs and address
// and waits for its READY handshake (recovery finished, listener bound).
func (c *shardChild) start() error {
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(),
		"MPROS_SHARD_CHILD=1",
		"MPROS_SHARD_ID="+c.id,
		"MPROS_SHARD_ADDR="+c.addr,
		"MPROS_SHARD_JOURNAL="+c.journal,
		"MPROS_SHARD_FSPOOL="+c.fspool,
		"MPROS_SHARD_AGG="+c.agg,
	)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	lines := make(chan string, 256)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			default: // never block the child on a full pipe
			}
		}
		close(lines)
	}()
	if _, ok := awaitLine(lines, "READY", 30*time.Second); !ok {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return fmt.Errorf("shard child %s did not become READY", c.id)
	}
	c.cmd, c.stdin, c.lines = cmd, stdin, lines
	return nil
}

func (c *shardChild) mustStart(t *testing.T) {
	t.Helper()
	if err := c.start(); err != nil {
		t.Fatal(err)
	}
}

// kill SIGKILLs the child — no flush, no checkpoint, no courtesy.
func (c *shardChild) kill() {
	if c.cmd == nil {
		return
	}
	_ = c.cmd.Process.Kill()
	_ = c.cmd.Wait() // reap; error is the expected kill signal
	c.cmd = nil
}

// childStatus is one STATUS round trip.
type childStatus struct {
	received   int
	dedup      int64
	fwdPending int
	fwdBoot    uint64
}

func (c *shardChild) status() (childStatus, error) {
	var st childStatus
	if c.cmd == nil {
		return st, fmt.Errorf("shard child %s not running", c.id)
	}
	if _, err := fmt.Fprintln(c.stdin, "STATUS"); err != nil {
		return st, err
	}
	line, ok := awaitLine(c.lines, "STATUS ", 15*time.Second)
	if !ok {
		return st, fmt.Errorf("shard child %s: no STATUS reply", c.id)
	}
	_, err := fmt.Sscanf(line, "STATUS received=%d dedup=%d fwdpending=%d fwdboot=%d",
		&st.received, &st.dedup, &st.fwdPending, &st.fwdBoot)
	return st, err
}

// awaitLine reads child stdout lines until one has the prefix or the
// timeout elapses.
func awaitLine(lines <-chan string, prefix string, timeout time.Duration) (string, bool) {
	for waited := time.Duration(0); waited < timeout; {
		select {
		case l, ok := <-lines:
			if !ok {
				return "", false
			}
			if strings.HasPrefix(l, prefix) {
				return l, true
			}
		default:
			chaosSleep(10 * time.Millisecond)
			waited += 10 * time.Millisecond
		}
	}
	return "", false
}

// forEachRouter fans fn over the routers with a bounded worker pool.
func forEachRouter(routers []*Router, workers int, fn func(*Router)) {
	ch := make(chan *Router)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range ch {
				fn(r)
			}
		}()
	}
	for _, r := range routers {
		ch <- r
	}
	close(ch)
	wg.Wait()
}

// drainDCs pumps every router until all spools are empty. Each round gives
// a busy router two short flush slices (each followed by a failure-detector
// pump), so DCs pointed at a dead shard accumulate stalls round by round
// and fail over mid-drain, exactly as a real fleet's cadence would drive it.
func drainDCs(t *testing.T, routers []*Router, rounds int) {
	t.Helper()
	for round := 0; round < rounds; round++ {
		// One flush attempt (one Pump) per router per round: stall counts
		// advance at most once per round, so the failover threshold is
		// denominated in drain rounds regardless of how slow the host is
		// (the race detector can stretch a child restart by seconds).
		forEachRouter(routers, 96, func(r *Router) {
			if r.Pending() > 0 {
				_ = r.Flush(1, 250*time.Millisecond)
			}
		})
		pending := 0
		for _, r := range routers {
			pending += r.Pending()
		}
		if pending == 0 {
			return
		}
	}
	var stuck []string
	for _, r := range routers {
		if r.Pending() > 0 {
			stuck = append(stuck, fmt.Sprintf("%s→%s(%d)", r.cfg.DCID, r.Target(), r.Pending()))
			if len(stuck) >= 8 {
				break
			}
		}
	}
	t.Fatalf("DC spools not drained after %d rounds: %v ...", rounds, stuck)
}

// waitChildDrained polls a child's STATUS until its forwarder spool is
// empty — every fused conclusion it holds has been acked by the aggregator.
func waitChildDrained(t *testing.T, c *shardChild, timeout time.Duration) {
	t.Helper()
	for waited := time.Duration(0); ; {
		st, err := c.status()
		if err != nil {
			t.Fatalf("shard %s status: %v", c.id, err)
		}
		if st.fwdPending == 0 {
			return
		}
		if waited >= timeout {
			t.Fatalf("shard %s forwarder still has %d pending after %v", c.id, st.fwdPending, timeout)
		}
		chaosSleep(50 * time.Millisecond)
		waited += 50 * time.Millisecond
	}
}

// globalItemsEqual compares GlobalItem slices field by field: floats must be
// bit-identical (==, no tolerance), times compare as instants.
func globalItemsEqual(t *testing.T, label string, got, want []GlobalItem) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d items, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		same := g.Component == w.Component && g.Condition == w.Condition &&
			g.Group == w.Group && g.Belief == w.Belief &&
			g.Plausibility == w.Plausibility && g.Unknown == w.Unknown &&
			g.Reports == w.Reports && g.Shard == w.Shard &&
			g.ShardState == w.ShardState && g.Reliability == w.Reliability &&
			g.Degraded == w.Degraded && g.TimeToHalf == w.TimeToHalf &&
			g.HasPrognostic == w.HasPrognostic && g.UpdatedAt.Equal(w.UpdatedAt)
		if !same {
			t.Errorf("%s[%d]:\n got %+v\nwant %+v", label, i, g, w)
		}
	}
}

// TestShardChaosFleetFailover is the tentpole acceptance scenario: 1040 DCs
// consistent-hash-routed across 8 shard PDME child processes feeding one
// global aggregator, under randomized kill-9, a netfault partition on one
// shard's upward link, a shard dead to the DCs from t0, and a ring change
// that drains it. Required outcomes:
//
//   - no report loss: every spooled report fuses exactly once at its final
//     shard (counters account for every duplicate and boot epoch)
//   - DCs whose shard is dead fail over to exactly the ring successor; no
//     other DC ever fails over (failover is deliberate, not noise)
//   - while a shard's upward link is partitioned, the global view degrades
//     monotonically toward Unknown and says so (Degraded, coverage)
//   - after heal + drain, the global ranking reconverges BIT-IDENTICALLY to
//     an undisturbed reference fleet, and every surviving shard's recovered
//     journal state is bit-identical to its reference engine
func TestShardChaosFleetFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills an 8-shard fleet of child processes")
	}
	const (
		numDCs    = 1040
		numShards = 8
		numPhases = 4
	)
	conds := []string{"inner race fault", "outer race fault", "imbalance"}
	finalAt := base.Add(time.Duration(numPhases-1) * time.Hour)
	healthCfg := chaosHealthConfig()

	dcids := make([]string, numDCs)
	for i := range dcids {
		dcids[i] = fmt.Sprintf("dc-%04d", i+1)
	}
	reportFor := func(i, phase int) *proto.Report {
		belief := 0.2 + 0.15*float64(phase) + 0.01*float64(i%7)
		return report(dcids[i], "m-"+dcids[i], conds[i%3], belief,
			base.Add(time.Duration(phase)*time.Hour))
	}

	// --- topology -------------------------------------------------------
	// Fixed per-shard report addresses: every child incarnation rebinds its
	// own, so redialing uplinks find restarted shards without help.
	realAddrs := make([]string, numShards)
	for s := range realAddrs {
		realAddrs[s] = testkit.FreeAddr(t)
	}
	// shard-8 is dead to the DCs from t0: its ring address is a netfault
	// proxy partitioned before the first report. Its child process still
	// runs (healthy but unreachable) — a true partition, not a crash.
	proxy8, err := netfault.New(realAddrs[7], netfault.Options{Seed: 88})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy8.Close()
	proxy8.SetPartition(true)
	members := make([]Member, numShards)
	for s := 0; s < numShards; s++ {
		members[s] = Member{ID: fmt.Sprintf("shard-%d", s+1), Addr: realAddrs[s]}
	}
	members[7].Addr = proxy8.Addr()

	ring1, err := NewRing(members, dcids)
	if err != nil {
		t.Fatal(err)
	}
	// ring2 is the operator's reaction to the dead shard: shard-8 removed.
	// Built as a separate instance so installing it never mutates the ring
	// the routers are concurrently reading.
	ring2, err := NewRing(members, dcids)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ring2.Remove("shard-8"); err != nil {
		t.Fatal(err)
	}

	agg, err := NewAggregator(AggregatorConfig{Ring: ring1, Health: healthCfg})
	if err != nil {
		t.Fatal(err)
	}
	aggAddr, aggSrv, err := agg.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer aggSrv.Close()
	// shard-7's upward link runs through a second netfault proxy: partition
	// it and the shard keeps fusing for its DCs while the aggregator slowly
	// stops trusting it — the graceful-degradation half of the scenario.
	proxy7, err := netfault.New(aggAddr, netfault.Options{Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy7.Close()

	chaosRoot := testkit.KeptDir(t)
	children := make([]*shardChild, numShards)
	for s := 0; s < numShards; s++ {
		id := fmt.Sprintf("shard-%d", s+1)
		fwdTarget := aggAddr
		if id == "shard-7" {
			fwdTarget = proxy7.Addr()
		}
		children[s] = &shardChild{
			id:      id,
			addr:    realAddrs[s],
			journal: filepath.Join(chaosRoot, id, "journal"),
			fspool:  filepath.Join(chaosRoot, id, "fwd"),
			agg:     fwdTarget,
		}
		children[s].mustStart(t)
		defer children[s].kill()
	}

	// --- DC fleet -------------------------------------------------------
	routers := make([]*Router, numDCs)
	boots := make([]uint64, numDCs)
	for i := range routers {
		r, err := NewRouter(RouterConfig{
			DCID:        dcids[i],
			Ring:        ring1,
			SpoolDir:    filepath.Join(chaosRoot, "dc", dcids[i]),
			DialTimeout: 300 * time.Millisecond,
			SendTimeout: 700 * time.Millisecond,
			BackoffMin:  5 * time.Millisecond,
			BackoffMax:  30 * time.Millisecond,
			Seed:        int64(1000 + i),
			// Stalls accrue at most one per drain round (see drainDCs), so
			// this is "rounds of continuous no-progress before re-routing":
			// high enough that a kill-and-restart outage (~10-20 rounds under
			// the race detector) never triggers a spurious failover, low
			// enough that the genuinely dead shard's DCs re-route within the
			// phase-0 drain budget.
			FailoverThreshold: 48,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		routers[i] = r
		boots[i] = r.Boot()
	}
	expectSucc := make(map[string]string) // shard-8 DCs → their ring successor
	for _, dc := range dcids {
		if ring1.Assign(dc) == "shard-8" {
			succ, ok := ring1.Successor(dc, map[string]bool{"shard-8": true})
			if !ok {
				t.Fatalf("no successor for %s", dc)
			}
			expectSucc[dc] = succ
		}
	}
	if len(expectSucc) == 0 {
		t.Fatal("no DC assigned to shard-8 — scenario is vacuous")
	}
	// Probe pair for degradation sampling: a DC that lives on shard-7.
	probeComp, probeCond := "", ""
	for i, dc := range dcids {
		if ring1.Assign(dc) == "shard-7" {
			probeComp, probeCond = "m-"+dc, conds[i%3]
			break
		}
	}
	if probeComp == "" {
		t.Fatal("no DC assigned to shard-7")
	}

	// --- chaos phases ---------------------------------------------------
	// Kill-9 schedule: seeded random victims among shards 1..6 (shard-7 is
	// the partition story, shard-8 the dead-shard story), killed mid-drain
	// and restarted over the same journal + forward spool.
	const killSeed = 9001
	rng := rand.New(rand.NewSource(killSeed))
	killSchedule := map[int][]int{
		1: {1 + rng.Intn(6), 1 + rng.Intn(6)},
		2: {1 + rng.Intn(6)},
	}
	var killDelays [][]time.Duration
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("kill schedule: seed %d, victims by phase %v, delays by phase %v", killSeed, killSchedule, killDelays)
		}
	})
	kills := 0
	var probeSamples []GlobalItem
	for phase := 0; phase < numPhases; phase++ {
		if phase == 2 {
			// The operator removes the dead shard from the ring; DCs that
			// already failed over land exactly where the new ring puts them,
			// so the update must not move anyone.
			for _, r := range routers {
				if r.UpdateRing(ring2) {
					t.Errorf("ring update moved %s to %s — failover and ring removal disagree",
						r.cfg.DCID, r.Target())
				}
			}
			agg.SetRing(ring2)
			// And shard-7's upward link partitions: its DCs keep reporting,
			// its summaries spool, the aggregator's trust in it decays.
			proxy7.SetPartition(true)
		}
		for i := range routers {
			if err := routers[i].Deliver(reportFor(i, phase)); err != nil {
				t.Fatal(err)
			}
		}
		victims := killSchedule[phase]
		delays := make([]time.Duration, len(victims))
		for j := range victims {
			delays[j] = time.Duration(50+rng.Intn(300)) * time.Millisecond
		}
		killDelays = append(killDelays, delays)
		killErr := make(chan error, 1)
		go func() {
			for j, v := range victims {
				chaosSleep(delays[j])
				children[v-1].kill()
				if err := children[v-1].start(); err != nil {
					killErr <- err
					return
				}
			}
			killErr <- nil
		}()
		drainDCs(t, routers, 200)
		if err := <-killErr; err != nil {
			t.Fatal(err)
		}
		kills += len(victims)
		drainDCs(t, routers, 200) // anything re-spooled around a late kill
		for s := 0; s < numShards; s++ {
			if children[s].id == "shard-7" && phase >= 2 {
				continue // partitioned upward: pending is the point
			}
			waitChildDrained(t, children[s], 60*time.Second)
		}
		if phase >= 1 {
			item, covered := agg.GlobalBelief(probeComp, probeCond)
			if !covered {
				t.Fatalf("phase %d: probe pair %s/%s not covered", phase, probeComp, probeCond)
			}
			probeSamples = append(probeSamples, item)
		}
	}
	if kills != 3 {
		t.Fatalf("chaos schedule performed %d kills, want 3", kills)
	}

	// --- graceful degradation while shard-7 is dark ---------------------
	// Samples are taken after phases 1 (fresh), 2 (1h dark), 3 (2h dark):
	// belief must fall monotonically, unknown must rise monotonically, and
	// the end state must be explicitly labeled.
	for i := 1; i < len(probeSamples); i++ {
		prev, cur := probeSamples[i-1], probeSamples[i]
		if cur.Belief > prev.Belief || cur.Unknown < prev.Unknown {
			t.Errorf("degradation not monotone: sample %d (Bel=%v Unk=%v) → %d (Bel=%v Unk=%v)",
				i-1, prev.Belief, prev.Unknown, i, cur.Belief, cur.Unknown)
		}
	}
	last := probeSamples[len(probeSamples)-1]
	if !(last.Belief < probeSamples[0].Belief) || !(last.Unknown > probeSamples[0].Unknown) {
		t.Errorf("partition caused no degradation: first %+v last %+v", probeSamples[0], last)
	}
	if !last.Degraded || last.ShardState != "silent" {
		t.Errorf("dark shard's pair not labeled: %+v", last)
	}
	if cov := agg.Coverage(); !cov.Degraded {
		t.Errorf("coverage not degraded while shard-7 dark: %+v", cov)
	}

	// --- heal and reconverge --------------------------------------------
	proxy7.SetPartition(false)
	waitChildDrained(t, children[6], 60*time.Second)
	for waited := time.Duration(0); ; {
		cov := agg.Coverage()
		done := !cov.Degraded && cov.ShardsLive == numShards-1
		for _, sc := range cov.Shards {
			done = done && sc.LastUpdated.Equal(finalAt)
		}
		if done {
			break
		}
		if waited > 60*time.Second {
			t.Fatalf("aggregator did not reconverge after heal: %+v", cov)
		}
		chaosSleep(50 * time.Millisecond)
		waited += 50 * time.Millisecond
	}

	// --- per-DC accounting: nothing lost, nothing doubled ---------------
	var totalAcked, totalDedup int64
	for i, r := range routers {
		c := r.Counters()
		if c.Spooled != numPhases || c.Dropped != 0 || c.CapacityDrops != 0 || r.Pending() != 0 {
			t.Errorf("%s: spooled=%d dropped=%d capacity=%d pending=%d, want %d/0/0/0",
				dcids[i], c.Spooled, c.Dropped, c.CapacityDrops, r.Pending(), numPhases)
		}
		if c.Acked+c.DedupAcks != numPhases {
			t.Errorf("%s: acked=%d dup=%d, want sum %d (a report retired twice or never)",
				dcids[i], c.Acked, c.DedupAcks, numPhases)
		}
		totalAcked += c.Acked
		totalDedup += c.DedupAcks
		if r.Boot() != boots[i] {
			t.Errorf("%s: boot epoch moved %d→%d across failovers", dcids[i], boots[i], r.Boot())
		}
		st := r.Stats()
		if succ, dead := expectSucc[dcids[i]]; dead {
			if st.Failovers != 1 || r.Target() != succ {
				t.Errorf("%s: failovers=%d target=%s, want exactly 1 failover to %s",
					dcids[i], st.Failovers, r.Target(), succ)
			}
			if st.PerShard["shard-8"] != 0 {
				t.Errorf("%s: %d reports acked by the partitioned shard", dcids[i], st.PerShard["shard-8"])
			}
		} else if st.Failovers != 0 {
			t.Errorf("%s: %d spurious failovers (target %s)", dcids[i], st.Failovers, r.Target())
		}
	}

	// --- undisturbed reference fleet ------------------------------------
	// In-process shard engines over the final ring, every report delivered
	// in the same per-DC order, forwarded to a reference aggregator through
	// the same forwarder code path. This is the run the chaos fleet must be
	// indistinguishable from.
	refEngines := make(map[string]*pdme.PDME, numShards)
	for s := 1; s <= numShards; s++ {
		model, err := oosm.NewModel(relstore.NewMemory())
		if err != nil {
			t.Fatal(err)
		}
		engine, err := pdme.New(model, testGroups())
		if err != nil {
			t.Fatal(err)
		}
		defer engine.Close()
		refEngines[fmt.Sprintf("shard-%d", s)] = engine
	}
	for i, dc := range dcids {
		owner := ring2.Assign(dc)
		for phase := 0; phase < numPhases; phase++ {
			if err := refEngines[owner].DeliverTagged(reportFor(i, phase), dc, 1, uint64(phase+1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	refAgg, err := NewAggregator(AggregatorConfig{Ring: ring2, Health: healthCfg})
	if err != nil {
		t.Fatal(err)
	}
	refAddr, refSrv, err := refAgg.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer refSrv.Close()
	for s := 1; s <= numShards; s++ {
		id := fmt.Sprintf("shard-%d", s)
		fwd, err := Forward(refEngines[id], ForwarderConfig{
			ShardID:        id,
			AggregatorAddr: refAddr,
			DialTimeout:    time.Second,
			SendTimeout:    5 * time.Second,
			Seed:           int64(s),
		})
		if err != nil {
			t.Fatal(err)
		}
		fwd.Resync()
		if err := fwd.Flush(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		if err := fwd.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// --- bit-identical global reconvergence -----------------------------
	globalItemsEqual(t, "GlobalRanked", agg.GlobalRanked(), refAgg.GlobalRanked())
	cov, refCov := agg.Coverage(), refAgg.Coverage()
	if cov.RingVersion != refCov.RingVersion || cov.ShardsTotal != refCov.ShardsTotal ||
		cov.ShardsLive != refCov.ShardsLive || cov.Degraded || refCov.Degraded ||
		cov.HeldPairs != refCov.HeldPairs {
		t.Errorf("coverage diverged:\n got %+v\nwant %+v", cov, refCov)
	}
	for i := range cov.Shards {
		g, w := cov.Shards[i], refCov.Shards[i]
		if g.ID != w.ID || g.State != w.State || g.InRing != w.InRing ||
			g.Components != w.Components || g.Reliability != w.Reliability {
			t.Errorf("shard coverage[%d] diverged:\n got %+v\nwant %+v", i, g, w)
		}
	}

	// --- surviving shards bit-identical after a final kill-9 ------------
	// SIGKILL every child, recover each journal in-process (exactly what the
	// next pdmed boot would do), and compare against the reference engines.
	totalReceived := 0
	var childDedup int64
	for s := 0; s < numShards; s++ {
		st, err := children[s].status()
		if err != nil {
			t.Fatal(err)
		}
		childDedup += st.dedup
		children[s].kill()
		model, err := oosm.NewModel(relstore.NewMemory())
		if err != nil {
			t.Fatal(err)
		}
		rec, err := pdme.New(model, testGroups())
		if err != nil {
			t.Fatal(err)
		}
		defer rec.Close()
		stats, err := rec.OpenJournal(pdme.JournalOptions{Dir: children[s].journal})
		if err != nil {
			t.Fatal(err)
		}
		if stats.SkippedRecords != 0 {
			t.Errorf("%s: %d journal records skipped on recovery", children[s].id, stats.SkippedRecords)
		}
		totalReceived += rec.ReceivedReports()
		ref := refEngines[children[s].id]
		t.Logf("%s: live received=%d recovered=%d reference=%d (ckpt=%v@%d replayed=%d)",
			children[s].id, st.received, rec.ReceivedReports(), ref.ReceivedReports(),
			stats.CheckpointLoaded, stats.CheckpointSeq, stats.ReportsReplayed)
		if got, want := rec.PrioritizedList(), ref.PrioritizedList(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: recovered prioritized list diverges from reference\n got %+v\nwant %+v",
				children[s].id, got, want)
		}
	}
	if totalReceived != numDCs*numPhases {
		t.Errorf("fleet fused %d reports, delivered %d (loss or double fusion)",
			totalReceived, numDCs*numPhases)
	}
	t.Logf("kills=%d failed-over DCs=%d dc acks=%d dc dup-acks=%d shard dedup hits=%d agg accepted=%d stale=%d dup=%d",
		kills, len(expectSucc), totalAcked, totalDedup, childDedup,
		agg.Accepted(), agg.StaleDropped(), agg.DedupHits())
}

// chaosHealthConfig is the aggregator's shard-liveness policy for the chaos
// scenario: on the 1-hour phase cadence a shard goes late after 30 virtual
// minutes of silence, silent after an hour, and its evidence decays from
// 30 minutes of age to a floor of zero at 4 hours.
func chaosHealthConfig() health.Config {
	return health.Config{
		LateAfter:        30 * time.Minute,
		SilentAfter:      time.Hour,
		FreshFor:         30 * time.Minute,
		StalenessHorizon: 4 * time.Hour,
	}
}

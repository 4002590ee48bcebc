package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/oosm"
	"repro/internal/pdme"
	"repro/internal/proto"
	"repro/internal/relstore"
	"repro/internal/serving"
	"repro/internal/uplink"
)

// ingest_durable: pre-generated reports for 128 machines → 2 uplinks with
// disk spools → loopback TCP → pdme.Serve on a journaled PDME with the
// serving views attached. DC compute is bypassed: proto, dedup, the uplink
// spool, the journal, the OOSM and fusion do all the work.
//
// The loop is closed: one generator keeps 256 reports pending on each
// uplink, then waits for both spools to drain.

const (
	ingestMachines = 128
	ingestUplinks  = 2
	ingestWindow   = 256
	// ingestRefReports fills runSeconds on the reference host.
	ingestRefReports = 30000
	// ingestDedupWindow is the PDME's per-DC dedup window (pdmed's
	// -dedup-window). The default 4096 would make the warm-up below cost
	// more than the timed phase on a journal that fsyncs to a real disk.
	ingestDedupWindow = 1024
	// ingestWarmup is sent per uplink, untimed: more than twice the dedup
	// window, so every Dedup.Mark the timed phase pays runs against a full
	// window.
	ingestWarmup = 2*ingestDedupWindow + 64
	// ingestStall is how long the generator waits without a single ack
	// before it counts what is still pending as failed.
	ingestStall      = 10 * time.Second
	ingestSpeedEvery = 20 * time.Millisecond
)

// pdmeNode is one PDME with its ship model and modelled machines: the part
// of the topology ingest_durable, console_read and fleet_e2e share.
type pdmeNode struct {
	db       *relstore.DB
	model    *oosm.Model
	engine   *pdme.PDME
	machines []string
}

func newPDMENode(machines int) (*pdmeNode, error) {
	n := &pdmeNode{db: relstore.NewMemory()}
	var err error
	if n.model, err = oosm.NewModel(n.db); err != nil {
		return nil, fmt.Errorf("build ship model: %w", err)
	}
	if n.engine, err = pdme.New(n.model, chillerGroups()); err != nil {
		return nil, fmt.Errorf("build PDME: %w", err)
	}
	// Machines are modelled before any journal opens, so object ids are
	// the same in the engine that recovers the journal later.
	if n.machines, err = registerMachines(n.model, machines); err != nil {
		return nil, err
	}
	return n, nil
}

func (n *pdmeNode) close() {
	n.engine.Close()
	_ = n.db.Close() // in-memory store: nothing to persist
}

type ingestSystem struct {
	*pdmeNode
	journalDir string
	views      *serving.Views
	server     *proto.Server
	ups        [ingestUplinks]*uplink.Uplink
}

func ingestDCID(j int) string { return fmt.Sprintf("dc-ingest-%d", j+1) }

func buildIngest(dir string) (*ingestSystem, error) {
	node, err := newPDMENode(ingestMachines)
	if err != nil {
		return nil, err
	}
	s := &ingestSystem{pdmeNode: node, journalDir: filepath.Join(dir, "journal")}
	s.engine.ConfigureDedup(ingestDedupWindow)
	if _, err := s.engine.OpenJournal(pdme.JournalOptions{Dir: s.journalDir}); err != nil {
		return nil, fmt.Errorf("open journal: %w", err)
	}
	if s.views, err = serving.Open(s.engine, serving.Options{}); err != nil {
		return nil, fmt.Errorf("open views: %w", err)
	}
	addr, server, err := s.engine.Serve("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s.server = server
	for j := range s.ups {
		if s.ups[j], err = uplink.New(uplink.Config{
			Addr: addr, DCID: ingestDCID(j), SpoolDir: filepath.Join(dir, "spool"), Seed: int64(j),
		}); err != nil {
			return nil, fmt.Errorf("open uplink %d: %w", j, err)
		}
	}
	return s, nil
}

func (s *ingestSystem) close() {
	for _, u := range s.ups {
		if u != nil {
			_ = u.Close() // spools are scratch; the run's checks are already done
		}
	}
	if s.server != nil {
		_ = s.server.Close()
	}
	if s.views != nil {
		s.views.Close()
	}
	s.pdmeNode.close()
}

// pump delivers reports[j] through uplink j under the closed window and
// waits for every ack. Latency is Deliver → ack as the generator observes
// it, polling the uplinks' counters.
func (s *ingestSystem) pump(reports [ingestUplinks][]*proto.Report, tr *tracer) *phase {
	var next, acked [ingestUplinks]int
	var base [ingestUplinks]int64
	var sentAt [ingestUplinks][]time.Time
	var total int64
	for j, u := range s.ups {
		c := u.Counters()
		base[j] = c.Sent + c.Dropped
		sentAt[j] = make([]time.Time, len(reports[j]))
		total += int64(len(reports[j]))
	}
	ph := newPhase()
	lastProgress := time.Now()
	lastSpeed := lastProgress
	for {
		// The generator has slack (the windows hold 256 reports each), so
		// the speed samples ride on its thread beside the pipeline.
		if time.Since(lastSpeed) > ingestSpeedEvery {
			ph.speed.sample()
			lastSpeed = time.Now()
		}
		progressed, done := false, true
		for j, u := range s.ups {
			c := u.Counters()
			now := time.Now()
			for resolved := int(c.Sent + c.Dropped - base[j]); acked[j] < resolved; acked[j]++ {
				ph.lat.record(now.Sub(sentAt[j][acked[j]]))
				ph.add(total)
				progressed = true
			}
			for next[j] < len(reports[j]) && next[j]-acked[j] < ingestWindow {
				t0 := time.Now()
				sentAt[j][next[j]] = t0
				if err := u.Deliver(reports[j][next[j]]); err != nil {
					ph.failed++
				}
				tr.add("uplink.Deliver", ingestDCID(j), int64(next[j]), -1, t0, time.Now())
				next[j]++
				progressed = true
			}
			if acked[j] < len(reports[j]) {
				done = false
			}
		}
		if done {
			break
		}
		if progressed {
			lastProgress = time.Now()
			continue
		}
		if time.Since(lastProgress) > ingestStall {
			for j := range s.ups {
				ph.failed += int64(len(reports[j]) - acked[j])
			}
			ph.ops = total // what never came back was attempted too
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	ph.finish()
	return ph
}

// ingestInputs draws n reports per uplink; uplink j speaks for machines
// j, j+2, … so each machine belongs to exactly one DC.
func ingestInputs(rng *rand.Rand, s *ingestSystem, n int, t0 time.Time) [ingestUplinks][]*proto.Report {
	var out [ingestUplinks][]*proto.Report
	conditions := allConditions()
	for j := range out {
		var mine []string
		for i := j; i < len(s.machines); i += ingestUplinks {
			mine = append(mine, s.machines[i])
		}
		out[j] = genReports(rng, n, ingestDCID(j), mine, conditions, t0)
	}
	return out
}

func runIngest(cfg runConfig) (*result, error) {
	res := newResult(wlIngest)
	dir, err := scratchDir(wlIngest)
	if err != nil {
		return nil, err
	}
	defer removeScratch(dir)

	baseHeap := heapAfterGC()
	build := 0
	sys, setupS, err := timeSetups(func() (*ingestSystem, error) {
		build++
		return buildIngest(filepath.Join(dir, fmt.Sprintf("build-%d", build)))
	}, (*ingestSystem).close)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	res.set("setup_s", setupS)

	rng := rand.New(rand.NewSource(cfg.seed))
	perUplink := int(cfg.count(ingestRefReports)) / ingestUplinks
	warm := ingestInputs(rng, sys, ingestWarmup, virtualEpoch)
	timedAt := virtualEpoch.Add(ingestWarmup * time.Second)
	sent := int64(ingestUplinks * ingestWarmup)
	warmed := sys.pump(warm, nil)
	if warmed.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d reports failed", warmed.failed, warmed.ops)
	}
	res.addWarmup(warmed.use.wall, warmed.speed.factor())

	if !cfg.trace {
		ph := sys.pump(ingestInputs(rng, sys, perUplink, timedAt), nil)
		sent += ph.ops
		res.Attempted, res.Failed = ph.ops, ph.failed
		res.setEndToEnd(ph, heapAfterGC()-baseHeap)
	} else {
		half := perUplink / 2
		plain := sys.pump(ingestInputs(rng, sys, half, timedAt), nil)
		tr := newTracer()
		traced := sys.pump(ingestInputs(rng, sys, half, timedAt.Add(time.Duration(half)*time.Second)), tr)
		sent += plain.ops + traced.ops
		res.Attempted, res.Failed = plain.ops+traced.ops, plain.failed+traced.failed
		res.setTraceCommon(plain, traced)
		res.setHist("uplink.deliver_us", tr.durations()["uplink.Deliver"], 0.5, 1e3)
		res.set("io.syscw_per_report", float64(plain.use.syscw)/float64(plain.ops))
		res.set("io.wchar_per_report", float64(plain.use.wchar)/float64(plain.ops))
		ckpt, err := timeCalls(3, 1, func(int) error { return sys.engine.Checkpoint() })
		if err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		res.set("pdme.checkpoint_ms", ckpt/1e6)
		if err := probeIngestLayers(res, filepath.Join(dir, "probes"), cfg.seed); err != nil {
			return nil, err
		}
		if _, err := tr.writeFile(wlIngest); err != nil {
			return nil, err
		}
	}
	recoverMS, err := sys.check(res, sent)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		res.set("pdme.recover_ms", recoverMS)
	}
	return res, nil
}

type pairKey struct{ component, condition string }

// beliefTable reads the fused belief of every (machine, condition) pair.
func beliefTable(engine *pdme.PDME, machines []string) (map[pairKey]float64, error) {
	out := make(map[pairKey]float64, len(machines)*12)
	for _, m := range machines {
		for _, c := range allConditions() {
			b, err := engine.Belief(m, c)
			if err != nil {
				return nil, fmt.Errorf("belief %s/%s: %w", m, c, err)
			}
			out[pairKey{m, c}] = b
		}
	}
	return out, nil
}

// sameBits reports whether two belief tables agree bit for bit, and the
// first pair at which they do not.
func sameBits(a, b map[pairKey]float64) (pairKey, bool) {
	if len(a) != len(b) {
		return pairKey{}, false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || math.Float64bits(v) != math.Float64bits(w) {
			return k, false
		}
	}
	return pairKey{}, true
}

// check is ingest_durable's output check: every report was received once,
// nothing was deduplicated or dropped, and a fresh engine recovering the
// journal reaches bit-identical beliefs and ranking. It closes the engine
// and returns the recovery time in milliseconds.
func (s *ingestSystem) check(res *result, sent int64) (float64, error) {
	res.checkf(int64(s.engine.ReceivedReports()) == sent,
		"PDME received %d reports, %d were sent", s.engine.ReceivedReports(), sent)
	res.checkf(s.engine.DedupHits() == 0, "%d dedup hits on a loss-free link", s.engine.DedupHits())
	for j, u := range s.ups {
		c := u.Counters()
		res.checkf(c.Dropped == 0 && c.DedupAcks == 0 && c.Retried == 0,
			"uplink %d: dropped=%d dedup_acks=%d retried=%d", j, c.Dropped, c.DedupAcks, c.Retried)
	}
	res.checkf(s.engine.JournalError() == nil, "journal error: %v", s.engine.JournalError())
	wantBeliefs, err := beliefTable(s.engine, s.machines)
	if err != nil {
		return 0, err
	}
	wantRanked := s.engine.PrioritizedList()
	res.checkf(len(wantRanked) > 0, "empty ranking after ingest")

	s.close()
	s.server, s.views, s.ups = nil, nil, [ingestUplinks]*uplink.Uplink{}
	fresh, err := newPDMENode(ingestMachines)
	if err != nil {
		return 0, err
	}
	s.pdmeNode = fresh // the deferred close now releases the fresh engine
	fresh.engine.ConfigureDedup(ingestDedupWindow)
	t0 := time.Now()
	if _, err := fresh.engine.OpenJournal(pdme.JournalOptions{Dir: s.journalDir}); err != nil {
		return 0, fmt.Errorf("recover journal: %w", err)
	}
	recoverMS := float64(time.Since(t0)) / 1e6
	gotBeliefs, err := beliefTable(fresh.engine, fresh.machines)
	if err != nil {
		return 0, err
	}
	at, same := sameBits(wantBeliefs, gotBeliefs)
	res.checkf(same, "recovered beliefs differ at %v", at)
	res.checkf(reflect.DeepEqual(wantRanked, fresh.engine.PrioritizedList()), "recovered ranking differs")
	res.checkf(int64(fresh.engine.ReceivedReports()) == sent,
		"recovered engine counts %d reports, %d were sent", fresh.engine.ReceivedReports(), sent)
	return recoverMS, nil
}

package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/chiller"
	"repro/internal/dc"
	"repro/internal/oosm"
	"repro/internal/pdme"
	"repro/internal/proto"
	"repro/internal/relstore"
	"repro/internal/serving"
	"repro/internal/shard"
)

// fleet_e2e: the whole pipeline the north star names. 64 DCs (dcsim's
// configuration with the SBFR monitor on, no WNN; one persistent vibration
// fault and one persistent process fault per machine) → a tee sink →
// shard.Router with a disk spool → 2 journaled shard PDMEs → shard.Forward →
// Aggregator.Serve, read back through serving.AggregatorHandler.
//
// The loop is closed with one DC tick in flight, DCs in turn. A tick is one
// period of the DC's schedule (1 vibration test, 8 process scans, 48 SBFR
// scans). It is done when the aggregator's GlobalBelief of every pair the
// tick reported carries the tick's virtual time and one /ranked read has
// come back. A paced reader calls /ranked 50 times a second beside it.

const (
	fleetDCs    = 64
	fleetShards = 2
	// fleetRefTicks fills runSeconds on the reference host.
	fleetRefTicks = 700
	// Dedup windows (pdmed's -dedup-window). They are small so that the
	// untimed warm-up can push every sender past twice its receiver's
	// window in a few seconds.
	fleetShardDedup = 32
	fleetAggDedup   = 1024
	fleetWarmup     = 2*fleetShardDedup + 8 // synthetic reports per router
	// fleetTickStep is the virtual time between ticks and fleetSlot between
	// a tick's 48 schedule slots. They are compressed from the real 4 h and
	// 5 min so that a whole run stays inside the aggregator's default
	// one-hour freshness window and nothing is discounted as stale.
	fleetTickStep   = 500 * time.Millisecond
	fleetSlot       = 10 * time.Millisecond
	fleetTimeout    = 5 * time.Second
	fleetPoll       = 50 * time.Microsecond
	fleetReaderRate = 50
)

// teeSink stands between a DC and its router. It keeps every report for
// the reference PDME, remembers the newest timestamp the current tick
// reported per pair, and times the router hand-off.
type teeSink struct {
	router  *shard.Router
	ctx     *spanCtx
	kept    []*proto.Report
	pending map[pairKey]time.Time
	// handoff is when the router accepted the tick's last report;
	// routerTime is the time spent inside router.Deliver this tick.
	handoff    time.Time
	routerTime time.Duration
	failed     int64
}

func (t *teeSink) Deliver(r *proto.Report) error {
	t.kept = append(t.kept, r)
	t.pending[pairKey{r.SensedObjectID, r.MachineConditionID}] = r.Timestamp
	t0 := time.Now()
	err := t.router.Deliver(r)
	t.handoff = time.Now()
	t.routerTime += t.handoff.Sub(t0)
	t.ctx.tr.add("router.Deliver", t.ctx.source, t.ctx.seq, t.ctx.cur, t0, t.handoff)
	if err != nil {
		t.failed++
	}
	return err
}

type fleetDC struct {
	id, machine string
	dc          *dc.DC
	db          *relstore.DB
	router      *shard.Router
	tee         *teeSink
	ctx         *spanCtx
	acquire     time.Duration
}

type fleetShard struct {
	*pdmeNode
	id     string
	server *proto.Server
	fwd    *shard.Forwarder
}

// fusedStamps records, per pair, the newest conclusion time a shard has
// posted and when it posted it: the shard-fused boundary of the stage.*
// metrics. It subscribes to pdme.ConclusionClass events, the same public
// subscription shard.Forward uses.
type fusedStamps struct {
	mu   sync.Mutex
	seen map[pairKey]fusedStamp
	subs []*oosm.Subscription
}

type fusedStamp struct {
	updatedAt time.Time
	at        time.Time
}

func (f *fusedStamps) watch(model *oosm.Model) {
	handler := func(e oosm.Event) {
		now := time.Now()
		props, err := model.Get(e.Object)
		if err != nil {
			return
		}
		component, _ := props["component"].(string)
		condition, _ := props["condition"].(string)
		updatedAt, _ := props["updated_at"].(time.Time)
		f.mu.Lock()
		f.seen[pairKey{component, condition}] = fusedStamp{updatedAt: updatedAt, at: now}
		f.mu.Unlock()
	}
	f.subs = append(f.subs,
		model.SubscribeClass(pdme.ConclusionClass, oosm.ObjectCreated, handler),
		model.SubscribeClass(pdme.ConclusionClass, oosm.ObjectUpdated, handler))
}

func (f *fusedStamps) cancel() {
	for _, s := range f.subs {
		s.Cancel()
	}
	f.subs = nil
}

// lastFused returns when the newest of the given pairs was fused at its
// shard (zero if one has not reached its target time).
func (f *fusedStamps) lastFused(targets map[pairKey]time.Time) time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	var last time.Time
	for k, want := range targets {
		st, ok := f.seen[k]
		if !ok || st.updatedAt.Before(want) {
			return time.Time{}
		}
		if st.at.After(last) {
			last = st.at
		}
	}
	return last
}

type fleetSystem struct {
	agg       *shard.Aggregator
	aggServer *proto.Server
	handler   http.Handler
	ranked    *http.Request
	ring      *shard.Ring
	shards    []*fleetShard
	dcs       []*fleetDC
}

// fleetProfiles draws the eight fault combinations the 64 machines share:
// every vibration fault with every process fault, severities seeded.
func fleetProfiles(rng *rand.Rand) []plantProfile {
	var out []plantProfile
	for _, v := range vibFaults {
		for _, p := range processFaults {
			out = append(out, plantProfile{
				name:   v.fault.String() + " + " + p.fault.String(),
				faults: map[chiller.Fault]float64{v.fault: v.draw(rng), p.fault: p.draw(rng)},
			})
		}
	}
	return out
}

func fleetRecordings(rng *rand.Rand, seed int64) ([]*recording, error) {
	var recs []*recording
	for i, p := range fleetProfiles(rng) {
		rec, err := record(p, seed*1000+int64(i), dc.DefaultConfig("x", "x").FrameLen)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

func buildFleet(dir string, recs []*recording) (*fleetSystem, error) {
	s := &fleetSystem{}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	dcids := make([]string, fleetDCs)
	for i := range dcids {
		dcids[i] = fmt.Sprintf("dc-%02d", i+1)
	}
	var err error
	// The aggregator needs the ring for coverage and the ring needs the
	// shards' addresses, so the shards come first and the aggregator's
	// ring is installed afterwards.
	if s.agg, err = shard.NewAggregator(shard.AggregatorConfig{DedupWindow: fleetAggDedup}); err != nil {
		return nil, fmt.Errorf("build aggregator: %w", err)
	}
	aggAddr, aggServer, err := s.agg.Serve("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("serve aggregator: %w", err)
	}
	s.aggServer = aggServer
	s.handler = serving.AggregatorHandler(s.agg)
	if s.ranked, err = http.NewRequest(http.MethodGet, "/ranked", nil); err != nil {
		return nil, fmt.Errorf("build request: %w", err)
	}
	var members []shard.Member
	for i := 0; i < fleetShards; i++ {
		sh := &fleetShard{id: fmt.Sprintf("shard-%d", i+1)}
		if sh.pdmeNode, err = newPDMENode(fleetDCs); err != nil {
			return nil, err
		}
		s.shards = append(s.shards, sh)
		sh.engine.ConfigureDedup(fleetShardDedup)
		if _, err := sh.engine.OpenJournal(pdme.JournalOptions{Dir: filepath.Join(dir, "journal-"+sh.id)}); err != nil {
			return nil, fmt.Errorf("open journal of %s: %w", sh.id, err)
		}
		addr, server, err := sh.engine.Serve("127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("serve %s: %w", sh.id, err)
		}
		sh.server = server
		if sh.fwd, err = shard.Forward(sh.engine, shard.ForwarderConfig{
			ShardID: sh.id, AggregatorAddr: aggAddr, SpoolDir: filepath.Join(dir, "forward-"+sh.id), Seed: int64(i),
		}); err != nil {
			return nil, fmt.Errorf("forward from %s: %w", sh.id, err)
		}
		members = append(members, shard.Member{ID: sh.id, Addr: addr})
	}
	if s.ring, err = shard.NewRing(members, dcids); err != nil {
		return nil, fmt.Errorf("build ring: %w", err)
	}
	s.agg.SetRing(s.ring)
	for i, id := range dcids {
		d := &fleetDC{id: id, machine: s.shards[0].machines[i], db: relstore.NewMemory()}
		s.dcs = append(s.dcs, d)
		if d.router, err = shard.NewRouter(shard.RouterConfig{
			DCID: id, Ring: s.ring, SpoolDir: filepath.Join(dir, "routers"), Seed: int64(i),
		}); err != nil {
			return nil, fmt.Errorf("open router of %s: %w", id, err)
		}
		d.ctx = &spanCtx{source: id, cur: -1}
		d.tee = &teeSink{router: d.router, ctx: d.ctx, pending: map[pairKey]time.Time{}}
		cfg := dc.DefaultConfig(id, d.machine)
		cfg.EnableSBFR = true
		src := tracedSource{replaySource: newReplaySource(recs[i%len(recs)]), ctx: d.ctx, spent: &d.acquire}
		if d.dc, err = dc.New(cfg, src, d.db, d.tee); err != nil {
			return nil, fmt.Errorf("build %s: %w", id, err)
		}
	}
	ok = true
	return s, nil
}

func (s *fleetSystem) close() {
	for _, d := range s.dcs {
		if d.dc != nil {
			_ = d.dc.Close() // in-memory historian
		}
		if d.router != nil {
			_ = d.router.Close() // scratch spool
		}
		_ = d.db.Close()
	}
	for _, sh := range s.shards {
		if sh.fwd != nil {
			_ = sh.fwd.Close() // scratch spool
		}
		if sh.server != nil {
			_ = sh.server.Close()
		}
		sh.pdmeNode.close()
	}
	if s.aggServer != nil {
		_ = s.aggServer.Close()
	}
}

// visible reports whether the aggregator's view carries every target.
func (s *fleetSystem) visible(targets map[pairKey]time.Time) bool {
	for k, want := range targets {
		item, covered := s.agg.GlobalBelief(k.component, k.condition)
		if !covered || item.UpdatedAt.Before(want) {
			return false
		}
	}
	return true
}

// await polls until the targets are visible at the aggregator. It sleeps
// between polls: on two cores a yield-spin would take one of them from the
// pipeline it is waiting for, and charge the wait to cpu_us_per_op.
func (s *fleetSystem) await(targets map[pairKey]time.Time) bool {
	deadline := time.Now().Add(fleetTimeout)
	for !s.visible(targets) {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(fleetPoll)
	}
	return true
}

// fleetPhase is one timed pass plus the stage split of every tick.
type fleetPhase struct {
	phase
	deliver histogram // last report handed to the router → visible
	reader  histogram // the paced reader's /ranked
	// Stage boundaries per tick, in order; they add up to the tick's
	// latency exactly.
	acquire, compute, router, shard, forward, read histogram
	dcToShard                                      histogram
}

// tick runs global tick k on its DC and waits for the result to be
// readable. It returns false when the result did not arrive in time.
func (s *fleetSystem) tick(k int64, tr *tracer, stamps *fusedStamps, rec *recorder, ph *fleetPhase) (bool, error) {
	d := s.dcs[k%int64(len(s.dcs))]
	clear(d.tee.pending)
	d.tee.routerTime, d.acquire = 0, 0
	d.ctx.tr, d.ctx.seq = tr, k
	t0 := time.Now()
	d.ctx.cur = tr.begin("fleet.tick", d.id, k, -1)
	root := d.ctx.cur
	sp := tr.begin("dc.tick", d.id, k, root)
	d.ctx.cur = sp
	err := runSchedulePeriod(d.dc, d.ctx, virtualEpoch.Add(time.Duration(k)*fleetTickStep), fleetSlot)
	tr.end(sp)
	d.ctx.cur = -1
	if err != nil {
		return false, fmt.Errorf("%s tick %d: %w", d.id, k, err)
	}
	d.router.Pump()
	tComputed := time.Now()
	if !s.await(d.tee.pending) {
		tr.end(root)
		return false, nil
	}
	tVisible := time.Now()
	tr.add("pipeline.await", d.id, k, root, tComputed, tVisible)
	status := rec.serve(s.handler, s.ranked)
	tRead := time.Now()
	tr.add("http./ranked", d.id, k, root, tVisible, tRead)
	tr.end(root)
	if status != http.StatusOK {
		return false, nil
	}
	ph.lat.record(tRead.Sub(t0))
	if len(d.tee.pending) > 0 {
		ph.deliver.record(tVisible.Sub(d.tee.handoff))
	}
	if stamps != nil {
		fused := stamps.lastFused(d.tee.pending)
		if fused.Before(tComputed) {
			fused = tComputed // fused while the DC was still computing
		}
		if fused.After(tVisible) {
			fused = tVisible
		}
		ph.acquire.record(d.acquire)
		ph.router.record(d.tee.routerTime)
		ph.compute.record(tComputed.Sub(t0) - d.acquire - d.tee.routerTime)
		ph.shard.record(fused.Sub(tComputed))
		ph.forward.record(tVisible.Sub(fused))
		ph.read.record(tRead.Sub(tVisible))
		if len(d.tee.pending) > 0 {
			ph.dcToShard.record(fused.Sub(d.tee.handoff))
		}
		tr.add("shard.fused", d.id, k, root, tComputed, fused)
	}
	return true, nil
}

// measure runs ticks [first, first+n) with the paced reader beside them.
func (s *fleetSystem) measure(first, n int64, tr *tracer, stamps *fusedStamps) (*fleetPhase, error) {
	ph := &fleetPhase{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var readerFailed int64
	wg.Add(1)
	// The mux writes its match into the request, so the reader needs its own.
	readerReq := s.ranked.Clone(s.ranked.Context())
	go func() {
		defer wg.Done()
		rec := newRecorder()
		tick := time.NewTicker(time.Second / fleetReaderRate)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			t0 := time.Now()
			if rec.serve(s.handler, readerReq) != http.StatusOK {
				readerFailed++
			}
			ph.reader.record(time.Since(t0))
		}
	}()
	rec := newRecorder()
	ph.phase = *newPhase()
	var err error
	for k := first; k < first+n; k++ {
		var ok bool
		if ok, err = s.tick(k, tr, stamps, rec, ph); err != nil {
			break
		} else if !ok {
			ph.failed++
		}
		ph.done(n)
	}
	ph.finish()
	close(stop)
	wg.Wait()
	ph.failed += readerFailed
	return ph, err
}

// warmUp pushes synthetic reports through every router, past twice the
// shard's dedup window (and, summed per shard, past twice the aggregator's),
// then runs every DC through one tick. Nothing is timed. The synthetic
// reports pass the tee like any other, so the reference PDME sees them too.
func (s *fleetSystem) warmUp(rng *rand.Rand, res *result) (next int64, err error) {
	conditions := allConditions()
	start := time.Now()
	t0 := virtualEpoch.Add(-time.Minute)
	for _, d := range s.dcs {
		for i := 0; i < fleetWarmup; i++ {
			r := genReport(rng, d.id, d.machine, conditions, t0.Add(time.Duration(i)*time.Millisecond))
			if err := d.tee.Deliver(r); err != nil {
				return 0, fmt.Errorf("warm-up %s: %w", d.id, err)
			}
		}
	}
	for _, d := range s.dcs {
		if err := d.router.Flush(30, time.Second); err != nil {
			return 0, fmt.Errorf("warm-up %s: %w", d.id, err)
		}
	}
	ph, err := s.measure(0, int64(len(s.dcs)), nil, nil)
	if err != nil {
		return 0, err
	}
	if ph.failed > 0 {
		return 0, fmt.Errorf("warm-up: %d of %d ticks failed", ph.failed, ph.ops)
	}
	res.addWarmup(time.Since(start)-ph.inline, ph.speed.factor())
	return ph.ops, nil
}

func runFleet(cfg runConfig) (*result, error) {
	res := newResult(wlFleet)
	dir, err := scratchDir(wlFleet)
	if err != nil {
		return nil, err
	}
	defer removeScratch(dir)
	rng := rand.New(rand.NewSource(cfg.seed))
	recs, err := fleetRecordings(rng, cfg.seed)
	if err != nil {
		return nil, err
	}

	baseHeap := heapAfterGC()
	build := 0
	sys, setupS, err := timeSetups(func() (*fleetSystem, error) {
		build++
		return buildFleet(filepath.Join(dir, fmt.Sprintf("build-%d", build)), recs)
	}, (*fleetSystem).close)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	res.set("setup_s", setupS)

	next, err := sys.warmUp(rng, res)
	if err != nil {
		return nil, err
	}
	ticks := cfg.count(fleetRefTicks)
	if !cfg.trace {
		ph, err := sys.measure(next, ticks, nil, nil)
		if err != nil {
			return nil, err
		}
		res.Attempted, res.Failed = ph.ops, ph.failed
		res.setEndToEnd(&ph.phase, heapAfterGC()-baseHeap)
	} else {
		plain, err := sys.measure(next, ticks/2, nil, nil)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		stamps := &fusedStamps{seen: map[pairKey]fusedStamp{}}
		for _, sh := range sys.shards {
			stamps.watch(sh.model)
		}
		traced, err := sys.measure(next+ticks/2, ticks/2, tr, stamps)
		stamps.cancel()
		if err != nil {
			return nil, err
		}
		res.Attempted, res.Failed = plain.ops+traced.ops, plain.failed+traced.failed
		res.setTraceCommon(&plain.phase, &traced.phase)
		res.setHist("deliver.p50_us", &plain.deliver, 0.50, 1e3)
		res.setHist("deliver.p95_us", &plain.deliver, 0.95, 1e3)
		res.setHist("deliver.p99_us", &plain.deliver, 0.99, 1e3)
		res.setHist("fresh.p95_ms", &plain.lat, 0.95, 1e6)
		res.setHist("fresh.p99_ms", &plain.lat, 0.99, 1e6)
		res.setHist("read.agg_p50_us", &plain.reader, 0.50, 1e3)
		res.setHist("shard.router_deliver_us", tr.durations()["router.Deliver"], 0.50, 1e3)
		res.setHist("stage.dc_to_shard_us", &traced.dcToShard, 0.50, 1e3)
		res.setHist("stage.shard_to_agg_us", &traced.forward, 0.50, 1e3)
		res.set("shard.agg_pairs", float64(sys.agg.Coverage().HeldPairs))
		if err := probeShardLayers(res, sys); err != nil {
			return nil, err
		}
		res.setBudget(traced)
		if _, err := tr.writeFile(wlFleet); err != nil {
			return nil, err
		}
	}
	return res, sys.check(res)
}

// setBudget fills the stage budget: each stage's median and its share of
// the traced pass's median tick latency. The stages partition every tick,
// so the medians should add up to about the median tick.
func (r *result) setBudget(ph *fleetPhase) {
	fresh := ph.lat.quantile(0.5)
	aggregate := r.Values["shard.agg_deliver_ns"]
	forward := math.Max(ph.forward.quantile(0.5)-aggregate, 0)
	r.set("shard.forward_us", forward/1e3)
	stages := []struct {
		stage, metric string
		ns            float64
	}{
		{"acquire", "budget.acquire_us", ph.acquire.quantile(0.5)},
		{"DC compute", "budget.dc_compute_us", ph.compute.quantile(0.5)},
		{"router/spool", "budget.router_spool_us", ph.router.quantile(0.5)},
		{"wire+dedup+journal+fuse", "budget.shard_us", ph.shard.quantile(0.5)},
		{"forward", "budget.forward_us", forward},
		{"aggregate", "budget.aggregate_us", aggregate},
		{"read", "budget.read_us", ph.read.quantile(0.5)},
	}
	var sum float64
	for _, st := range stages {
		r.set(st.metric, st.ns/1e3)
		r.Budget = append(r.Budget, budgetRow{Stage: st.stage, P50us: st.ns / 1e3, Share: st.ns / fresh})
		sum += st.ns
	}
	r.set("budget.sum_over_fresh", sum/fresh)
	// Medians of a handful of ticks need not add up; a real run has hundreds.
	r.checkf(ph.lat.count < 32 || math.Abs(sum/fresh-1) <= 0.10,
		"stage medians sum to %.0f us, median tick is %.0f us", sum/1e3, fresh/1e3)
}

// check is fleet_e2e's output check: the shards received exactly the
// reports the tees saw, and the aggregator's beliefs equal those of a
// reference PDME fed the teed reports in per-DC order. A shard forwards one
// summary per conclusion write, so the aggregator holds each pair's belief
// as of that pair's last report; the reference is read at the same moments.
func (s *fleetSystem) check(res *result) error {
	for _, d := range s.dcs {
		if err := d.router.Flush(10, time.Second); err != nil {
			res.checkf(false, "%s: %v", d.id, err)
		}
		res.Failed += d.tee.failed
		c := d.router.Counters()
		res.checkf(c.Dropped == 0 && c.DedupAcks == 0 && d.router.Stats().Failovers == 0,
			"%s: dropped=%d dedup_acks=%d failovers=%d", d.id, c.Dropped, c.DedupAcks, d.router.Stats().Failovers)
	}
	var received int64
	for _, sh := range s.shards {
		if err := sh.fwd.Flush(10 * time.Second); err != nil {
			res.checkf(false, "%s forwarder: %v", sh.id, err)
		}
		received += int64(sh.engine.ReceivedReports())
		res.checkf(sh.engine.JournalError() == nil, "%s journal error: %v", sh.id, sh.engine.JournalError())
		res.checkf(sh.fwd.Counters().Errors == 0, "%s forwarder refused %d summaries", sh.id, sh.fwd.Counters().Errors)
	}
	ref, err := newPDMENode(fleetDCs)
	if err != nil {
		return err
	}
	defer ref.close()
	var teed int64
	want := map[pairKey]float64{}
	for _, d := range s.dcs {
		teed += int64(len(d.tee.kept))
		for _, r := range d.tee.kept {
			if err := ref.engine.Deliver(r); err != nil {
				return fmt.Errorf("reference PDME: %w", err)
			}
			b, err := ref.engine.Belief(r.SensedObjectID, r.MachineConditionID)
			if err != nil {
				return fmt.Errorf("reference PDME: %w", err)
			}
			want[pairKey{r.SensedObjectID, r.MachineConditionID}] = math.Min(math.Max(b, 0), 1) // the forwarder clamps to [0,1]
		}
	}
	res.checkf(received == teed, "shards received %d reports, the tees handed over %d", received, teed)
	res.checkf(s.agg.DedupHits() == 0, "aggregator suppressed %d duplicates on a loss-free link", s.agg.DedupHits())
	res.checkf(s.agg.Coverage().HeldPairs == len(want), "aggregator holds %d pairs, the reference %d",
		s.agg.Coverage().HeldPairs, len(want))
	mismatches := 0
	for k, w := range want {
		item, covered := s.agg.GlobalBelief(k.component, k.condition)
		if !covered || math.Float64bits(item.Belief) != math.Float64bits(w) {
			if mismatches == 0 {
				res.checkf(false, "aggregator belief %s/%s = %v (covered=%v), reference = %v",
					k.component, k.condition, item.Belief, covered, w)
			}
			mismatches++
		}
	}
	res.checkf(mismatches <= 1, "%d aggregator beliefs differ from the reference", mismatches)
	return nil
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/proto"
	"repro/internal/serving"
)

// console_read: the read path with writes beside it. A station PDME is
// preloaded to 768 (machine, condition) pairs; one reader goroutine drives
// serving.NewHandler(...).ServeHTTP in a closed loop (10 % /ranked, 90 %
// /belief, Zipf over pairs) while one writer goroutine delivers 1000
// reports/s straight into PDME.DeliverTagged on an open-loop schedule. No
// wire, no journal, no DC.
//
// The timed phase lasts --seconds: the writer's schedule fixes how much
// state the run adds, whatever the reader's speed.

const (
	consoleMachines   = 64
	consolePreloadPer = 3 // reports per pair before the timed phase
	consoleWriteRate  = 1000
	consoleRankedPct  = 10
	consoleZipfS      = 1.1
	// consoleScript is the length of the pre-drawn request sequence the
	// reader cycles through.
	consoleScript = 1 << 16
	// consoleSpeedEvery is how many reads pass between speed samples.
	consoleSpeedEvery = 128
	// consoleBatch is the length of one batch of the timed phase.
	consoleBatch = 250 * time.Millisecond
)

type consoleSystem struct {
	*pdmeNode
	views   *serving.Views
	handler http.Handler
	pairs   []consolePair
	ranked  *http.Request
}

type consolePair struct {
	machine, condition string
	req                *http.Request
}

func buildConsole(seed int64) (*consoleSystem, error) {
	node, err := newPDMENode(consoleMachines)
	if err != nil {
		return nil, err
	}
	s := &consoleSystem{pdmeNode: node}
	if s.views, err = serving.Open(s.engine, serving.Options{}); err != nil {
		return nil, fmt.Errorf("open views: %w", err)
	}
	s.handler = serving.NewHandler(s.views)
	if s.ranked, err = http.NewRequest(http.MethodGet, "/ranked", nil); err != nil {
		return nil, fmt.Errorf("build request: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	at := virtualEpoch
	for _, m := range s.machines {
		for _, c := range allConditions() {
			q := url.Values{"component": {m}, "condition": {c}}
			req, err := http.NewRequest(http.MethodGet, "/belief?"+q.Encode(), nil)
			if err != nil {
				return nil, fmt.Errorf("build request: %w", err)
			}
			s.pairs = append(s.pairs, consolePair{machine: m, condition: c, req: req})
			for k := 0; k < consolePreloadPer; k++ {
				at = at.Add(time.Second)
				r := genReport(rng, "dc-console", m, []string{c}, at)
				if err := s.engine.DeliverTagged(r, r.DCID, 0, 0); err != nil {
					return nil, fmt.Errorf("preload: %w", err)
				}
			}
		}
	}
	return s, nil
}

func (s *consoleSystem) close() {
	s.views.Close()
	s.pdmeNode.close()
}

// recorder is a reusable in-memory http.ResponseWriter.
type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func newRecorder() *recorder { return &recorder{header: http.Header{}} }

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(status int)      { r.status = status }
func (r *recorder) Write(b []byte) (int, error) { return r.body.Write(b) }

// serve runs one request through the handler and returns the status.
func (r *recorder) serve(h http.Handler, req *http.Request) int {
	r.status = http.StatusOK
	r.body.Reset()
	h.ServeHTTP(r, req)
	return r.status
}

// consolePhase is the reader's and the writer's view of one timed phase.
type consolePhase struct {
	phase
	belief, ranked histogram
	lag            histogram
	writes         int64
	stats          serving.Stats // delta over the phase
}

// run drives the reader and the writer for d. script is the reader's
// request sequence (-1: /ranked, otherwise a pair index); writes is the
// writer's pre-generated report stream, one per schedule slot.
func (s *consoleSystem) run(d time.Duration, script []int32, writes []*proto.Report, tr *tracer) *consolePhase {
	ph := &consolePhase{}
	before := s.views.Stats()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var writeFailed int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		period := time.Second / consoleWriteRate
		start := time.Now()
		for i, r := range writes {
			due := start.Add(time.Duration(i) * period)
			if wait := time.Until(due); wait > 0 {
				select {
				case <-stop:
					return
				case <-time.After(wait):
				}
			}
			if err := s.engine.DeliverTagged(r, r.DCID, 0, 0); err != nil {
				writeFailed++
			}
			// Timed from the due time, so a stalled writer's backlog counts.
			ph.lag.record(time.Since(due))
			ph.writes++
		}
	}()

	rec := newRecorder()
	ph.phase = *newPhase()
	deadline := ph.start.at.Add(d)
	for i := 0; ; i++ {
		if i%consoleSpeedEvery == 0 {
			ph.sampleInline()
		}
		t0 := time.Now()
		if !t0.Before(deadline) {
			break
		}
		if t0.Sub(ph.batchAt) >= consoleBatch {
			ph.closeBatch()
		}
		which := script[i%len(script)]
		name, req, h := "http./ranked", s.ranked, &ph.ranked
		if which >= 0 {
			name, req, h = "http./belief", s.pairs[which].req, &ph.belief
		}
		if rec.serve(s.handler, req) != http.StatusOK {
			ph.failed++
		}
		t1 := time.Now()
		h.record(t1.Sub(t0))
		ph.lat.record(t1.Sub(t0))
		tr.add(name, "reader", int64(i), -1, t0, t1)
		ph.ops++
		ph.batchOps++
	}
	ph.finish()
	close(stop)
	wg.Wait()
	ph.failed += writeFailed
	after := s.views.Stats()
	ph.stats = serving.Stats{
		Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses,
		Bypasses: after.Bypasses - before.Bypasses, Coalesced: after.Coalesced - before.Coalesced,
		Invalidations: after.Invalidations - before.Invalidations,
	}
	return ph
}

// consoleScriptFor draws the reader's request sequence.
func consoleScriptFor(rng *rand.Rand, pairs int) []int32 {
	zipf := rand.NewZipf(rng, consoleZipfS, 1, uint64(pairs-1))
	// Popularity rank → pair index, shuffled so the hot pairs are not all
	// on the first machine.
	perm := rng.Perm(pairs)
	script := make([]int32, consoleScript)
	for i := range script {
		if rng.Intn(100) < consoleRankedPct {
			script[i] = -1
		} else {
			script[i] = int32(perm[zipf.Uint64()])
		}
	}
	return script
}

func runConsole(cfg runConfig) (*result, error) {
	res := newResult(wlConsole)
	baseHeap := heapAfterGC()
	sys, setupS, err := timeSetups(func() (*consoleSystem, error) {
		return buildConsole(cfg.seed)
	}, (*consoleSystem).close)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	res.set("setup_s", setupS)

	rng := rand.New(rand.NewSource(cfg.seed + 1))
	script := consoleScriptFor(rng, len(sys.pairs))
	d := cfg.duration()
	t0 := virtualEpoch.Add(24 * time.Hour)
	// One spare second of writes, so the schedule never runs dry if the
	// reader's last request overruns the deadline.
	nWrites := int(math.Ceil(d.Seconds()+1)) * consoleWriteRate
	writes := genReports(rng, 2*nWrites, "dc-console", sys.machines, allConditions(), t0)

	// Warm-up: fill the view cache for every pair and the ranking. It is
	// over in a few milliseconds; set-up here is the build and its preload.
	warm := newRecorder()
	for _, p := range sys.pairs {
		warm.serve(sys.handler, p.req)
	}
	warm.serve(sys.handler, sys.ranked)

	var writesDone int64
	if !cfg.trace {
		ph := sys.run(d, script, writes[:nWrites], nil)
		writesDone = ph.writes
		res.Attempted, res.Failed = ph.ops+ph.writes, ph.failed
		res.setEndToEnd(&ph.phase, heapAfterGC()-baseHeap)
	} else {
		plain := sys.run(d/2, script, writes[:nWrites], nil)
		tr := newTracer()
		traced := sys.run(d/2, script, writes[nWrites:], tr)
		writesDone = plain.writes + traced.writes
		res.Attempted = plain.ops + plain.writes + traced.ops + traced.writes
		res.Failed = plain.failed + traced.failed
		res.setTraceCommon(&plain.phase, &traced.phase)
		res.setHist("read.belief_p50_us", &plain.belief, 0.5, 1e3)
		res.setHist("read.ranked_p50_us", &plain.ranked, 0.5, 1e3)
		res.setHist("read.ranked_p99_us", &plain.ranked, 0.99, 1e3)
		res.setHist("write.lag_ms", &plain.lag, 0.5, 1e6)
		res.set("serving.hit_ratio", plain.stats.HitRatio())
		res.set("serving.invalidations_per_write", float64(plain.stats.Invalidations)/float64(plain.writes))
		if _, err := tr.writeFile(wlConsole); err != nil {
			return nil, err
		}
	}
	sys.check(res, writesDone)
	if cfg.trace {
		if err := probeServingLayers(res, sys, cfg.seed); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// check is console_read's output check, at quiesce: the engine received
// every write, and /belief of every pair answers 200 with exactly the
// belief a fresh PDME.Belief computes. (Non-200 responses during the run
// are already counted as failures.)
func (s *consoleSystem) check(res *result, writes int64) {
	want := int64(len(s.pairs)*consolePreloadPer) + writes
	res.checkf(int64(s.engine.ReceivedReports()) == want,
		"PDME received %d reports, %d were delivered", s.engine.ReceivedReports(), want)
	res.checkf(res.Failed == 0, "%d reads or writes failed", res.Failed)
	rec := newRecorder()
	for _, p := range s.pairs {
		if status := rec.serve(s.handler, p.req); status != http.StatusOK {
			res.checkf(false, "/belief %s/%s answered %d", p.machine, p.condition, status)
			continue
		}
		var got struct {
			Belief float64 `json:"belief"`
		}
		if err := json.Unmarshal(rec.body.Bytes(), &got); err != nil {
			res.checkf(false, "/belief %s/%s: %v", p.machine, p.condition, err)
			continue
		}
		fresh, err := s.engine.Belief(p.machine, p.condition)
		res.checkf(err == nil && math.Float64bits(fresh) == math.Float64bits(got.Belief),
			"/belief %s/%s = %v, fresh PDME.Belief = %v (%v)", p.machine, p.condition, got.Belief, fresh, err)
	}
}

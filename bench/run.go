package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// runSeconds is BENCHMARK.json's run_seconds: the length of the timed phase
// the reference operation counts were calibrated to on the reference host
// (2 cores). --seconds scales the counts in proportion.
const runSeconds = 15

// runConfig is one run's parameters.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
}

// count scales a reference operation count to the run's length. The closed
// loops run a fixed number of operations, not a fixed time, so the state the
// system accumulates is the same on every run of the same build and a faster
// build is not charged for the extra state it would otherwise produce.
func (c runConfig) count(ref int64) int64 {
	n := int64(math.Round(float64(ref) * c.seconds / runSeconds))
	if n < 8 {
		n = 8
	}
	return n
}

func (c runConfig) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// Set-up is timed at least minSetups times, and again until setupBudget is
// spent or maxSetups is reached: a set-up of a few milliseconds is mostly a
// handful of fsyncs, and only a median over many of them repeats.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 500 * time.Millisecond
	// setupSpeedSamples speed samples are taken before each build; three
	// builds then give the factor fifteen samples to take a median over.
	setupSpeedSamples = 5
)

// timeSetups builds the system under test several times, tears all but the
// last build down again, and returns the last build with the median build
// time in seconds, scaled to reference speed like the other timings.
func timeSetups[T any](build func() (T, error), teardown func(T)) (T, float64, error) {
	var sys T
	var times []float64
	var spent time.Duration
	speed := newSpeedometer()
	for i := 0; i < maxSetups && (i < minSetups || spent < setupBudget); i++ {
		if i > 0 {
			teardown(sys)
		}
		for k := 0; k < setupSpeedSamples; k++ {
			speed.sample()
		}
		t0 := time.Now()
		s, err := build()
		if err != nil {
			return sys, 0, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		d := time.Since(t0)
		spent += d
		times = append(times, d.Seconds())
		sys = s
	}
	return sys, median(times) / speed.factor(), nil
}

// addWarmup adds the untimed warm-up to setup_s, scaled to reference speed
// by the speed factor sampled during it. Set-up is then everything between
// a cold process and the steady state the timed phase starts from: work
// moved into a constructor shows in the build part, work moved into first
// use in the warm-up part.
func (r *result) addWarmup(wall time.Duration, factor float64) {
	r.Values["setup_s"] += wall.Seconds() / factor
}

// setTraceCommon fills the per-layer metrics every workload shares from an
// untraced and a traced pass over the same system: the tracing overhead and
// the untraced pass's tails and GC share.
func (r *result) setTraceCommon(plain, traced *phase) {
	rate := func(p *phase) float64 { return median(p.rates) * p.speed.factor() }
	r.set("trace.overhead_pct", 100*(rate(plain)/rate(traced)-1))
	r.set("host.speed_factor", plain.speed.factor())
	r.setHist("tail.p95_us", &plain.lat, 0.95, 1e3)
	r.setHist("tail.p99_us", &plain.lat, 0.99, 1e3)
	r.set("gc.cpu_frac", plain.use.gcCPUFrac)
}

// timeCalls runs fn in batches and returns the median per-call time in
// nanoseconds: the standalone timing of one layer call. Batches keep the
// clock reads out of calls that take well under a microsecond.
func timeCalls(batches, perBatch int, fn func(i int) error) (float64, error) {
	times := make([]float64, 0, batches)
	i := 0
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for k := 0; k < perBatch; k++ {
			if err := fn(i); err != nil {
				return 0, err
			}
			i++
		}
		times = append(times, float64(time.Since(t0))/float64(perBatch))
	}
	return median(times), nil
}

// phaseBatches is how many batches a closed loop's operations are split
// into for the per-batch medians.
const phaseBatches = 40

// phase is one timed pass over a workload. The host these runs share slows
// down in bursts (a fixed spin loop takes twice as long for a second or so,
// several times a minute), so throughput and CPU cost are taken as medians
// over batches of operations rather than from the pass's totals: a burst
// spoils the batches it touches and leaves the median alone.
type phase struct {
	ops    int64
	failed int64
	lat    histogram
	use    usage
	// speed samples the host's speed between operations; inline is the
	// wall time those samples took on the loop's own thread, which is
	// taken out of the batch times.
	speed  *speedometer
	inline time.Duration

	start     meter
	batchOps  int64
	batchAt   time.Time
	batchCPU  time.Duration
	batchSkip time.Duration
	rates     []float64 // operations per second, per batch
	cpus      []float64 // CPU microseconds per operation, per batch
}

func newPhase() *phase {
	ph := &phase{speed: newSpeedometer()}
	ph.start = readMeter()
	ph.batchAt, ph.batchCPU = ph.start.at, ph.start.cpu
	return ph
}

// add counts one more completed operation of a loop that will run total and
// closes a batch when one is full.
func (ph *phase) add(total int64) {
	ph.ops++
	ph.batchOps++
	if ph.batchOps*phaseBatches >= total {
		ph.closeBatch()
	}
}

// sampleInline takes a speed sample on the loop's own thread and keeps its
// duration out of the batch.
func (ph *phase) sampleInline() {
	d := ph.speed.sample()
	ph.inline += d
	ph.batchSkip += d
}

// done is add after an inline speed sample: one operation of a
// single-threaded closed loop.
func (ph *phase) done(total int64) {
	ph.sampleInline()
	ph.add(total)
}

// closeBatch ends the current batch at this instant.
func (ph *phase) closeBatch() {
	if ph.batchOps == 0 {
		return
	}
	now, cpu := time.Now(), cpuTime()
	n := float64(ph.batchOps)
	ph.rates = append(ph.rates, n/(now.Sub(ph.batchAt)-ph.batchSkip).Seconds())
	ph.cpus = append(ph.cpus, float64((cpu-ph.batchCPU-ph.batchSkip).Microseconds())/n)
	ph.batchOps, ph.batchAt, ph.batchCPU, ph.batchSkip = 0, now, cpu, 0
}

// finish closes the pass and whatever batch is still open.
func (ph *phase) finish() {
	ph.closeBatch()
	ph.use = readMeter().since(ph.start)
}

// setEndToEnd fills the five run metrics every workload shares from one
// timed phase and the heap the system under test retains (stateBytes). The
// time-based ones are per-batch medians scaled to reference speed by the
// phase's speed factor.
func (r *result) setEndToEnd(ph *phase, stateBytes uint64) {
	f := ph.speed.factor()
	r.set("ops_per_s", median(ph.rates)*f)
	r.Values["op_p50_us"] = ph.lat.quantile(0.50) / 1e3 / f
	r.Samples["op_p50_us"] = ph.lat.count
	r.set("cpu_us_per_op", median(ph.cpus)/f)
	r.set("alloc_kb_per_op", float64(ph.use.allocBytes)/1024/float64(ph.ops))
	r.set("state_mb", float64(stateBytes)/(1<<20))
	r.Raw = fmt.Sprintf("as measured, before scaling by speed factor %.3f: ops_per_s=%.4g op_p50_us=%.4g cpu_us_per_op=%.4g",
		f, median(ph.rates), ph.lat.quantile(0.50)/1e3, median(ph.cpus))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// Command servebench load-tests the read-side serving tier: it stands up an
// in-process PDME configured as pdmed configures one (staleness discounting
// engaged on the event-time watermark, so every report and heartbeat puts
// the tier's discount-factor guard to work) with live synthetic ingest
// (reports + heartbeats on virtual timestamps), then drives thousands of
// concurrent readers through the materialized-view API while dedicated
// checkers continuously prove cache coherence against fresh fuses.
//
//	servebench -readers 10000 -duration 10s -json
//
// The run reports hit ratio, invalidation rate, and p50/p99/p999 read
// latency. Exit status: 0 on success, 2 on any coherence violation, 3 when
// -min-hit-ratio is not met — so CI can gate on a short run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pdme"
	"repro/internal/proto"
	"repro/internal/serving"

	mpros "repro"
)

// histogram is a lock-free log-bucketed latency histogram: 64 octaves × 16
// sub-buckets, ~6% relative quantile error — plenty for p50/p99/p999 at
// nanosecond-to-second scale without per-sample allocation.
const subBuckets = 16

type histogram struct {
	buckets [64 * subBuckets]atomic.Uint64
	count   atomic.Uint64
}

func (h *histogram) record(d time.Duration) {
	ns := uint64(d.Nanoseconds())
	if ns == 0 {
		ns = 1
	}
	octave := bits.Len64(ns) - 1
	var sub uint64
	if octave > 4 { // below 32ns the octave alone is the resolution
		sub = (ns >> (uint(octave) - 4)) & (subBuckets - 1)
	}
	h.buckets[uint64(octave)*subBuckets+sub].Add(1)
	h.count.Add(1)
}

// quantile returns the upper bound of the bucket holding the q-th sample.
func (h *histogram) quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen > rank {
			octave := i / subBuckets
			sub := uint64(i % subBuckets)
			lo := uint64(1) << uint(octave)
			width := lo / subBuckets
			if width == 0 {
				return time.Duration(lo)
			}
			return time.Duration(lo + (sub+1)*width)
		}
	}
	return 0
}

type results struct {
	Readers  int     `json:"readers"`
	Writers  int     `json:"writers"`
	Checkers int     `json:"checkers"`
	Seconds  float64 `json:"seconds"`

	Reads       uint64  `json:"reads"`
	ReadsPerSec float64 `json:"reads_per_sec"`
	Deliveries  uint64  `json:"deliveries"`
	Heartbeats  uint64  `json:"heartbeats"`

	Hits          uint64  `json:"cache_hits"`
	Misses        uint64  `json:"cache_misses"`
	Bypasses      uint64  `json:"cache_bypasses"`
	Coalesced     uint64  `json:"cache_coalesced"`
	HitRatio      float64 `json:"hit_ratio"`
	Invalidations uint64  `json:"invalidations"`
	Stores        uint64  `json:"stores"`

	Notices     uint64 `json:"watch_notices"`
	NoticeDrops uint64 `json:"watch_notice_drops"`

	CoherenceChecks     uint64 `json:"coherence_checks"`
	CoherenceViolations uint64 `json:"coherence_violations"`

	P50Micros  float64 `json:"read_p50_us"`
	P99Micros  float64 `json:"read_p99_us"`
	P999Micros float64 `json:"read_p999_us"`
}

func main() {
	os.Exit(run())
}

func run() int {
	readers := flag.Int("readers", 10000, "concurrent reader goroutines")
	writers := flag.Int("writers", 4, "concurrent ingest goroutines (synthetic DCs)")
	checkers := flag.Int("checkers", 4, "coherence-checker goroutines")
	checkEvery := flag.Duration("check-every", 10*time.Millisecond, "pause between coherence checks per checker (each check runs a full fresh fuse; unpaced checkers become the load)")
	watchers := flag.Int("watchers", 32, "streaming watch subscriptions held open during the run")
	duration := flag.Duration("duration", 10*time.Second, "load duration")
	ingestEvery := flag.Duration("ingest-every", 25*time.Millisecond, "delay between deliveries per writer")
	think := flag.Duration("think", 200*time.Millisecond, "per-reader pause between requests (0 turns readers into hot loops that measure scheduler pressure, not serving latency)")
	minHitRatio := flag.Float64("min-hit-ratio", 0, "fail (exit 3) when the final hit ratio is below this")
	asJSON := flag.Bool("json", false, "emit the results as one JSON object on stdout")
	seed := flag.Int64("seed", 1, "workload seed")
	flag.Parse()

	// pdmed always passes a health config; the defaults are its flags' defaults.
	node, err := mpros.OpenNode("", "", &mpros.HealthConfig{}, 0, nil, pdme.JournalOptions{}, nil)
	if err != nil {
		return fail(err)
	}
	defer node.Close()
	engine := node.PDME
	views, err := serving.Open(engine, serving.Options{})
	if err != nil {
		return fail(err)
	}
	defer views.Close()

	groups := mpros.ChillerGroups()
	var conditions []string
	for _, conds := range groups {
		conditions = append(conditions, conds...)
	}
	sort.Strings(conditions) // map order is random; keep seeded runs reproducible
	components := []string{"chiller-1", "chiller-2", "chiller-3", "chiller-4"}

	// Seed one report per component so readers never see an empty model.
	virtual := time.Date(1998, 8, 1, 0, 0, 0, 0, time.UTC)
	seedRNG := rand.New(rand.NewSource(*seed))
	for i, comp := range components {
		if err := engine.Deliver(synthReport(seedRNG, "dc-seed", comp, conditions, virtual.Add(time.Duration(i)*time.Second))); err != nil {
			return fail(err)
		}
	}

	var (
		wg         sync.WaitGroup
		reads      atomic.Uint64
		deliveries atomic.Uint64
		heartbeats atomic.Uint64
		checks     atomic.Uint64
		violations atomic.Uint64
		hist       histogram
		virtualNS  atomic.Int64 // virtual clock shared by writers, ns offset from the epoch
	)
	stop := make(chan struct{})

	// Streaming subscriptions stay open for the whole run so every delivery
	// exercises the fan-out path; they drain lazily, so slow-consumer drops
	// are expected and counted, never blocking.
	for i := 0; i < *watchers; i++ {
		sub := views.Watch("", 8)
		defer sub.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case _, ok := <-sub.C:
					if !ok {
						return
					}
				}
			}
		}()
	}

	for w := 0; w < *writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(w)*101))
			dc := fmt.Sprintf("dc-%d", w)
			n := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				at := virtual.Add(time.Duration(virtualNS.Add(int64(time.Second))))
				if n%20 == 19 {
					if err := engine.ObserveHeartbeat(&proto.Heartbeat{DCID: dc, SentAt: at, Incarnation: 1}); err == nil {
						heartbeats.Add(1)
					}
				} else {
					comp := components[rng.Intn(len(components))]
					if err := engine.Deliver(synthReport(rng, dc, comp, conditions, at)); err != nil {
						fmt.Fprintln(os.Stderr, "servebench: deliver:", err)
					} else {
						deliveries.Add(1)
					}
				}
				n++
				//lint:allow noclock load-generator pacing; the benchmark measures real elapsed time
				time.Sleep(*ingestEvery)
			}
		}(w)
	}

	for c := 0; c < *checkers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if *checkEvery > 0 {
					//lint:allow noclock coherence-checker pacing; wall-clock by design in a benchmark
					time.Sleep(*checkEvery)
				}
				// Epoch guard: two hits off the same materialization bracket
				// an interval with no invalidation and no health observation,
				// so a fresh fuse taken between them must match exactly.
				first := views.Ranked()
				if !first.Cached || first.Epoch == 0 {
					continue
				}
				fresh := engine.PrioritizedList()
				second := views.Ranked()
				if !second.Cached || second.Epoch != first.Epoch {
					continue // ingest raced the check: inconclusive
				}
				checks.Add(1)
				if !reflect.DeepEqual(first.Items(), fresh) {
					violations.Add(1)
				}
			}
		}()
	}

	for r := 0; r < *readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + 7919*int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				comp := components[rng.Intn(len(components))]
				cond := conditions[rng.Intn(len(conditions))]
				//lint:allow noclock read-latency measurement is the benchmark's whole point
				start := time.Now()
				switch rng.Intn(10) {
				case 0, 1: // per-pair belief view
					_, _ = views.Belief(comp, cond)
				case 2: // trend (uncached historian path)
					_ = views.Trend(comp, cond, 0.75)
				default: // ranked list — the dashboard hot path
					_ = views.Ranked()
				}
				//lint:allow noclock read-latency measurement is the benchmark's whole point
				hist.record(time.Since(start))
				reads.Add(1)
				if *think > 0 {
					//lint:allow noclock reader think-time pacing; wall-clock by design in a benchmark
					time.Sleep(*think)
				}
			}
		}(r)
	}

	//lint:allow noclock benchmark wall-clock window
	started := time.Now()
	//lint:allow noclock benchmark runs for a real-time duration
	time.Sleep(*duration)
	close(stop)
	wg.Wait()
	//lint:allow noclock benchmark wall-clock window
	elapsed := time.Since(started)

	st := views.Stats()
	res := results{
		Readers:  *readers,
		Writers:  *writers,
		Checkers: *checkers,
		Seconds:  elapsed.Seconds(),

		Reads:       reads.Load(),
		ReadsPerSec: float64(reads.Load()) / elapsed.Seconds(),
		Deliveries:  deliveries.Load(),
		Heartbeats:  heartbeats.Load(),

		Hits:          st.Hits,
		Misses:        st.Misses,
		Bypasses:      st.Bypasses,
		Coalesced:     st.Coalesced,
		HitRatio:      st.HitRatio(),
		Invalidations: st.Invalidations,
		Stores:        st.Stores,

		Notices:     st.Notices,
		NoticeDrops: st.NoticeDrops,

		CoherenceChecks:     checks.Load(),
		CoherenceViolations: violations.Load(),

		P50Micros:  float64(hist.quantile(0.50)) / 1e3,
		P99Micros:  float64(hist.quantile(0.99)) / 1e3,
		P999Micros: float64(hist.quantile(0.999)) / 1e3,
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return fail(err)
		}
	} else {
		fmt.Printf("servebench: %d readers, %d writers for %.1fs\n", res.Readers, res.Writers, res.Seconds)
		fmt.Printf("  reads          %d (%.0f/s)\n", res.Reads, res.ReadsPerSec)
		fmt.Printf("  ingest         %d reports, %d heartbeats\n", res.Deliveries, res.Heartbeats)
		fmt.Printf("  cache          hits=%d misses=%d bypasses=%d coalesced=%d (hit ratio %.3f)\n", res.Hits, res.Misses, res.Bypasses, res.Coalesced, res.HitRatio)
		fmt.Printf("  invalidations  %d (%d stores)\n", res.Invalidations, res.Stores)
		fmt.Printf("  watch          %d notices, %d dropped\n", res.Notices, res.NoticeDrops)
		fmt.Printf("  coherence      %d conclusive checks, %d violations\n", res.CoherenceChecks, res.CoherenceViolations)
		fmt.Printf("  read latency   p50=%.1fµs p99=%.1fµs p999=%.1fµs\n", res.P50Micros, res.P99Micros, res.P999Micros)
	}

	if res.CoherenceViolations > 0 {
		fmt.Fprintf(os.Stderr, "servebench: FAIL: %d coherence violations\n", res.CoherenceViolations)
		return 2
	}
	if *minHitRatio > 0 && res.HitRatio < *minHitRatio {
		fmt.Fprintf(os.Stderr, "servebench: FAIL: hit ratio %.3f below required %.3f\n", res.HitRatio, *minHitRatio)
		return 3
	}
	return 0
}

func synthReport(rng *rand.Rand, dc, component string, conditions []string, at time.Time) *proto.Report {
	r := &proto.Report{
		DCID:               dc,
		KnowledgeSourceID:  "ks-" + dc,
		SensedObjectID:     component,
		MachineConditionID: conditions[rng.Intn(len(conditions))],
		Severity:           0.2 + 0.6*rng.Float64(),
		Belief:             0.2 + 0.7*rng.Float64(),
		Timestamp:          at,
	}
	if rng.Intn(3) == 0 {
		r.Prognostics = proto.PrognosticVector{{
			Probability:    0.3 + 0.6*rng.Float64(),
			HorizonSeconds: float64(rng.Intn(400)+24) * 3600,
		}}
	}
	return r
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "servebench:", err)
	return 1
}

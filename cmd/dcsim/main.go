// Command dcsim runs a simulated Data Concentrator: a synthetic centrifugal
// chiller instrumented by the full DC analyzer suite, reporting over TCP to
// a pdmed instance. Faults can be seeded at fixed severity or grown along a
// degradation profile.
//
// Usage:
//
//	dcsim -pdme 127.0.0.1:7011 -id dc-1 -machine "chiller/1" \
//	      -fault "motor imbalance=0.7" -hours 48 -speedup 3600
//
// With -speedup 0 the simulation runs as fast as possible (virtual time);
// otherwise one virtual hour takes 3600/speedup wall seconds.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/chiller"
	"repro/internal/dc"
	"repro/internal/historian"
	"repro/internal/proto"
	"repro/internal/shard"
	"repro/internal/uplink"
)

// reportUplink is what the simulator needs from its transport: the plain
// uplink or the shard-ring router, interchangeably.
type reportUplink interface {
	proto.Sink
	Counters() uplink.Counters
	Pending() int
	Close() error
}

func main() { os.Exit(run()) }

func run() int {
	pdmeAddr := flag.String("pdme", "127.0.0.1:7011", "PDME report server address")
	id := flag.String("id", "dc-1", "data concentrator id")
	machine := flag.String("machine", "chiller/1", "sensed object id")
	faultFlag := flag.String("fault", "", "seeded faults, e.g. \"motor imbalance=0.7,oil whirl=0.4\"")
	degradeFlag := flag.String("degrade", "", "degradation profile, e.g. \"motor bearing outer race defect:onset=24,growth=120\" (hours)")
	hours := flag.Float64("hours", 24, "virtual hours to simulate")
	speedup := flag.Float64("speedup", 0, "virtual-to-wall speedup (0: as fast as possible)")
	dbPath := flag.String("db", "", "DC report log path: the newest condition reports outlive the run (empty: in-memory)")
	histDir := flag.String("historian-dir", "", "acquisition historian directory (empty: in-memory); readable later with examples/historian-replay")
	seed := flag.Int64("seed", 1, "plant randomness seed")
	spoolDir := flag.String("spool-dir", "", "store-and-forward spool directory; reports queued while the PDME is unreachable survive a dcsim restart (empty: in-memory spool)")
	spoolCap := flag.Int("spool-cap", 0, "max spooled reports before oldest-first drop (0: default)")
	dialTimeout := flag.Duration("dial-timeout", 0, "per-dial deadline (0: default)")
	sendTimeout := flag.Duration("send-timeout", 0, "per-send deadline (0: default)")
	flushTimeout := flag.Duration("flush-timeout", time.Minute, "final spool drain deadline at exit")
	heartbeat := flag.Duration("heartbeat", 5*time.Minute, "fleet-health heartbeat interval in virtual time (0 disables)")
	shardsFlag := flag.String("shards", "", "shard ring membership \"id=addr,id=addr,...\": reports route to the consistent-hash shard for -id with automatic failover to the ring successor (overrides -pdme; requires -spool-dir)")
	flag.Parse()

	plantCfg := chiller.DefaultConfig()
	plantCfg.Seed = *seed
	plant, err := chiller.New(plantCfg)
	if err != nil {
		fatal(err)
	}
	if err := applyFaults(plant, *faultFlag); err != nil {
		fatal(err)
	}
	var deg *chiller.Degrader
	if *degradeFlag != "" {
		deg, err = parseDegradation(plant, *degradeFlag)
		if err != nil {
			fatal(err)
		}
	}
	// The uplink dials lazily and spools while the PDME is unreachable, so
	// dcsim starts (and keeps monitoring) even when pdmed is down. With
	// -shards the transport is instead a ring router: same spool contract,
	// plus failover to the ring successor when the assigned shard stalls.
	var up reportUplink
	var flush func(time.Duration) error
	var router *shard.Router
	if *shardsFlag != "" {
		if *spoolDir == "" {
			fatal(errors.New("-shards requires -spool-dir (failover keeps the spool across target swaps)"))
		}
		members, err := shard.ParseMembers(*shardsFlag)
		if err != nil {
			fatal(fmt.Errorf("-shards: %w", err))
		}
		// A lone DC rings over its own id only: assignment degenerates to
		// the pure rendezvous preference, which every process computes
		// identically — so a fleet of independent dcsims agrees on the
		// routing without sharing a population census.
		ring, err := shard.NewRing(members, []string{*id})
		if err != nil {
			fatal(err)
		}
		router, err = shard.NewRouter(shard.RouterConfig{
			DCID:        *id,
			Ring:        ring,
			SpoolDir:    *spoolDir,
			SpoolCap:    *spoolCap,
			DialTimeout: *dialTimeout,
			SendTimeout: *sendTimeout,
			// Cap retry backoff near the 1 s Pump slice: the stall counter
			// advances only on slices that saw an attempt, so the uplink
			// default (15 s max) can starve the failure detector past the
			// flush deadline on a short run against a dead shard.
			BackoffMax: 2 * time.Second,
			Seed:       *seed,
		})
		if err != nil {
			fatal(err)
		}
		up = router
		// Pump the failure detector between one-second drain slices so an
		// outage mid-flush resolves by failover instead of timing out.
		flush = func(t time.Duration) error {
			attempts := int(t/time.Second) + 1
			return router.Flush(attempts, time.Second)
		}
		fmt.Printf("dcsim %s: shard ring v%d (%d shards), assigned to %s\n",
			*id, ring.Version(), len(members), router.Target())
	} else {
		u, err := uplink.New(uplink.Config{
			Addr:        *pdmeAddr,
			DCID:        *id,
			SpoolDir:    *spoolDir,
			SpoolCap:    *spoolCap,
			DialTimeout: *dialTimeout,
			SendTimeout: *sendTimeout,
			Seed:        *seed,
		})
		if err != nil {
			fatal(err)
		}
		up = u
		flush = u.Flush
	}
	defer up.Close()

	hist, err := historian.Open(historian.Options{Dir: *histDir})
	if err != nil {
		fatal(err)
	}
	defer hist.Close()
	dcCfg := dc.DefaultConfig(*id, *machine)
	dcCfg.Historian = hist
	dcCfg.HeartbeatInterval = *heartbeat
	dcCfg.ReportLog = *dbPath
	conc, err := dc.New(dcCfg, plant, nil, up)
	if err != nil {
		fatal(err)
	}
	if deg != nil {
		if err := conc.Scheduler().Schedule(&dc.Task{
			Name: "degrade", Interval: time.Hour,
			Run: func(time.Time) error { return deg.Advance(1) },
		}, 0); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("dcsim %s: monitoring %s, reporting to %s, %g virtual hours\n",
		*id, *machine, *pdmeAddr, *hours)

	// On SIGINT/SIGTERM the loop stops at the next hour boundary and falls
	// through to the normal exit path: the spool flush below drains queued
	// reports (bounded by -flush-timeout), so an interrupted run leaves
	// nothing behind that the spool file can't carry into the next one.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	interrupted := false

	stepHours := 1.0
	for done := 0.0; done < *hours; done += stepHours {
		select {
		case sig := <-stop:
			fmt.Printf("dcsim %s: %v — stopping at t+%.1fh, draining spool\n", *id, sig, done)
			interrupted = true
		default:
		}
		if interrupted {
			break
		}
		step := stepHours
		if remaining := *hours - done; remaining < step {
			step = remaining
		}
		if err := conc.RunFor(time.Duration(step * float64(time.Hour))); err != nil {
			fatal(err)
		}
		if router != nil && router.Pump() {
			fmt.Printf("  dcsim %s: shard stalled — failed over to %s\n", *id, router.Target())
		}
		if *speedup > 0 {
			//lint:allow noclock real-time pacing knob of the simulator CLI; virtual time drives the model
			time.Sleep(time.Duration(step * float64(time.Hour) / *speedup))
		}
		c := up.Counters()
		fmt.Printf("  t+%5.1fh  uplink sent=%d acked=%d retried=%d spooled=%d replayed=%d dropped=%d (capacity=%d) dup=%d hb=%d/%d pending=%d active faults=%v\n",
			done+step, c.Sent, c.Acked, c.Retried, c.Spooled, c.Replayed,
			c.Dropped, c.CapacityDrops, c.DedupAcks, c.HeartbeatsSent,
			c.HeartbeatsDropped, up.Pending(), faultSummary(plant))
	}
	code := 0
	if err := flush(*flushTimeout); err != nil {
		// A timed-out drain is an operational failure worth a non-zero exit:
		// the operator's pipeline should notice reports left behind.
		fmt.Fprintf(os.Stderr, "dcsim: %v — %d reports still spooled (they persist for the next run)\n",
			err, up.Pending())
		code = 1
	}
	c := up.Counters()
	fmt.Printf("dcsim %s: done — sent=%d acked=%d retried=%d spooled=%d replayed=%d dropped=%d (capacity=%d) dup=%d hb=%d/%d\n",
		*id, c.Sent, c.Acked, c.Retried, c.Spooled, c.Replayed, c.Dropped,
		c.CapacityDrops, c.DedupAcks, c.HeartbeatsSent, c.HeartbeatsDropped)
	if router != nil {
		printRouting(*id, router)
	}
	if err := conc.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "dcsim:", err)
		code = 1
	}
	return code
}

// printRouting summarizes the shard router's decisions: where this DC's
// reports actually landed, shard by shard.
func printRouting(id string, router *shard.Router) {
	st := router.Stats()
	ids := make([]string, 0, len(st.PerShard))
	for sid := range st.PerShard {
		ids = append(ids, sid)
	}
	sort.Strings(ids)
	line := fmt.Sprintf("dcsim %s: routing — target=%s failovers=%d ring-updates=%d acked-by",
		id, router.Target(), st.Failovers, st.RingUpdates)
	for _, sid := range ids {
		line += fmt.Sprintf(" %s=%d", sid, st.PerShard[sid])
	}
	fmt.Println(line)
}

func applyFaults(plant *chiller.Plant, spec string) error {
	if spec == "" {
		return nil
	}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return fmt.Errorf("bad fault spec %q (want name=severity)", part)
		}
		f, err := chiller.ParseFault(strings.TrimSpace(kv[0]))
		if err != nil {
			return err
		}
		sev, err := strconv.ParseFloat(strings.TrimSpace(kv[1]), 64)
		if err != nil {
			return fmt.Errorf("bad severity in %q: %w", part, err)
		}
		if err := plant.SetFault(f, sev); err != nil {
			return err
		}
	}
	return nil
}

func parseDegradation(plant *chiller.Plant, spec string) (*chiller.Degrader, error) {
	var profiles []chiller.DegradationProfile
	for _, part := range strings.Split(spec, ";") {
		fields := strings.SplitN(strings.TrimSpace(part), ":", 2)
		if len(fields) != 2 {
			return nil, fmt.Errorf("bad degradation spec %q (want fault:onset=H,growth=H)", part)
		}
		f, err := chiller.ParseFault(strings.TrimSpace(fields[0]))
		if err != nil {
			return nil, err
		}
		p := chiller.DegradationProfile{Fault: f, Shape: chiller.Exponential}
		for _, kv := range strings.Split(fields[1], ",") {
			pair := strings.SplitN(strings.TrimSpace(kv), "=", 2)
			if len(pair) != 2 {
				return nil, fmt.Errorf("bad degradation parameter %q", kv)
			}
			v, err := strconv.ParseFloat(pair[1], 64)
			if err != nil {
				return nil, err
			}
			switch pair[0] {
			case "onset":
				p.OnsetHours = v
			case "growth":
				p.GrowthHours = v
			default:
				return nil, fmt.Errorf("unknown degradation parameter %q", pair[0])
			}
		}
		profiles = append(profiles, p)
	}
	return chiller.NewDegrader(plant, profiles)
}

func faultSummary(plant *chiller.Plant) []string {
	var out []string
	for _, f := range plant.ActiveFaults(0.05) {
		out = append(out, fmt.Sprintf("%s=%.2f", f, plant.FaultSeverity(f)))
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dcsim:", err)
	os.Exit(1)
}

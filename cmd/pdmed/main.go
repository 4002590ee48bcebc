// Command pdmed runs a standalone PDME: it listens for §7 failure
// prediction reports over TCP, fuses them, serves the read-side HTTP API
// (prioritized list, beliefs, trends, streaming watches, fleet health), and
// periodically prints the prioritized maintenance list. What the list is a
// function of persists in the journal (-journal-dir); the ship model is
// working memory, rebuilt at every start.
//
// Usage:
//
//	pdmed -listen 127.0.0.1:7011 -serve-addr 127.0.0.1:7080 \
//	      -journal-dir /var/lib/mpros/journal -historian-dir /var/lib/mpros/hist \
//	      -status 10s
//
// Point one or more dcsim instances (or any §7-speaking client) at the
// listen address; dashboards read from the serve address:
//
//	GET /ranked[?top=k]                          prioritized maintenance list (its first k rows)
//	GET /belief?component=&condition=            one pair's fused state
//	GET /trend?component=&condition=&threshold=  severity history + projection
//	GET /watch?component=                        streaming change notices (NDJSON)
//	GET /health                                  fleet-health snapshot
//	GET /stats                                   view-cache counters
//
// Fleet-of-fleets roles (see DESIGN.md "Hierarchical fleet"):
//
//	pdmed -forward-addr 127.0.0.1:7100 -shard-id shard-1 ...
//	    runs a shard PDME: fuses DC reports as usual AND streams every fused
//	    conclusion upward to an aggregator as a FusedSummary envelope over a
//	    spooled uplink.
//	pdmed -aggregator -listen 127.0.0.1:7100 -serve-addr 127.0.0.1:7180 \
//	      -ring "shard-1=127.0.0.1:7011,shard-2=127.0.0.1:7012"
//	    runs the global aggregator: -listen accepts FusedSummary envelopes
//	    from shard PDMEs; -serve-addr serves /ranked[?top=k] /belief
//	    /coverage with per-shard coverage metadata and graceful degradation.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/health"
	"repro/internal/pdme"
	"repro/internal/serving"
	"repro/internal/shard"

	mpros "repro"
)

// shutdownGrace bounds how long in-flight HTTP responses (including open
// /watch streams) may delay exit after a signal.
const shutdownGrace = 5 * time.Second

// livenessEvery is the cadence of what a node owes whether or not anybody
// watches its status block: a shard's heartbeat to its aggregator and the
// report of a failed journal.
const livenessEvery = 15 * time.Second

func main() {
	os.Exit(run())
}

func run() int {
	listen := flag.String("listen", "127.0.0.1:7011", "TCP listen address for DC reports")
	serveAddr := flag.String("serve-addr", "", "HTTP address for the read-side API (/ranked /belief /trend /watch /health /stats; empty disables)")
	histDir := flag.String("historian-dir", "", "severity/lifetime historian directory (empty: in-memory)")
	statusEvery := flag.Duration("status", 15*time.Second, "prioritized-list print interval (0 disables)")
	idleTimeout := flag.Duration("idle-timeout", 0, "per-connection read/write deadline (0: protocol default); dead peers are cut loose after this")
	healthLate := flag.Duration("health-late", 5*time.Minute, "a DC with no heartbeat or report for this long is late")
	healthSilent := flag.Duration("health-silent", 15*time.Minute, "a DC with no heartbeat or report for this long is silent")
	healthFresh := flag.Duration("health-fresh", time.Hour, "evidence younger than this fuses at full reliability")
	healthHorizon := flag.Duration("health-horizon", 24*time.Hour, "evidence reliability reaches its floor at this age")
	healthFloor := flag.Float64("health-floor", 0, "minimum evidence reliability under staleness discounting [0,1)")
	healthWallclock := flag.Bool("health-wallclock", false, "judge staleness by the wall clock instead of the event-time watermark (use when DCs report in real time; simulated DCs carry virtual timestamps)")
	journalDir := flag.String("journal-dir", "", "write-ahead journal + checkpoint directory; accepted envelopes are fsynced before fusion and a killed pdmed recovers its state on restart (empty disables durability)")
	checkpointInterval := flag.Duration("checkpoint-interval", time.Minute, "periodic checkpoint cadence with -journal-dir (0 disables the timer; automatic checkpoints still run once at least 1024 records and twice the last checkpoint's size of WAL bytes have accumulated)")
	dedupWindow := flag.Int("dedup-window", 0, "per-DC duplicate-suppression window in sequences (0: protocol default, 4096); size above the deepest spool replay a DC outage can produce")
	aggregator := flag.Bool("aggregator", false, "run as the global fleet aggregator: -listen accepts FusedSummary envelopes from shard PDMEs, -serve-addr serves /ranked[?top=k] /belief /coverage")
	ringSpec := flag.String("ring", "", "shard ring membership as \"id=addr,id=addr,...\" (aggregator mode: coverage accounting over the full membership, not just shards seen so far)")
	forwardAddr := flag.String("forward-addr", "", "aggregator summary-server address; set to run as a shard PDME that streams fused conclusions upward")
	shardID := flag.String("shard-id", "shard-1", "this shard's identity on the aggregator wire (with -forward-addr)")
	forwardSpool := flag.String("forward-spool", "", "summary forwarder spool directory; summaries queued during an aggregator outage survive a restart (empty: in-memory)")
	flag.Parse()
	// Default to the event-time watermark: simulated DCs (dcsim) stamp
	// reports with virtual time, which a wall clock would judge decades
	// stale. Real-time deployments opt into the wall clock. The same choice
	// governs shard-liveness judgement in aggregator mode.
	healthCfg := health.Config{
		LateAfter:        *healthLate,
		SilentAfter:      *healthSilent,
		FreshFor:         *healthFresh,
		StalenessHorizon: *healthHorizon,
		ReliabilityFloor: *healthFloor,
	}
	if *healthWallclock {
		//lint:allow noclock operator opted into wall-clock staleness via -health-wallclock
		healthCfg.Clock = time.Now
	}

	// A role is what the one run loop below drives: a read-side API to mount
	// on -serve-addr, a status block, (fusing roles) a liveness duty and
	// (journaled roles) a checkpoint. Each role's constructor owns the order
	// its parts open in (DESIGN.md "Process roles"); the deferred Closes undo
	// it.
	var (
		api        http.Handler
		endpoints  string
		status     func()
		liveness   func()
		checkpoint func() error
	)
	if *aggregator {
		if *forwardAddr != "" {
			return fail(errors.New("-aggregator and -forward-addr are mutually exclusive (an aggregator is the top of the hierarchy)"))
		}
		var ring *shard.Ring
		if *ringSpec != "" {
			members, err := shard.ParseMembers(*ringSpec)
			if err != nil {
				return fail(fmt.Errorf("-ring: %w", err))
			}
			if ring, err = shard.NewRing(members, nil); err != nil {
				return fail(err)
			}
		}
		agg, err := mpros.OpenAggregator(shard.AggregatorConfig{Ring: ring, Health: healthCfg, DedupWindow: *dedupWindow}, *listen)
		if err != nil {
			return fail(err)
		}
		defer agg.Close()
		line := fmt.Sprintf("pdmed: role=aggregator listening on %s for shard summaries", agg.Addr)
		if ring != nil {
			line += fmt.Sprintf(" (ring v%d, %d shards)", ring.Version(), len(ring.Members()))
		}
		fmt.Println(line)
		api, endpoints = agg.Handler, "/ranked[?top=k] /belief /coverage"
		status = func() { printAggregatorStatus(agg.Aggregator) }
	} else {
		var forward *shard.ForwarderConfig
		if *forwardAddr != "" {
			forward = &shard.ForwarderConfig{ShardID: *shardID, AggregatorAddr: *forwardAddr, SpoolDir: *forwardSpool}
		}
		node, err := mpros.OpenNode(*histDir, &healthCfg, *dedupWindow, nil, pdme.JournalOptions{Dir: *journalDir}, forward)
		if err != nil {
			return fail(err)
		}
		defer node.Close() // the engine's Close writes the final checkpoint
		if *journalDir != "" {
			printRecovery(*journalDir, node.Recovery)
			if *checkpointInterval > 0 {
				checkpoint = node.PDME.Checkpoint
			}
		}
		if fwd := node.Forwarder; fwd != nil {
			fmt.Printf("pdmed: role=shard id=%s forwarding to %s (spool=%s, boot epoch %d, resynced %d conclusions)\n",
				*shardID, *forwardAddr, orMemory(*forwardSpool), fwd.Boot(), node.Resynced)
		}
		if *serveAddr != "" {
			views, err := serving.Open(node.PDME, serving.Options{})
			if err != nil {
				return fail(err)
			}
			defer views.Close()
			api, endpoints = serving.NewHandler(views), "/ranked /belief /trend /watch /health /stats"
		}
		addr, err := node.Serve(*listen, *idleTimeout)
		if err != nil {
			return fail(err)
		}
		fmt.Printf("pdmed: listening on %s (historian=%s)\n", addr, orMemory(*histDir))
		status = func() { printStatus(node) }
		liveness = func() { keepAlive(node) }
	}

	// serverDied carries the first fatal listener error: a read-side API
	// that silently stopped serving must take the daemon down non-zero
	// instead of leaving a fuser nobody can query.
	serverDied := make(chan error, 1)
	var httpSrv *http.Server
	if *serveAddr != "" {
		ln, err := net.Listen("tcp", *serveAddr)
		if err != nil {
			return fail(err)
		}
		// Streams must not be write-deadlined, so WriteTimeout stays 0;
		// ReadHeaderTimeout is the slowloris guard.
		httpSrv = &http.Server{Handler: api, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				serverDied <- fmt.Errorf("read-side API server: %w", err)
			}
		}()
		fmt.Printf("pdmed: read-side API on http://%s (%s)\n", ln.Addr(), endpoints)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	// The loop's cadences; one that is not started never fires.
	var tick, liveTick, ckptTick <-chan time.Time
	if *statusEvery > 0 {
		ticker := every(*statusEvery)
		defer ticker.Stop()
		tick = ticker.C
	}
	if liveness != nil {
		ticker := every(livenessEvery)
		defer ticker.Stop()
		liveTick = ticker.C
	}
	if checkpoint != nil {
		ticker := every(*checkpointInterval)
		defer ticker.Stop()
		ckptTick = ticker.C
	}
	for {
		select {
		case <-stop:
			fmt.Println("\npdmed: shutting down")
			shutdownHTTP(httpSrv)
			return 0
		case err := <-serverDied:
			fmt.Fprintln(os.Stderr, "pdmed:", err)
			return 1
		case <-ckptTick:
			if err := checkpoint(); err != nil {
				fmt.Fprintln(os.Stderr, "pdmed: checkpoint:", err)
			}
		case <-liveTick:
			liveness()
		case <-tick:
			status()
		}
	}
}

// every starts one of the run loop's cadences.
func every(d time.Duration) *time.Ticker {
	//lint:allow noclock daemon cadences (status block, liveness, checkpoint) are operational wall-clock intervals
	return time.NewTicker(d)
}

// printRecovery summarizes what the journal restored on boot.
func printRecovery(dir string, stats pdme.RecoveryStats) {
	line := fmt.Sprintf("pdmed: journal %s: ", dir)
	if stats.CheckpointLoaded {
		line += fmt.Sprintf("checkpoint@%d loaded", stats.CheckpointSeq)
	} else {
		line += "no checkpoint"
	}
	line += fmt.Sprintf(", replayed %d reports + %d heartbeats",
		stats.ReportsReplayed, stats.HeartbeatsReplayed)
	if stats.SkippedRecords > 0 {
		line += fmt.Sprintf(", %d records skipped", stats.SkippedRecords)
	}
	if stats.TornBytes > 0 {
		line += fmt.Sprintf(", %d torn bytes truncated", stats.TornBytes)
	}
	fmt.Println(line)
}

// shutdownHTTP drains the read-side server: stop accepting, give in-flight
// responses shutdownGrace to finish, then cut whatever is left (open /watch
// streams never finish on their own).
func shutdownHTTP(srv *http.Server) {
	if srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		_ = srv.Close()
	}
}

// keepAlive is a fusing node's liveness duty, owed on its own cadence whether
// or not a status block is printed: a shard heartbeats its aggregator, and a
// failed journal is reported until somebody restarts the daemon.
func keepAlive(node *mpros.Node) {
	if err := node.Heartbeat(); err != nil {
		fmt.Fprintln(os.Stderr, "pdmed: forwarder heartbeat:", err)
	}
	if err := node.PDME.JournalError(); err != nil {
		fmt.Fprintf(os.Stderr, "pdmed: journal: FAILED — %v (restart pdmed; senders keep their frames spooled)\n", err)
	}
}

// printStatus is the station and shard roles' status block.
func printStatus(node *mpros.Node) {
	engine := node.PDME
	items := engine.PrioritizedList()
	fmt.Printf("--- %s | %d reports received | %d duplicates suppressed | %d open conclusions ---\n",
		//lint:allow noclock status-line timestamp for the operator, not fed into fusion
		time.Now().Format(time.RFC3339), engine.ReceivedReports(), engine.DedupHits(), len(items))
	for i, it := range items {
		if i >= 10 {
			fmt.Printf("  ... %d more\n", len(items)-10)
			break
		}
		line := fmt.Sprintf("  %-28s %-38s Bel=%.3f Pl=%.3f reports=%d",
			it.Component, it.Condition, it.Belief, it.Plausibility, it.Reports)
		if it.HasPrognostic {
			line += fmt.Sprintf("  t(P=0.5)=%.1fd", it.TimeToHalf.Hours()/24)
		}
		if it.Degraded {
			line += fmt.Sprintf("  DEGRADED(rel=%.2f)", it.Reliability)
		}
		fmt.Println(line)
	}
	printHealth(engine)
	if fwd := node.Forwarder; fwd != nil {
		printForwarder(fwd)
	}
}

// printForwarder is the shard role's status line: conversion counters from
// the forwarder plus transport counters from its uplink.
func printForwarder(f *shard.Forwarder) {
	fc := f.Counters()
	c := f.Uplink()
	fmt.Printf("  forwarder: forwarded=%d skipped=%d errors=%d | sent=%d acked=%d dup=%d retried=%d pending=%d\n",
		fc.Forwarded, fc.Skipped, fc.Errors, c.Sent, c.Acked, c.DedupAcks, c.Retried, f.Pending())
}

// printAggregatorStatus is the -aggregator status block: global top-10 with
// shard provenance, then per-shard coverage.
func printAggregatorStatus(agg *shard.Aggregator) {
	cov := agg.Coverage()
	items := agg.GlobalRanked()
	fmt.Printf("--- %s | shards %d/%d live | %d pairs held | %d accepted | %d stale dropped | %d duplicates suppressed ---\n",
		//lint:allow noclock status-line timestamp for the operator, not fed into fusion
		time.Now().Format(time.RFC3339), cov.ShardsLive, cov.ShardsTotal,
		cov.HeldPairs, agg.Accepted(), agg.StaleDropped(), agg.DedupHits())
	for i, it := range items {
		if i >= 10 {
			fmt.Printf("  ... %d more\n", len(items)-10)
			break
		}
		line := fmt.Sprintf("  %-28s %-38s Bel=%.3f Pl=%.3f reports=%d via %s",
			it.Component, it.Condition, it.Belief, it.Plausibility, it.Reports, it.Shard)
		if it.HasPrognostic {
			line += fmt.Sprintf("  t(P=0.5)=%.1fd", it.TimeToHalf.Hours()/24)
		}
		if it.Degraded {
			line += fmt.Sprintf("  DEGRADED(rel=%.2f, shard %s)", it.Reliability, it.ShardState)
		}
		fmt.Println(line)
	}
	fmt.Println("  shard coverage:")
	for _, sc := range cov.Shards {
		line := fmt.Sprintf("    %-10s %-8s components=%d reliability=%.2f", sc.ID, sc.State, sc.Components, sc.Reliability)
		if !sc.InRing {
			line += " (not in ring: draining)"
		}
		fmt.Println(line)
	}
}

func printHealth(engine *pdme.PDME) {
	snap := engine.Health().Snapshot()
	if len(snap) == 0 {
		return
	}
	now := engine.Health().Now()
	fmt.Println("  fleet health:")
	for _, h := range snap {
		line := fmt.Sprintf("    %-10s %-8s", h.DCID, h.State)
		if h.LastSeen.IsZero() {
			line += " last-seen=never"
		} else {
			line += fmt.Sprintf(" last-seen=%s ago", now.Sub(h.LastSeen).Round(time.Second))
		}
		line += fmt.Sprintf(" spool=%d reliability=%.2f", h.SpoolDepth, h.Reliability)
		if h.RecentRestarts > 0 {
			line += fmt.Sprintf(" restarts=%d", h.RecentRestarts)
		}
		fmt.Println(line)
	}
}

func orMemory(path string) string {
	if path == "" {
		return "memory"
	}
	return path
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "pdmed:", err)
	return 1
}

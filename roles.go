package mpros

import (
	"errors"
	"net/http"
	"sync"
	"time"

	"repro/internal/historian"
	"repro/internal/oosm"
	"repro/internal/pdme"
	"repro/internal/proto"
	"repro/internal/serving"
	"repro/internal/shard"
)

// This file is the one place a PDME process role is assembled. Stations,
// networked fleets, pdmed (station and shard roles) and the kill-9 harness
// build their engine through OpenNode; pdmed's aggregator
// role builds through OpenAggregator. DESIGN.md "Process roles" has the
// order each constructor opens things in and the reason for every step's
// position.

// Node is a fusing PDME with everything it opened. Close releases all of it
// in reverse order of opening.
type Node struct {
	// PDME is the engine.
	PDME *pdme.PDME
	// Historian is the severity/lifetime store the engine writes to.
	Historian *historian.Store
	// Recovery summarizes what the journal restored (zero without one).
	Recovery pdme.RecoveryStats
	// Forwarder is the upward summary stream of a shard node (nil otherwise);
	// Resynced is how many recovered conclusions it re-announced at attach.
	Forwarder *ShardForwarder
	Resynced  int

	mu     sync.Mutex
	server *proto.Server
}

// OpenNode builds a fusing PDME node. The parameters are in the order the
// steps run: the historian (historianDir empty: in memory) opens first; the
// engine is built over it and a ship model in memory, which is working
// memory rebuilt at every start by populate and the journal; health (nil:
// liveness tracking only, no staleness discounting) and dedupWindow (0: the
// protocol default) are configured; populate (may be nil) creates the
// caller's own model objects; the journal (journal.Dir empty: no durability)
// is recovered; and forward (nil: not a shard) attaches the summary forwarder
// and resyncs what recovery rebuilt. Nothing listens yet: attach views, then
// call Serve. When any step fails, everything opened before it is closed
// again.
func OpenNode(historianDir string, health *HealthConfig, dedupWindow int,
	populate func(*oosm.Model) error, journal pdme.JournalOptions, forward *ShardForwarderConfig) (_ *Node, err error) {
	n := &Node{}
	defer func() {
		if err != nil {
			n.Close()
		}
	}()
	if n.Historian, err = historian.Open(historian.Options{Dir: historianDir}); err != nil {
		return nil, err
	}
	model, err := oosm.NewModel(nil)
	if err != nil {
		return nil, err
	}
	if n.PDME, err = pdme.NewWithHistorian(model, ChillerGroups(), n.Historian); err != nil {
		return nil, err
	}
	if health != nil {
		if err = n.PDME.ConfigureHealth(*health); err != nil {
			return nil, err
		}
	}
	if dedupWindow > 0 {
		n.PDME.ConfigureDedup(dedupWindow)
	}
	if populate != nil {
		if err = populate(model); err != nil {
			return nil, err
		}
	}
	if journal.Dir != "" {
		if n.Recovery, err = n.PDME.OpenJournal(journal); err != nil {
			return nil, err
		}
	}
	if forward != nil {
		if n.Forwarder, err = shard.Forward(n.PDME, *forward); err != nil {
			return nil, err
		}
		n.Resynced = n.Forwarder.Resync()
	}
	return n, nil
}

// Serve starts the node's report server on addr and returns the bound
// address (idle <= 0: the protocol's default per-connection deadline). Attach
// views first — a delivery in flight when the cache hook lands is not
// bracketed by it. The node owns the server: StopServer or Close ends it.
func (n *Node) Serve(addr string, idle time.Duration) (string, error) {
	if idle <= 0 {
		idle = proto.DefaultIdleTimeout
	}
	bound, server, err := n.PDME.ServeWithIdleTimeout(addr, idle)
	if err != nil {
		return "", err
	}
	n.mu.Lock()
	n.server = server
	n.mu.Unlock()
	return bound, nil
}

// Heartbeat sends a shard node's liveness beacon to its aggregator, stamped
// at the health registry's own notion of now — the event-time watermark by
// default (virtual-time fleets), the wall clock when one is configured — so
// shard liveness at the aggregator is judged on the same axis the evidence
// uses. A node that forwards nowhere, or has observed nothing yet, sends none.
func (n *Node) Heartbeat() error {
	if n.Forwarder == nil {
		return nil
	}
	at := n.PDME.Health().Now()
	if at.IsZero() {
		return nil
	}
	return n.Forwarder.Heartbeat(at)
}

// StopServer closes the report server, severing every connected sender;
// the engine and its dedup window live on, so a later Serve on the same
// address does not double-fuse what the senders replay.
func (n *Node) StopServer() error {
	n.mu.Lock()
	server := n.server
	n.server = nil
	n.mu.Unlock()
	if server == nil {
		return nil
	}
	return server.Close()
}

// Close stops the report server, detaches the forwarder, closes the engine
// (which writes the final checkpoint), then the historian. It is safe on a
// partly opened node.
func (n *Node) Close() error {
	errs := []error{n.StopServer()}
	if n.Forwarder != nil {
		errs = append(errs, n.Forwarder.Close())
	}
	if n.PDME != nil {
		n.PDME.Close()
	}
	if n.Historian != nil {
		errs = append(errs, n.Historian.Close())
	}
	return errors.Join(errs...)
}

// AggregatorNode is the global tier of a sharded fleet: an aggregator, the
// summary server its shards dial, and its read-side HTTP handler.
type AggregatorNode struct {
	Aggregator *Aggregator
	// Addr is the summary server's bound address.
	Addr string
	// Handler serves /ranked /belief /coverage.
	Handler http.Handler

	server *proto.Server
}

// OpenAggregator builds the aggregator role listening for shard summaries
// on listen. It holds no model and no journal: its state is a function of
// what the shards stream up. After a restart it holds only what arrives
// next: a shard's open-time Resync (so a shard that restarts re-announces
// every pair it holds) and later summaries. A shard that stays up sends no
// resync, so its already acknowledged pairs stay missing until their next
// report.
func OpenAggregator(cfg AggregatorConfig, listen string) (*AggregatorNode, error) {
	agg, err := shard.NewAggregator(cfg)
	if err != nil {
		return nil, err
	}
	addr, server, err := agg.Serve(listen)
	if err != nil {
		return nil, err
	}
	return &AggregatorNode{Aggregator: agg, Addr: addr, Handler: serving.AggregatorHandler(agg), server: server}, nil
}

// Close stops the summary server.
func (a *AggregatorNode) Close() error { return a.server.Close() }

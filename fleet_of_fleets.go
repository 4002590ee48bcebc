package mpros

import (
	"repro/internal/proto"
	"repro/internal/shard"
)

// This file is the facade of the hierarchical fleet-of-fleets tier
// (internal/shard): consistent-hash sharding of DCs across many shard
// PDMEs, upward summary forwarding, and the global aggregator with
// graceful per-shard degradation. See DESIGN.md "Hierarchical fleet". A
// shard PDME is an OpenNode with a forwarder config, the global tier an
// OpenAggregator (roles.go).

// Re-exported fleet-of-fleets types.
type (
	// ShardMember is one shard PDME in the ring (id + report address).
	ShardMember = shard.Member
	// ShardRing is the versioned deterministic DC→shard assignment.
	ShardRing = shard.Ring
	// ShardRouter is a DC-side shard-aware uplink with ring failover.
	ShardRouter = shard.Router
	// ShardRouterConfig parametrizes a ShardRouter.
	ShardRouterConfig = shard.RouterConfig
	// ShardForwarder streams a shard PDME's fused conclusions upward.
	ShardForwarder = shard.Forwarder
	// ShardForwarderConfig parametrizes a ShardForwarder.
	ShardForwarderConfig = shard.ForwarderConfig
	// Aggregator is the global tier fusing shard summaries.
	Aggregator = shard.Aggregator
	// AggregatorConfig parametrizes an Aggregator.
	AggregatorConfig = shard.AggregatorConfig
	// GlobalItem is one row of the aggregator's global ranked list.
	GlobalItem = shard.GlobalItem
	// CoverageReport is the aggregator's per-shard coverage metadata.
	CoverageReport = shard.CoverageReport
	// FusedSummary is the PDME→PDME wire envelope of fused state.
	FusedSummary = proto.FusedSummary
)

// NewShardRing builds a deterministic ring over shard members and the DC
// id population. Same inputs produce the identical assignment in every
// process.
func NewShardRing(members []ShardMember, dcids []string) (*ShardRing, error) {
	return shard.NewRing(members, dcids)
}

// NewShardRouter opens a DC-side router: reports spool locally and follow
// the ring, failing over to the successor when the assigned shard stalls.
func NewShardRouter(cfg ShardRouterConfig) (*ShardRouter, error) {
	return shard.NewRouter(cfg)
}

package mpros

import "repro/internal/shard"

// This file is the facade of the hierarchical fleet-of-fleets tier
// (internal/shard): consistent-hash sharding of DCs across many shard
// PDMEs, upward summary forwarding, and the global aggregator with
// graceful per-shard degradation. See DESIGN.md "Hierarchical fleet". A
// shard PDME is an OpenNode with a forwarder config, the global tier an
// OpenAggregator (roles.go).

// Re-exported fleet-of-fleets types.
type (
	// ShardForwarder streams a shard PDME's fused conclusions upward.
	ShardForwarder = shard.Forwarder
	// ShardForwarderConfig parametrizes a ShardForwarder.
	ShardForwarderConfig = shard.ForwarderConfig
	// Aggregator is the global tier fusing shard summaries.
	Aggregator = shard.Aggregator
	// AggregatorConfig parametrizes an Aggregator.
	AggregatorConfig = shard.AggregatorConfig
)

package iot

import (
	"fmt"
	"sync"
	"time"

	"ctjam/internal/env"
	"ctjam/internal/fault"
	"ctjam/internal/metrics"
	"ctjam/internal/parallel"
)

// EngineConfig parameterizes the sharded field engine: Clusters independent
// hopping clusters, each an instance of the Template network (Template.Nodes
// peripherals per cluster, so the field holds Clusters × Template.Nodes
// nodes in total). Workers bounds the parallel shards.
type EngineConfig struct {
	// Clusters is the number of independent hopping clusters.
	Clusters int
	// Template is the per-cluster network configuration. Template.Seed is
	// the base seed; cluster c derives its own RNG and fault streams from
	// it (cluster 0 uses the base seed unchanged, so a 1-cluster engine is
	// bit-identical to a Simulator built from Template).
	Template Config
	// Workers bounds the goroutines sharding the clusters (0 or negative
	// means GOMAXPROCS). Results are bit-identical at any worker count.
	Workers int
}

// Validate checks the engine configuration.
func (c EngineConfig) Validate() error {
	if c.Clusters < 1 {
		return fmt.Errorf("iot: engine needs at least 1 cluster, got %d", c.Clusters)
	}
	return c.Template.Validate()
}

// splitmix64 is the standard 64-bit finalizer used to derive independent
// per-cluster seed streams from the base seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// clusterSeed derives cluster c's seed from the base seed. Cluster 0 keeps
// the base seed unchanged — the identity that makes a 1-cluster engine
// reproduce the single-network Simulator bit-for-bit — and every other
// cluster gets a splitmix-decorrelated stream.
func clusterSeed(seed int64, c int) int64 {
	if c == 0 {
		return seed
	}
	return int64(splitmix64(uint64(seed) + uint64(c)*0x9e3779b97f4a7c15))
}

// Engine runs a field of independent hopping clusters sharded across
// workers. Each cluster owns its channel state, jammer clock, RNG stream,
// and fault stream; the engine only coordinates slot boundaries and merges
// counters, so execution is deterministic at any worker count.
//
// An Engine holds only its configuration: a cluster is a pure function of
// its index, so Run builds each one in its worker, on a cluster value (with
// its two generators) reused across runs. A field's working memory is
// therefore bounded by the worker count; only the per-cluster RunStats of
// the result grow with the cluster count.
type Engine struct {
	cfg EngineConfig
}

// NewEngine validates the field configuration. Cluster c runs with seed
// clusterSeed(Template.Seed, c); when fault injection is configured, cluster
// c > 0 additionally gets its own fault stream via fault.Scoped so the same
// injector spec yields decorrelated impairments per cluster.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg}, nil
}

// clusterConfig returns cluster i's network configuration.
func (e *Engine) clusterConfig(i int) Config {
	ccfg := e.cfg.Template
	ccfg.Seed = clusterSeed(ccfg.Seed, i)
	if ccfg.Faults != nil && i > 0 {
		ccfg.Faults = fault.Scoped{Inner: ccfg.Faults, Stream: int64(i)}
	}
	return ccfg
}

// clusterPool recycles cluster values, with their generators and scratch
// buffers, across the runs of every Engine. A worker takes one per cluster
// run; reset reseeds it in place, so no state crosses runs.
var clusterPool = sync.Pool{New: func() any { return new(cluster) }}

// Clusters returns the cluster count.
func (e *Engine) Clusters() int { return e.cfg.Clusters }

// Nodes returns the total peripheral-node count across the field.
func (e *Engine) Nodes() int { return e.cfg.Clusters * e.cfg.Template.Nodes }

// EngineStats aggregates one field run: per-cluster RunStats plus the
// field-wide totals. SlotDeliveries counts cluster-slots resolved
// (Clusters × Slots) — the unit of the engine's throughput benchmark.
type EngineStats struct {
	// Clusters and Nodes describe the field size.
	Clusters int
	Nodes    int
	// Slots is the number of Tx slots each cluster executed.
	Slots int
	// SlotDeliveries is Clusters × Slots.
	SlotDeliveries int
	// Attempted / Delivered / FrameLosses total the per-cluster packet
	// counts.
	Attempted   int
	Delivered   int
	FrameLosses int
	// GoodputPktsPerSlot is the field-wide goodput: total packets delivered
	// per Tx slot (summed over clusters).
	GoodputPktsPerSlot float64
	// MeanUtilization averages the per-cluster slot utilizations (all
	// clusters run the same slot count, so the unweighted mean is the
	// per-cluster-slot mean).
	MeanUtilization float64
	// MeanOverhead averages the per-cluster mean slot overheads.
	MeanOverhead time.Duration
	// Counters merges the per-cluster Table I counters.
	Counters metrics.Counters
	// PerCluster holds each cluster's own run statistics, indexed by
	// cluster.
	PerCluster []RunStats
}

// RunStats projects the field-wide statistics onto the single-network
// RunStats shape: totals for packet counts, the field-wide goodput, and the
// cluster-averaged utilization and overhead. A 1-cluster engine's projection
// is bit-identical to the Simulator's RunStats over the same Config.
func (s EngineStats) RunStats() RunStats {
	return RunStats{
		Slots:              s.Slots,
		Attempted:          s.Attempted,
		Delivered:          s.Delivered,
		FrameLosses:        s.FrameLosses,
		GoodputPktsPerSlot: s.GoodputPktsPerSlot,
		MeanUtilization:    s.MeanUtilization,
		MeanOverhead:       s.MeanOverhead,
		Counters:           s.Counters,
	}
}

// merge folds per-cluster runs into field-wide statistics.
func (e *Engine) merge(per []RunStats) EngineStats {
	out := EngineStats{
		Clusters:   len(per),
		Nodes:      e.Nodes(),
		Slots:      per[0].Slots,
		PerCluster: per,
	}
	out.SlotDeliveries = out.Clusters * out.Slots
	var util float64
	var ovh time.Duration
	for _, r := range per {
		out.Attempted += r.Attempted
		out.Delivered += r.Delivered
		out.FrameLosses += r.FrameLosses
		util += r.MeanUtilization
		ovh += r.MeanOverhead
		out.Counters.Add(r.Counters)
	}
	out.GoodputPktsPerSlot = float64(out.Delivered) / float64(out.Slots)
	out.MeanUtilization = util / float64(len(per))
	out.MeanOverhead = ovh / time.Duration(len(per))
	return out
}

// Run drives the whole field for the given number of Tx slots, building one
// agent per cluster via newAgent (called from worker goroutines; build
// agents from the cluster index only). Clusters run independently —
// full-run-per-shard — each through the same cluster.run loop a Simulator
// uses. Results are bit-identical at any worker count. The generator an
// agent receives through Reset belongs to the engine and is reused once
// the agent's cluster finishes, so agents must not draw from it after Run.
func (e *Engine) Run(newAgent func(cluster int) (env.Agent, error), slots int) (EngineStats, error) {
	if slots <= 0 {
		return EngineStats{}, fmt.Errorf("iot: slots %d must be positive", slots)
	}
	per := make([]RunStats, e.cfg.Clusters)
	workers := parallel.Workers(e.cfg.Workers, e.cfg.Clusters)
	err := parallel.ForEach(workers, e.cfg.Clusters, func(i int) error {
		agent, err := newAgent(i)
		if err != nil {
			return fmt.Errorf("iot: cluster %d agent: %w", i, err)
		}
		c := clusterPool.Get().(*cluster)
		c.cfg = e.clusterConfig(i)
		st, err := c.run(agent, slots)
		clusterPool.Put(c)
		if err != nil {
			return fmt.Errorf("iot: cluster %d: %w", i, err)
		}
		per[i] = st
		return nil
	})
	if err != nil {
		return EngineStats{}, err
	}
	return e.merge(per), nil
}

package core

import (
	"txconcur/internal/types"
)

// This file analyses the workload through the lens of Zilliqa-style network
// sharding (paper §II-B): transactions are assigned to committees by their
// *sender* address, each committee processes its share independently, and —
// as the paper highlights as a major limitation — "it does not support
// cross-shard transactions — ones that touch multiple committees".
//
// Two quantities follow. First, the cross-shard fraction: transactions
// whose receiver (or any internal-call target) lives on another shard;
// these are exactly the ones Zilliqa's design cannot process without
// additional machinery. Second, the per-shard conflict rates: sharding
// partitions each block's TDG, so the intra-shard concurrency can differ
// from the global one.

// fnvOffset and fnvPrime are the FNV-1a 64-bit parameters.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// ShardOf maps an address to one of n shards, as Zilliqa assigns accounts
// to committees. The full address is mixed through FNV-1a before the
// reduction: taking the leading 8 bytes directly skews the assignment for
// structured or low-entropy addresses (e.g. counter-derived test addresses
// whose leading bytes are constant, which would all land on one shard), and
// plain truncation interacts badly with non-power-of-two n. The sharded
// execution engine (internal/exec.Sharded) partitions its state by exactly
// this function.
func ShardOf(a types.Address, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint64(fnvOffset)
	for _, b := range a {
		h ^= uint64(b)
		h *= fnvPrime
	}
	return int(h % uint64(n))
}

// ShardingReport summarises a sharded view of one block (or window).
type ShardingReport struct {
	// Shards is the committee count n.
	Shards int
	// Txs is the number of regular transactions.
	Txs int
	// CrossShard is the number of transactions whose receiver or any
	// internal-call endpoint is on a different shard than the sender.
	CrossShard int
	// PerShard holds the metrics of each shard's intra-shard sub-block
	// (cross-shard transactions excluded, as Zilliqa cannot process them).
	PerShard []Metrics
}

// CrossRate returns the cross-shard transaction fraction.
func (r ShardingReport) CrossRate() float64 {
	if r.Txs == 0 {
		return 0
	}
	return float64(r.CrossShard) / float64(r.Txs)
}

// IntraShardMetrics aggregates the per-shard metrics into one (weighted by
// transaction count, as the paper weights blocks).
func (r ShardingReport) IntraShardMetrics() Metrics {
	var agg Metrics
	for _, m := range r.PerShard {
		agg.NumTxs += m.NumTxs
		agg.NumInternal += m.NumInternal
		agg.Conflicted += m.Conflicted
		if m.LCC > agg.LCC {
			agg.LCC = m.LCC
		}
		agg.Components += m.Components
		agg.GasUsed += m.GasUsed
		agg.ConflictedGas += m.ConflictedGas
		if m.LCCGas > agg.LCCGas {
			agg.LCCGas = m.LCCGas
		}
	}
	return agg
}

// ShardAccountView assigns the view's transactions to n sender-based shards
// and measures each shard's intra-shard sub-block. A transaction counts as
// cross-shard when its receiver, or any endpoint of one of its internal
// transactions, is on a different shard than its sender; internal edges are
// attributed to transactions by matching the internal transaction's
// position (internal calls belong to the preceding regular transaction in
// view order, as ViewFromReceipts emits them).
func ShardAccountView(v *AccountBlockView, receiptsInternal [][]AccountEdge, n int) ShardingReport {
	rep := ShardingReport{Shards: n, Txs: len(v.Regular), PerShard: make([]Metrics, n)}
	shardViews := make([]*AccountBlockView, n)
	for i := range shardViews {
		shardViews[i] = &AccountBlockView{}
	}
	for i, e := range v.Regular {
		shard := ShardOf(e.From, n)
		cross := ShardOf(e.To, n) != shard
		var internal []AccountEdge
		if i < len(receiptsInternal) {
			internal = receiptsInternal[i]
			for _, ie := range internal {
				if ShardOf(ie.From, n) != shard || ShardOf(ie.To, n) != shard {
					cross = true
				}
			}
		}
		if cross {
			rep.CrossShard++
			continue
		}
		sv := shardViews[shard]
		sv.Regular = append(sv.Regular, e)
		sv.Internal = append(sv.Internal, internal...)
		if i < len(v.GasUsed) {
			sv.GasUsed = append(sv.GasUsed, v.GasUsed[i])
		}
	}
	for s, sv := range shardViews {
		if len(sv.GasUsed) != len(sv.Regular) {
			sv.GasUsed = nil
		}
		rep.PerShard[s] = MeasureAccountView(sv)
	}
	return rep
}

// InternalByTx regroups a flat view's internal edges per regular
// transaction using the receipts that produced them.
type InternalByTx = [][]AccountEdge

// ComponentCensus buckets a TDG's component sizes the way the paper's
// Figure 1 discussion counts them ("4 connected components, namely 3 of
// size 1 and 1 of size 2"): singletons, small (2–5), medium (6–20) and
// large (>20) components, with the share of transactions in each class.
type ComponentCensus struct {
	Singleton, Small, Medium, Large             int
	TxsSingleton, TxsSmall, TxsMedium, TxsLarge int
}

// Census computes the component census of a TDG.
func (t *TDG) Census() ComponentCensus {
	var c ComponentCensus
	for _, size := range t.ComponentTxCount {
		switch {
		case size == 0:
		case size == 1:
			c.Singleton++
			c.TxsSingleton += size
		case size <= 5:
			c.Small++
			c.TxsSmall += size
		case size <= 20:
			c.Medium++
			c.TxsMedium += size
		default:
			c.Large++
			c.TxsLarge += size
		}
	}
	return c
}

// Add accumulates another census (for whole-history aggregation).
func (c *ComponentCensus) Add(o ComponentCensus) {
	c.Singleton += o.Singleton
	c.Small += o.Small
	c.Medium += o.Medium
	c.Large += o.Large
	c.TxsSingleton += o.TxsSingleton
	c.TxsSmall += o.TxsSmall
	c.TxsMedium += o.TxsMedium
	c.TxsLarge += o.TxsLarge
}

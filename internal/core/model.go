package core

import (
	"errors"
	"fmt"
	"math"
)

// This file implements the paper's execution speed-up model (§V). The model
// assumes every transaction in a block costs one time unit, so the
// sequential execution time of a block with x transactions is T = x.
//
// Two families of estimates are provided:
//
//   - Single-transaction concurrency (§V-A), modelling the speculative
//     two-phase scheme of Saraph & Herlihy [17]: execute everything in
//     parallel, then re-execute the conflicted transactions sequentially.
//   - Group concurrency (§V-B), scheduling whole connected components, whose
//     sequential floor is the largest component.

// ErrModelDomain reports parameters outside the model's domain.
var ErrModelDomain = errors.New("core: speed-up model parameter out of domain")

func checkDomain(x, n int, rate float64) error {
	if x < 0 {
		return fmt.Errorf("%w: x = %d", ErrModelDomain, x)
	}
	if n < 1 {
		return fmt.Errorf("%w: n = %d", ErrModelDomain, n)
	}
	if rate < 0 || rate > 1 {
		return fmt.Errorf("%w: rate = %g", ErrModelDomain, rate)
	}
	return nil
}

// SpeculativeSpeedup evaluates the paper's equation (1) exactly as printed:
//
//	R = x / (⌊x/n⌋ + 1 + c·x)
//
// where x is the number of transactions, c the single-transaction conflict
// rate and n the number of cores. The first phase executes all transactions
// concurrently (⌊x/n⌋+1 time units), the second re-executes the c·x
// conflicted ones sequentially. R < 1 means parallel execution would be
// slower than sequential — the regime the paper highlights for high conflict
// rates and few cores.
func SpeculativeSpeedup(x int, c float64, n int) (float64, error) {
	if err := checkDomain(x, n, c); err != nil {
		return 0, err
	}
	if x == 0 {
		return 1, nil
	}
	tPrime := float64(x/n) + 1 + c*float64(x)
	return float64(x) / tPrime, nil
}

// SpeculativeSpeedupExact evaluates the same two-phase scheme with the exact
// first-phase duration ⌈x/n⌉ instead of the ⌊x/n⌋+1 upper bound. This is
// the refinement the paper applies in its §V-A worked examples (e.g. block
// 1000007: 5 transactions, n ≥ 5, speed-up 5/3) and describes in prose as
// "a further mild improvement ... if ⌊x/n⌋ < x/n".
func SpeculativeSpeedupExact(x int, c float64, n int) (float64, error) {
	if err := checkDomain(x, n, c); err != nil {
		return 0, err
	}
	if x == 0 {
		return 1, nil
	}
	phase1 := math.Ceil(float64(x) / float64(n))
	// The conflicted transactions are an integer count in the worked
	// examples; keep the rate-based form for continuity with eq. (1).
	tPrime := phase1 + c*float64(x)
	return float64(x) / tPrime, nil
}

// PerfectInfoSpeedup evaluates the paper's perfect-information variant of
// equation (1): with a priori knowledge of the conflict set (obtained by a
// pre-processing step costing K time units), only the (1−c)·x unconflicted
// transactions run in the parallel phase and nothing is executed twice:
//
//	R = x / (K + ⌊(1−c)·x/n⌋ + 1 + c·x)
func PerfectInfoSpeedup(x int, c float64, n int, k float64) (float64, error) {
	if err := checkDomain(x, n, c); err != nil {
		return 0, err
	}
	if k < 0 {
		return 0, fmt.Errorf("%w: K = %g", ErrModelDomain, k)
	}
	if x == 0 {
		return 1, nil
	}
	parallel := math.Floor((1-c)*float64(x)/float64(n)) + 1
	tPrime := k + parallel + c*float64(x)
	return float64(x) / tPrime, nil
}

// GroupSpeedup evaluates the paper's equation (2): the maximum potential
// speed-up from scheduling whole connected components on n cores, where l is
// the group conflict rate (relative LCC size):
//
//	R = min(n, 1/l)
//
// With unbounded cores each component gets its own core and the makespan is
// the LCC; with n cores the speed-up cannot exceed n.
func GroupSpeedup(n int, l float64) (float64, error) {
	if err := checkDomain(0, n, l); err != nil {
		return 0, err
	}
	if l == 0 {
		// No conflicts at all: bounded only by the core count.
		return float64(n), nil
	}
	return math.Min(float64(n), 1/l), nil
}

// GroupSpeedupWithCost evaluates the refined group estimate including the
// TDG-construction cost K (paper §V-B):
//
//	R = min( x/(x/n + K), x/(L + K) )
//
// where L = l·x is the absolute LCC size. The paper prints x/l in the second
// denominator; dimensional analysis (and the surrounding definition of the
// sequential floor as the LCC) indicates the intended quantity is the
// absolute LCC size L, since x/l ≥ x would be slower than sequential. See
// DESIGN.md §1.
func GroupSpeedupWithCost(x int, l float64, n int, k float64) (float64, error) {
	if err := checkDomain(x, n, l); err != nil {
		return 0, err
	}
	if k < 0 {
		return 0, fmt.Errorf("%w: K = %g", ErrModelDomain, k)
	}
	if x == 0 {
		return 1, nil
	}
	bigL := l * float64(x)
	if bigL < 1 {
		bigL = 1 // at least one transaction must execute
	}
	coreBound := float64(x) / (float64(x)/float64(n) + k)
	lccBound := float64(x) / (bigL + k)
	return math.Min(coreBound, lccBound), nil
}

// PipelineSpeedup models the steady-state throughput of the two-phase
// pipelined engine (internal/exec.Sharded with one shard): per block,
// phase 1 executes all x transactions speculatively in ⌈x/n⌉ units on n
// cores and phase 2 re-executes the c·x conflicted ones sequentially; with
// phase 1 of block b+1 overlapping phase 2 of block b, a long chain
// completes one block every max(⌈x/n⌉, c·x) units, so
//
//	R = x / max(⌈x/n⌉, c·x)
//
// Compare with equation (1): the speculative engine pays ⌈x/n⌉ + c·x per
// block because its two phases cannot overlap across blocks. The pipeline
// hides the cheaper phase entirely, which is why its speed-up is not
// bounded by a single global commit lock.
func PipelineSpeedup(x int, c float64, n int) (float64, error) {
	if err := checkDomain(x, n, c); err != nil {
		return 0, err
	}
	if x == 0 {
		return 1, nil
	}
	perBlock := math.Ceil(float64(x) / float64(n))
	if reexec := c * float64(x); reexec > perBlock {
		perBlock = reexec
	}
	return float64(x) / perBlock, nil
}

// ShardedSpeedup models the sharded engine (internal/exec.Sharded) with s
// committees on n cores: phase 1 executes all x transactions across the
// per-shard pipelines in ⌈x/n⌉ units; the shard-local bins re-execute in
// parallel across shards, costing c·(1−χ)·x/s units on the busiest shard
// (c is the single-transaction conflict rate, χ the cross-shard fraction);
// and the deterministic cross-shard merge re-executes its aborted share
// a·χ·x sequentially:
//
//	R = x / (⌈x/n⌉ + c·(1−χ)·x/s + a·χ·x)
//
// With a = 1 (every cross-shard transaction re-executes — the key-level
// worst case on a hot shard) the merge dominates exactly as E9 measures;
// with a = 0 (all staged results validate, the commutative-delta limit)
// sharding divides the bin cost by s and the model approaches the
// speculative engine with an s-way parallel phase 2.
func ShardedSpeedup(x int, c, cross float64, n, s int, abortRate float64) (float64, error) {
	if err := checkDomain(x, n, c); err != nil {
		return 0, err
	}
	if cross < 0 || cross > 1 {
		return 0, fmt.Errorf("%w: cross = %g", ErrModelDomain, cross)
	}
	if abortRate < 0 || abortRate > 1 {
		return 0, fmt.Errorf("%w: abort rate = %g", ErrModelDomain, abortRate)
	}
	if s < 1 {
		return 0, fmt.Errorf("%w: shards = %d", ErrModelDomain, s)
	}
	if x == 0 {
		return 1, nil
	}
	tPrime := math.Ceil(float64(x)/float64(n)) +
		c*(1-cross)*float64(x)/float64(s) +
		abortRate*cross*float64(x)
	return float64(x) / tPrime, nil
}

// ShardedPipelineSpeedup models the pipelined sharded engine
// (internal/exec.Sharded.ExecuteChain) with s committees on n cores: the
// per-shard speculative phase 1 of block b+1 overlaps the cross-shard
// commit of block b (the two-machine flow shop of the mvstore pipeline),
// and the merge re-executes its aborted share in parallel waves of
// key-disjoint transactions instead of one-by-one. In steady state a long
// chain completes one block every
//
//	max( ⌈x/n⌉ , c·(1−χ)·x/s + a·χ·x/n )
//
// units — the speculative spread hides behind the ordered stage or vice
// versa, and the merge term a·χ·x is divided by the worker count because
// the waves run its re-executions n at a time (fully dependent aborts
// degenerate to waves of one, which the per-block ShardedSpeedup models).
// Compare ShardedSpeedup, which pays ⌈x/n⌉ + c·(1−χ)·x/s + a·χ·x per block:
// the pipeline hides the cheaper stage entirely and the parallel merge
// divides the sequential tail E9 measures by up to n.
func ShardedPipelineSpeedup(x int, c, cross float64, n, s int, abortRate float64) (float64, error) {
	if err := checkDomain(x, n, c); err != nil {
		return 0, err
	}
	if cross < 0 || cross > 1 {
		return 0, fmt.Errorf("%w: cross = %g", ErrModelDomain, cross)
	}
	if abortRate < 0 || abortRate > 1 {
		return 0, fmt.Errorf("%w: abort rate = %g", ErrModelDomain, abortRate)
	}
	if s < 1 {
		return 0, fmt.Errorf("%w: shards = %d", ErrModelDomain, s)
	}
	if x == 0 {
		return 1, nil
	}
	spread := math.Ceil(float64(x) / float64(n))
	ordered := c*(1-cross)*float64(x)/float64(s) +
		abortRate*cross*float64(x)/float64(n)
	perBlock := spread
	if ordered > perBlock {
		perBlock = ordered
	}
	return float64(x) / perBlock, nil
}

// BlockSpeedups evaluates all model variants for one measured block.
type BlockSpeedups struct {
	// Speculative is equation (1) with the block's single-transaction
	// conflict rate.
	Speculative float64
	// SpeculativeExact is the ⌈x/n⌉ refinement used in the worked
	// examples.
	SpeculativeExact float64
	// PerfectInfo is the perfect-information variant with K = 0.
	PerfectInfo float64
	// Group is equation (2) with the block's group conflict rate.
	Group float64
}

// SpeedupsForBlock applies the full model to one block's metrics on n cores.
func SpeedupsForBlock(m Metrics, n int) (BlockSpeedups, error) {
	var out BlockSpeedups
	var err error
	if out.Speculative, err = SpeculativeSpeedup(m.NumTxs, m.SingleRate(), n); err != nil {
		return out, err
	}
	if out.SpeculativeExact, err = SpeculativeSpeedupExact(m.NumTxs, m.SingleRate(), n); err != nil {
		return out, err
	}
	if out.PerfectInfo, err = PerfectInfoSpeedup(m.NumTxs, m.SingleRate(), n, 0); err != nil {
		return out, err
	}
	if out.Group, err = GroupSpeedup(n, m.GroupRate()); err != nil {
		return out, err
	}
	return out, nil
}

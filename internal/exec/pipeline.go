package exec

import (
	"txconcur/internal/account"
	"txconcur/internal/types"
)

// Pipeline is the two-phase pipelined engine: phase 1 executes every
// transaction of a block optimistically against a multi-version snapshot,
// recording read/write sets; phase 2 validates in block order and
// re-executes only the transactions whose reads went stale. Because the
// state cache is multi-version (package mvstore), phase 1 of block b+1 runs
// concurrently with phase 2 of block b — the Octopus-style design that
// overlaps execution and validation across blocks instead of serialising
// every block on one global commit lock.
//
// Pipeline is the one-shard sharded chain: ExecuteChain is
// Sharded{Shards: 1}.ExecuteChain with the same Workers, Depth, OpLevel and
// Cost. With one shard every transaction is intra-shard, so phase 2 is the
// sharded engine's shard-local validator alone and the cross-shard commit
// never runs.
//
// Unlike Speculative (whose conflicted bin re-executes *after* a barrier
// over the whole block, with a full sequential fallback when phase 2
// invalidates a winner) the pipeline validates and repairs per transaction
// at its commit point, so an intra-block conflict costs exactly one
// re-execution, and cross-block staleness — the price of running ahead —
// is detected by per-key version checks rather than a global clock.
//
// Serial equivalence: phase 2 accepts a phase-1 result only if none of its
// read keys were written by an earlier transaction of the same block nor by
// any block committed after its snapshot; accepted results therefore equal
// their sequential execution, and rejected transactions re-execute against
// the exact sequential prefix state. The regression tests enforce receipt
// and state-root equality with Sequential on every chainsim profile.
type Pipeline struct {
	// Workers is the core count n used by phase 1 and for schedule-length
	// accounting.
	Workers int
	// Depth is the buffer between the phases: phase 1 may hold Depth
	// completed blocks awaiting validation, plus the one it is currently
	// executing. Block i speculates against the fixed-lag timestamp
	// max(0, i−Depth−1), the newest state the channel backpressure
	// guarantees is committed, so snapshots are up to Depth+1 blocks stale
	// and re-execution counts and ParUnits depend on the workload only,
	// never on scheduler timing. 0 means 1. Deeper lookahead buys more
	// overlap at the price of staler snapshots (more re-executions).
	Depth int
	// OpLevel records balance credits/debits as commutative deltas: blind
	// credits carry no read of the hot key, so they neither fail validation
	// when another transaction (or a previously committed block) credited
	// the same account, nor invalidate later blind credits. Blocks commit
	// delta writes to the multi-version cache as mvstore.DeltaAdd versions,
	// which merge at read time instead of superseding each other; an
	// explicit balance read still materialises every committed delta and
	// re-establishes the dependency.
	OpLevel bool
	// Cost overrides the per-transaction schedule weight used for the
	// GasSeq/GasPar accounting; nil charges the receipt's gas.
	Cost CostModel
}

// BlockStats describes a chain engine's work on one block.
type BlockStats struct {
	// Txs is the number of transactions in the block.
	Txs int
	// Reexecuted is how many of them failed validation (stale reads,
	// intra-block conflicts, or phase-1 envelope failures) and were
	// re-executed serially in phase 2.
	Reexecuted int
}

// ChainResult is the outcome of executing a sequence of blocks through a
// chain engine.
type ChainResult struct {
	// Receipts holds the per-block, per-transaction receipts in order.
	Receipts [][]*account.Receipt
	// Root is the state root after the last block.
	Root types.Hash
	// Stats aggregates the whole chain under the paper's unit-cost model;
	// ParUnits is the two-stage flow-shop makespan (phase 1 of block b+1
	// overlapping phase 2 of block b).
	Stats Stats
	// Blocks holds per-block counters.
	Blocks []BlockStats
}

// Execute runs a single block through the pipeline (engine-interface
// parity with the other executors; with one block there is nothing to
// overlap, so this degenerates to optimistic execution plus in-order
// validation). st is mutated on success.
func (e Pipeline) Execute(st *account.StateDB, blk *account.Block) (*Result, error) {
	cr, err := e.ExecuteChain(st, []*account.Block{blk})
	if err != nil {
		return nil, err
	}
	return &Result{Receipts: cr.Receipts[0], Root: cr.Root, Stats: cr.Stats}, nil
}

// ExecuteChain executes blocks in order on st (mutated on success), with
// phase 1 of later blocks overlapping phase 2 of earlier ones.
func (e Pipeline) ExecuteChain(st *account.StateDB, blocks []*account.Block) (*ChainResult, error) {
	cr, _, err := Sharded{Workers: e.Workers, Shards: 1, Depth: e.Depth, OpLevel: e.OpLevel, Cost: e.Cost}.ExecuteChain(st, blocks)
	return cr, err
}

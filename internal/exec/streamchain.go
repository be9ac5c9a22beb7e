package exec

import (
	"time"

	"txconcur/internal/account"
)

// ExecuteChainStream is the sharded engine's chain driver: ExecuteChain
// feeds it a slice and Execute a single block, and the streaming
// block-builder service feeds it live. Blocks are consumed from the
// channel as the producer closes them, the per-shard speculative phase 1
// of a later block overlapping the cross-shard commit of an earlier one;
// the stream ends when the channel is closed (a nil block also ends it,
// defensively — ExecuteChain rejects nil blocks up front). st is mutated on
// success, after every streamed block has committed.
//
// onCommit, if non-nil, fires synchronously after each block's writes are
// durable on every shard — the hook the builder service uses to record
// submit → committed latency. idx is the block's chain-wide index (0-based
// in stream order). onCommit runs on the committer goroutine: a slow
// callback stalls the commit stage (though phase 1 keeps speculating up to
// Depth blocks ahead).
//
// Determinism: the fixed-lag snapshot discipline runs on chain positions,
// never on producer timing, so feeding the same block sequence through a
// channel — however bursty — produces the same root, receipts,
// re-execution counts and schedule stats as a pre-filled one
// (ExecuteChain). The streaming tests pin that equivalence.
//
// On error the committer aborts and the speculative stage stops reading the
// channel at once, closed or not; the caller owns stopping its producers
// (the builder does so via its context).
func (e Sharded) ExecuteChainStream(st *account.StateDB, blocks <-chan *account.Block,
	onCommit func(idx int, blk *account.Block, receipts []*account.Receipt)) (*ChainResult, *ChainShardStats, error) {
	if e.Workers < 1 {
		return nil, nil, ErrNoWorkers
	}
	//txlint:clock wall-clock timing metric for reported stats only; committed state never depends on it
	start := time.Now()
	c := e.newShardedChain(st)
	c.startCheckpoints(e.Checkpoint)
	if err := e.runShardedChain(c, blocks, onCommit); err != nil {
		c.closeCheckpoints()
		return nil, nil, err
	}
	return e.finishChain(c, start)
}

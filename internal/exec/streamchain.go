package exec

import (
	"time"

	"txconcur/internal/account"
	"txconcur/internal/core"
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
// Determinism: the fixed-lag snapshot discipline runs on epoch-relative
// block positions, never on producer timing, so feeding the same block
// sequence through a channel — however bursty — produces the same root,
// receipts, re-execution counts and schedule stats as a pre-filled one
// (ExecuteChain). The streaming tests pin that equivalence.
//
// With an adaptive map and RebalanceEvery > 0 the stream is segmented into
// epochs of RebalanceEvery blocks. The map rebalances only between epochs,
// never after the last block, so at each boundary the driver blocks reading
// one look-ahead block before migrating; a closed channel instead ends the
// chain with no trailing rebalance.
//
// On error the committer aborts and the speculative stage stops reading the
// channel; the caller owns stopping its producers (the builder does so via
// its context).
func (e Sharded) ExecuteChainStream(st *account.StateDB, blocks <-chan *account.Block,
	onCommit func(idx int, blk *account.Block, receipts []*account.Receipt)) (*ChainResult, *ChainShardStats, error) {
	if e.Workers < 1 {
		return nil, nil, ErrNoWorkers
	}
	m := e.shardMap()
	//txlint:clock wall-clock timing metric for reported stats only; committed state never depends on it
	start := time.Now()

	am, adaptive := m.(core.AdaptiveShardMap)
	// A streamed chain has no known length: without rebalancing the whole
	// stream is one epoch (epochLen caps nothing), with rebalancing the
	// boundary falls every RebalanceEvery blocks.
	epochLen := int(^uint(0) >> 1)
	if adaptive && e.RebalanceEvery > 0 {
		epochLen = e.RebalanceEvery
	}
	if epochLen < 1 {
		epochLen = 1
	}

	c := e.newShardedChain(st, m)
	c.startCheckpoints(e.Checkpoint)
	var pushback *account.Block
	for {
		src := func(rel int, quit <-chan struct{}) (*account.Block, bool) {
			if rel >= epochLen {
				return nil, false
			}
			if pushback != nil {
				b := pushback
				pushback = nil
				return b, true
			}
			//txlint:clock receive-vs-quit arbitration; block order is the channel's FIFO order whichever case fires
			select {
			case b, ok := <-blocks:
				if !ok || b == nil {
					return nil, false
				}
				return b, true
			case <-quit:
				return nil, false
			}
		}
		n, err := e.runShardedEpoch(c, src, am, onCommit)
		if err != nil {
			c.closeCheckpoints()
			return nil, nil, err
		}
		if n < epochLen {
			// The stream closed mid-epoch: no rebalance after the last
			// block.
			break
		}
		// Epoch boundary: peek one block ahead (blocking — the pipeline is
		// drained, nothing else is in flight) to learn whether the chain
		// continues before paying for a rebalance.
		b, ok := <-blocks
		if !ok || b == nil {
			break
		}
		pushback = b
		if adaptive && e.RebalanceEvery > 0 {
			e.migrateShards(c, am.Rebalance())
		}
	}
	return e.finishChain(c, start)
}

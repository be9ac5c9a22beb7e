package exec

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"txconcur/internal/account"
	"txconcur/internal/basestore"
	"txconcur/internal/core"
	"txconcur/internal/mvstore"
	"txconcur/internal/types"
)

// This file composes the sharded engine with the mvstore pipeline: across a
// chain of blocks, the per-shard speculative phase 1 of block b+1 overlaps
// the deterministic cross-shard commit of block b. Each shard owns a
// persistent multi-version store holding exactly the keys of its addresses
// (core.ShardOf); the chain's i-th block commits its writes, partitioned by
// owner, to every shard's store at logical timestamp i+1, and phase 1
// speculates against per-shard snapshots pinned at the deterministic
// fixed-lag timestamp, so re-execution counts and ParUnits depend only on
// the workload, never on scheduler timing.

// BlockStats describes the chain engine's work on one block.
type BlockStats struct {
	// Txs is the number of transactions in the block.
	Txs int
	// Reexecuted is how many of them failed validation (stale reads,
	// intra-block conflicts, or phase-1 envelope failures) and were
	// re-executed.
	Reexecuted int
}

// ChainResult is the outcome of executing a sequence of blocks through the
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

// ChainShardStats aggregates the sharding counters of a chain executed by
// Sharded, per block and in total.
type ChainShardStats struct {
	// Blocks holds each block's ShardStats, in chain order.
	Blocks []ShardStats
	// Cross, CrossAborts, Repairs, MergeWaves, MergeUnits and BatchedStage
	// sum the per-block counters; FallbackBlocks counts blocks whose
	// repair suffix was the whole block.
	Cross, CrossAborts, Repairs  int
	MergeWaves, MergeUnits       int
	BatchedStage, FallbackBlocks int
	// Checkpoints counts change sets handed to the engine's
	// CheckpointSink; CheckpointsSkipped counts commit points not handed
	// over because the async worker was still busy (the commit path never
	// waits). A skipped point loses nothing: its keys stay pending and
	// ride in the next delivered change set. Both zero without a sink.
	Checkpoints        int
	CheckpointsSkipped int
	// Evicted counts version chains the committer moved from the per-shard
	// caches to the state backend; ColdReads counts reads the backend
	// served after their key was evicted. Both zero without a Backend.
	Evicted   int
	ColdReads int
}

// add folds one block's counters into the aggregate.
func (c *ChainShardStats) add(ss *ShardStats) {
	c.Blocks = append(c.Blocks, *ss)
	c.Cross += ss.Cross
	c.CrossAborts += ss.CrossAborts
	c.Repairs += ss.Repairs
	c.MergeWaves += ss.MergeWaves
	c.MergeUnits += ss.MergeUnits
	c.BatchedStage += ss.BatchedStage
	if ss.Fallback {
		c.FallbackBlocks++
	}
}

// shardedSpecBlock carries one block's phase-1 output from the speculative
// stage to the cross-shard committer. pos is the block's position in the
// chain (the fixed-lag clock runs on chain positions).
type shardedSpecBlock struct {
	pos    int
	blk    *account.Block
	spec   *shardedSpec
	snaps  []*mvstore.Snapshot[StateKey, stateVal]
	specTS uint64
}

func (sb *shardedSpecBlock) release() {
	for _, sn := range sb.snaps {
		sn.Release()
	}
}

// shardedChain is the mutable state of one chain run: the per-shard
// stores, the checkpoint plumbing, and the chain-level accumulators.
type shardedChain struct {
	st  *account.StateDB
	mvs []*mvstore.Store[StateKey, stateVal]
	// bs is the speculative base every snapState falls through to: st
	// itself, or — with a configured Backend — bst, which reads the disk
	// base layer before st. budget is the per-shard eviction target.
	bs     baseState
	bst    *backedState
	budget int

	// all and blockStats grow by append as blocks commit (strictly in
	// order); a streamed chain has no known length.
	all        [][]*account.Receipt
	blockStats []BlockStats
	css        *ChainShardStats
	// Chain-level schedule totals: the flow-shop makespans over every
	// block, and the sequential and conflict counters.
	parUnits, seqUnits  int
	gasParUnits         uint64
	gasSeq              uint64
	conflicted, retries int

	// Async checkpointing (see checkpoint.go): the committer collects the
	// keys each block commits in dirty (first-commit order, deduplicated
	// by dirtySeen) and enqueues them with a pinned commit point every
	// ckptEvery blocks; the worker resolves them into a change set for
	// the engine's CheckpointSink. ckptCh nil when checkpointing is off.
	// evictSeq is odd while evictShards persists and drops chains, so the
	// worker can tell a resolve that raced an eviction.
	ckptCh    chan ckptReq
	ckptWG    sync.WaitGroup
	ckptOnce  sync.Once
	ckptEvery int
	dirty     []StateKey
	dirtySeen map[StateKey]struct{}
	evictSeq  atomic.Uint64
}

// ExecuteChain executes blocks in order on st (mutated on success), with
// the per-shard speculative phase 1 of later blocks overlapping the
// cross-shard commit of earlier ones — the composition of the sharded
// engine with the mvstore pipeline that converts the merge's sequential
// tail from a per-block barrier into pipelined work.
//
// The slice is fed to ExecuteChainStream through a pre-filled, closed
// channel, so the batch and streamed chains share one driver. A nil block
// is an error, not the end of the chain.
//
// Nothing touches st until every block has committed, so the speculative
// stage can read it lock-free; each shard's newest values are folded into
// st once at the end. Serial equivalence (state roots and receipts against
// Sequential) is enforced by the regression and fuzz suites on every
// profile, shard count and conflict mode.
func (e Sharded) ExecuteChain(st *account.StateDB, blocks []*account.Block) (*ChainResult, *ChainShardStats, error) {
	ch := make(chan *account.Block, len(blocks))
	for i, blk := range blocks {
		if blk == nil {
			return nil, nil, fmt.Errorf("exec: sharded chain: block %d is nil", i)
		}
		ch <- blk
	}
	close(ch)
	return e.ExecuteChainStream(st, ch, nil)
}

// newShardedChain builds the chain accumulator with one fresh multi-version
// store per shard.
func (e Sharded) newShardedChain(st *account.StateDB) *shardedChain {
	shards := e.Shards
	if shards < 1 {
		shards = 1
	}
	c := &shardedChain{
		st:  st,
		mvs: make([]*mvstore.Store[StateKey, stateVal], shards),
		css: &ChainShardStats{},
	}
	for sh := range c.mvs {
		c.mvs[sh] = mvstore.NewStoreDelta[StateKey, stateVal](mergeStateVal)
	}
	c.bs = st
	if e.Backend != nil {
		c.bst = &backedState{st: st, be: e.Backend}
		c.bs = c.bst
		c.budget = e.CacheBudget
	}
	return c
}

// finishChain folds every shard's newest values into the caller's state
// database; the shards hold disjoint key sets, so the order is immaterial.
func (e Sharded) finishChain(c *shardedChain, start time.Time) (*ChainResult, *ChainShardStats, error) {
	// The checkpoint worker reads c.st as its immutable base; stop it
	// before mutating.
	c.closeCheckpoints()
	// Base layer first, per-shard caches second: cache chains are strictly
	// newer than the base values their keys evicted to, so the cache fold
	// wins per key.
	if c.bst != nil {
		err := c.bst.Err()
		if err == nil {
			err = foldBackendInto(c.bst.be, c.st)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("exec: sharded chain: state backend: %w", err)
		}
		c.css.ColdReads = c.bst.ColdReads()
	}
	fold := foldResolvedInto(c.st)
	for _, mv := range c.mvs {
		mv.RangeLatestResolved(fold)
	}
	c.st.DiscardJournal()

	res := &ChainResult{Receipts: c.all, Root: c.st.Root(), Blocks: c.blockStats}
	res.Stats = Stats{
		Workers:    e.Workers,
		Txs:        c.seqUnits,
		Conflicted: c.conflicted,
		SeqUnits:   c.seqUnits,
		ParUnits:   c.parUnits,
		GasSeq:     c.gasSeq,
		GasPar:     c.gasParUnits,
		Retries:    c.retries,
		//txlint:clock wall-clock timing metric only
		Wall: time.Since(start),
	}
	res.Stats.finish()
	return res, c.css, nil
}

// runShardedChain is the chain's pipeline pass. Stage 1 reads the block
// channel and speculates each block per shard against pinned fixed-lag
// snapshots; stage 2 classifies, commits sub-blocks, merges cross-shard and
// composes, strictly in block order, committing each block's writes to the
// per-shard stores. The pass ends when the channel is closed or yields a
// nil block. onCommit (optional) fires after each block's writes are
// durable on every shard, with the block's chain-wide index.
func (e Sharded) runShardedChain(c *shardedChain, blocks <-chan *account.Block,
	onCommit func(idx int, blk *account.Block, receipts []*account.Receipt)) error {
	bs, mvs := c.bs, c.mvs
	shards := len(mvs)
	wps := ceilDiv(e.Workers, shards)
	depth := e.Depth
	if depth < 1 {
		depth = 1
	}
	shardOfKey := func(k StateKey) int { return core.ShardOf(k.Addr, shards) }

	// Stage 1: per-shard speculative execution, one block at a time, each
	// transaction on its own recording overlay over the pinned per-shard
	// snapshots. The channel buffer is the pipeline depth: stage 1 runs at
	// most depth blocks ahead of the cross-shard committer.
	specCh := make(chan shardedSpecBlock, depth)
	done := make(chan struct{})
	// abort stops the speculative stage and waits for it to exit before an
	// error return: otherwise its workers would keep reading st after the
	// caller regains ownership of it. Draining specCh both releases the
	// buffered snapshot pins and blocks until the goroutine's deferred
	// close.
	abort := func() {
		close(done)
		for sb := range specCh {
			sb.release()
		}
	}
	go func() {
		defer close(specCh)
		for pos := 0; ; pos++ {
			var blk *account.Block
			// A producer that neither sends nor closes must not keep an
			// aborted chain waiting, hence the quit arm.
			//txlint:clock receive-vs-quit arbitration; block order is the channel's FIFO order whichever case fires
			select {
			case b, ok := <-blocks:
				if !ok || b == nil {
					return
				}
				blk = b
			case <-done:
				return
			}
			// Deterministic pessimistic snapshot: when stage 1 starts the
			// chain's pos-th block it has pushed the previous pos blocks
			// through a channel of capacity depth, so stage 2 has received
			// at least pos−depth of them and committed all but its current
			// one: timestamp pos−depth−1 is guaranteed durable on every
			// shard. The clock runs on chain positions, so a live stream —
			// whose producers have arbitrary timing — yields the same pins,
			// and therefore the same re-execution counts and schedule
			// stats, as a pre-filled one.
			var ts uint64
			if pos > depth {
				ts = uint64(pos - depth - 1)
			}
			sb := shardedSpecBlock{
				pos:    pos,
				blk:    blk,
				snaps:  make([]*mvstore.Snapshot[StateKey, stateVal], shards),
				specTS: ts,
			}
			view := &mergedState{views: make([]account.State, shards)}
			for sh := range mvs {
				sb.snaps[sh] = mvs[sh].PinAt(ts)
				view.views[sh] = &snapState{base: bs, snap: sb.snaps[sh]}
			}
			sb.spec = e.specExec(view, blk, shards, wps)
			//txlint:clock send-vs-shutdown arbitration; commit order is enforced by stage 2, not by this select
			select {
			case specCh <- sb:
			case <-done:
				sb.release()
				return
			}
		}
	}()

	// Stage 2: classification, per-shard sub-block commit, cross-shard
	// merge and composition — strictly in block order (stage 1 emits in
	// order and the channel preserves it, so appends index correctly).
	var p1Units, p2Units []int
	var p1Gas, p2Gas []uint64

	for sb := range specCh {
		blk := sb.blk
		commitTS := uint64(sb.pos) + 1
		specTS := sb.specTS

		// The committed pre-block view: every shard's store at the previous
		// timestamp, over the immutable pre-chain state.
		base := &mergedState{views: make([]account.State, shards)}
		for sh := range mvs {
			base.views[sh] = &snapState{base: bs, snap: mvs[sh].At(commitTS - 1)}
		}
		// Cross-block staleness: a phase-1 read is stale iff its key was
		// committed after the pinned snapshot (per-shard ChangedSince, the
		// mvstore validation primitive).
		stale := func(k StateKey) bool {
			return mvs[shardOfKey(k)].ChangedSince(k, specTS)
		}
		if specTS == commitTS-1 {
			// The snapshot already reflects the previous commit; no
			// committed version can postdate it.
			stale = nil
		}
		out, err := e.phase2(base, stale, blk, sb.spec, shards, wps)
		sb.release()
		if err != nil {
			abort()
			return fmt.Errorf("exec: sharded chain block %d: %w", blk.Height, err)
		}

		// Deferred fees and block reward, exactly as finalizeBlock does,
		// then the block's writes partitioned onto the per-shard stores.
		out.acc.AddBalance(blk.Coinbase, account.Fees(blk.Txs, out.receipts))
		out.acc.AddBalance(blk.Coinbase, account.BlockReward)
		parts := make([]map[StateKey]mvstore.Write[stateVal], shards)
		for sh := range parts {
			parts[sh] = make(map[StateKey]mvstore.Write[stateVal], len(out.acc.entries)/shards+1)
		}
		for i := range out.acc.entries {
			if w, ok := out.acc.entries[i].mvWrite(); ok {
				k := out.acc.entries[i].key
				parts[shardOfKey(k)][k] = w
				if c.ckptCh != nil {
					c.markDirty(k)
				}
			}
		}
		out.acc.release()
		for sh := range mvs {
			// Empty partitions still commit: every shard's clock advances
			// in lockstep so fixed-lag pins stay valid on all shards.
			if err := mvs[sh].CommitWrites(commitTS, parts[sh]); err != nil {
				abort()
				return fmt.Errorf("exec: sharded chain block %d shard %d: %w", blk.Height, sh, err)
			}
		}
		// GC, fixed-lag horizon: a future pin requests at least
		// commitTS−depth (the next block's floor), and PinAt cannot
		// resurrect collected versions.
		if commitTS > uint64(depth)+1 {
			horizon := commitTS - uint64(depth) - 1
			for sh := range mvs {
				mvs[sh].TruncateBelow(horizon)
			}
			// Cold-key eviction rides the GC cadence: fully resolved cold
			// keys beyond each shard's budget are persisted to the shared
			// base layer, then their chains dropped.
			if c.bst != nil {
				ev, err := c.evictShards(horizon)
				if err != nil {
					abort()
					return fmt.Errorf("exec: sharded chain block %d: state backend: %w", blk.Height, err)
				}
				c.css.Evicted += ev
			}
		}
		// A backend read failure latched by a speculative worker poisons
		// every result after it; surface it at the commit point.
		if c.bst != nil {
			if err := c.bst.Err(); err != nil {
				abort()
				return fmt.Errorf("exec: sharded chain block %d: state backend: %w", blk.Height, err)
			}
		}

		c.all = append(c.all, out.receipts)
		c.css.add(out.ss)
		x := len(blk.Txs)
		gasBlock := costSum(e.Cost, blk.Txs, out.receipts)
		c.blockStats = append(c.blockStats, BlockStats{Txs: x, Reexecuted: out.conflicted})
		// Two-stage flow shop: machine 1 is the per-shard speculative
		// spread (overlappable with the previous block's commit), machine 2
		// everything ordered — shard bins, merge waves, repairs. The two
		// sum to the per-block engine's ParUnits, so pipelining can only
		// help.
		p1Units = append(p1Units, out.spreadUnits)
		p2Units = append(p2Units, out.intraUnits-out.spreadUnits+out.mergeUnits+out.repairs)
		p1Gas = append(p1Gas, out.spreadGas)
		p2Gas = append(p2Gas, out.intraGas-out.spreadGas+out.mergeGas+out.repairGas)
		c.seqUnits += x
		c.gasSeq += gasBlock
		c.conflicted += out.conflicted
		c.retries += out.binned + out.mergeReexecs + out.redos + out.repairs
		if onCommit != nil {
			onCommit(len(c.all)-1, blk, out.receipts)
		}
		if c.ckptCh != nil && len(c.all)%c.ckptEvery == 0 {
			c.enqueueCheckpoint(len(c.all)-1, commitTS)
		}
	}

	c.parUnits = flowShopMakespan(p1Units, p2Units)
	c.gasParUnits = flowShopMakespan(p1Gas, p2Gas)
	return nil
}

// evictShards moves cold keys from every shard's version cache into the
// shared base layer, down to the per-shard budget. The protocol is
// persist-then-drop: the batch is durable in the backend before any chain
// is removed, so a reader missing a dropped chain always finds the value
// in the base. horizon must be the GC horizon of the triggering commit; the
// eviction cut additionally respects snapshot pins, exactly like GC.
// Returns the number of chains dropped across all shards.
func (c *shardedChain) evictShards(horizon uint64) (int, error) {
	var entries []basestore.Entry
	cold := make([][]StateKey, len(c.mvs))
	for sh, mv := range c.mvs {
		excess := mv.StoreStats().Keys - c.budget
		if excess <= 0 {
			continue
		}
		for _, ev := range mv.CollectCold(horizon, excess) {
			v := ev.Val
			if !ev.Anchored {
				// Deltas exist only for balances: fold the accumulated
				// increment over the backed base so the persisted value is
				// absolute and commutativity is preserved.
				v = stateVal{i64: c.bst.GetBalance(ev.Key.Addr) + ev.Val.i64}
			}
			entries = append(entries, basestore.Entry{Key: encodeStateKey(ev.Key), Val: encodeStateVal(ev.Key, v)})
			cold[sh] = append(cold[sh], ev.Key)
		}
	}
	c.evictSeq.Add(1) // odd until the persist and drops are done
	defer c.evictSeq.Add(1)
	if len(entries) > 0 {
		if err := c.bst.be.Apply(entries); err != nil {
			return 0, err
		}
	}
	dropped := 0
	for sh, mv := range c.mvs {
		dropped += mv.DropChains(cold[sh], horizon)
	}
	return dropped, nil
}

// snapState adapts a multi-version snapshot layered over an immutable base
// — the pre-chain StateDB, or (in a bounded sharded chain) a backedState
// reading through the disk base layer first — to the account.State reads.
// All execution writes go through recording overlays, never through their
// base, so the mutators panic to surface any violation of that invariant.
type snapState struct {
	base baseState
	snap *mvstore.Snapshot[StateKey, stateVal]
}

var _ account.State = (*snapState)(nil)

// GetBalance implements vm.State. Balances resolve through the version
// chain: committed delta versions fold onto the newest absolute version, or
// onto the base state's balance when the chain holds only deltas.
func (s *snapState) GetBalance(a types.Address) int64 {
	k := StateKey{Kind: kindBalance, Addr: a}
	return s.snap.Resolve(k, stateVal{i64: s.base.GetBalance(a)}).i64
}

// GetNonce implements account.State.
func (s *snapState) GetNonce(a types.Address) uint64 {
	if v, ok := s.snap.Get(StateKey{Kind: kindNonce, Addr: a}); ok {
		return v.u64
	}
	return s.base.GetNonce(a)
}

// GetCode implements vm.State.
func (s *snapState) GetCode(a types.Address) []byte {
	if v, ok := s.snap.Get(StateKey{Kind: kindCode, Addr: a}); ok {
		return v.bytes
	}
	return s.base.GetCode(a)
}

// GetStorage implements vm.State.
func (s *snapState) GetStorage(a types.Address, slot uint64) uint64 {
	if v, ok := s.snap.Get(StateKey{Kind: kindStorage, Addr: a, Slot: slot}); ok {
		return v.u64
	}
	return s.base.GetStorage(a, slot)
}

// Snapshot implements vm.State; snapshots of an immutable view are free.
func (s *snapState) Snapshot() int { return 0 }

// RevertToSnapshot implements vm.State; nothing was written, nothing to do.
func (s *snapState) RevertToSnapshot(int) {}

func (s *snapState) AddBalance(types.Address, int64) { panic("exec: write to mv snapshot") }
func (s *snapState) SubBalance(types.Address, int64) { panic("exec: write to mv snapshot") }
func (s *snapState) SetNonce(types.Address, uint64)  { panic("exec: write to mv snapshot") }
func (s *snapState) SetCode(types.Address, []byte)   { panic("exec: write to mv snapshot") }
func (s *snapState) SetStorage(types.Address, uint64, uint64) {
	panic("exec: write to mv snapshot")
}

// foldResolvedInto returns a RangeLatestResolved callback that folds a
// multi-version store's newest values into the given state database.
// Anchored chains materialise to absolute values; a balance that was only
// ever delta-written resolves to its accumulated delta, applied on top of
// the base balance in st. finishChain folds every shard's store with it.
func foldResolvedInto(st *account.StateDB) func(k StateKey, v stateVal, anchored bool) bool {
	return func(k StateKey, v stateVal, anchored bool) bool {
		switch {
		case k.Kind == kindBalance && !anchored:
			st.AddBalance(k.Addr, v.i64)
		case k.Kind == kindBalance:
			st.AddBalance(k.Addr, v.i64-st.GetBalance(k.Addr))
		case k.Kind == kindNonce:
			st.SetNonce(k.Addr, v.u64)
		case k.Kind == kindCode:
			st.SetCode(k.Addr, v.bytes)
		case k.Kind == kindStorage:
			st.SetStorage(k.Addr, k.Slot, v.u64)
		}
		return true
	}
}

// flowShopMakespan is the classic two-machine flow-shop completion-time
// recurrence with a fixed job order: machine 1 (speculative execution)
// processes blocks back to back; machine 2 (validation/re-execution) starts
// block b as soon as both machine 1 finished b and machine 2 finished b-1.
// This is exactly the pipeline's schedule length under the paper's
// unit-cost model (or gas-weighted costs): validation of block b overlaps
// execution of block b+1.
func flowShopMakespan[T int | uint64](p1, p2 []T) T {
	var c1, c2 T
	for i := range p1 {
		c1 += p1[i]
		if c1 > c2 {
			c2 = c1
		}
		c2 += p2[i]
	}
	return c2
}

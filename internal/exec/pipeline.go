package exec

import (
	"fmt"
	"time"

	"txconcur/internal/account"
	"txconcur/internal/mvstore"
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

// BlockStats describes the pipeline's work on one block.
type BlockStats struct {
	// Txs is the number of transactions in the block.
	Txs int
	// Reexecuted is how many of them failed validation (stale reads,
	// intra-block conflicts, or phase-1 envelope failures) and were
	// re-executed serially in phase 2.
	Reexecuted int
	// Lag is the staleness of the phase-1 snapshot in blocks: 0 means
	// phase 1 ran against the immediately preceding block's committed
	// state; k means k blocks committed between snapshot and validation.
	Lag int
}

// ChainResult is the outcome of executing a sequence of blocks through the
// pipeline.
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

// specBlock carries one block's phase-1 output from the speculative stage
// to the validation stage.
type specBlock struct {
	idx      int
	overlays []*overlay
	receipts []*account.Receipt
	failed   []bool
	snap     *mvstore.Snapshot[StateKey, stateVal]
}

// foldResolvedInto returns a RangeLatestResolved callback that folds a
// multi-version store's newest values into the given state database.
// Anchored chains materialise to absolute values; a balance that was only
// ever delta-written resolves to its accumulated delta, applied on top of
// the base balance in st. Shared by the pipeline's end-of-chain fold and
// the sharded engine's per-shard sub-block folds.
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

// overlayWrites converts an overlay's buffered values into the
// multi-version store's write-set representation (see ovEntry.mvWrite).
func overlayWrites(o *overlay) map[StateKey]mvstore.Write[stateVal] {
	w := make(map[StateKey]mvstore.Write[stateVal], len(o.entries))
	for i := range o.entries {
		if v, ok := o.entries[i].mvWrite(); ok {
			w[o.entries[i].key] = v
		}
	}
	return w
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
//
// Timestamps: logical time 0 is st as given; block i commits its write set
// to the multi-version cache at time i+1. Nothing touches st until every
// block has validated, so the speculative stage can read it lock-free; the
// cache's newest values are folded into st once at the end.
func (e Pipeline) ExecuteChain(st *account.StateDB, blocks []*account.Block) (*ChainResult, error) {
	if e.Workers < 1 {
		return nil, ErrNoWorkers
	}
	depth := e.Depth
	if depth < 1 {
		depth = 1
	}
	//txlint:clock wall-clock timing metric for reported stats only; committed state never depends on it
	start := time.Now()
	mv := mvstore.NewStoreDelta[StateKey, stateVal](mergeStateVal)

	// Stage 1: speculative execution, one block at a time, each transaction
	// on its own read/write-recording overlay over a pinned snapshot. The
	// channel buffer is the pipeline depth: stage 1 runs at most depth
	// blocks ahead of stage 2.
	specCh := make(chan specBlock, depth)
	done := make(chan struct{})
	// abort stops the speculative stage and waits for it to exit before an
	// error return: otherwise its workers would keep reading st after the
	// caller regains ownership of it. Draining specCh both releases the
	// buffered snapshot pins and blocks until the goroutine's deferred
	// close.
	abort := func() {
		close(done)
		for sb := range specCh {
			sb.snap.Release()
		}
	}
	go func() {
		defer close(specCh)
		for i, blk := range blocks {
			// Deterministic pessimistic snapshot. When stage 1 starts block
			// i it has pushed blocks 0..i−1 through a channel of capacity
			// depth, so stage 2 has received at least i−depth of them and
			// committed all but its current one: timestamp i−depth−1 is
			// guaranteed durable.
			snap := mv.PinAt(uint64(max(0, i-depth-1)))
			ss := &snapState{base: st, snap: snap}
			x := len(blk.Txs)
			sb := specBlock{
				idx:      i,
				overlays: make([]*overlay, x),
				receipts: make([]*account.Receipt, x),
				failed:   make([]bool, x),
				snap:     snap,
			}
			parallelFor(x, e.Workers, func(j int) {
				o := newOverlayOp(ss, e.OpLevel)
				rcpt, err := procDeferred.ApplyTransaction(o, blk, blk.Txs[j])
				if err != nil {
					// Envelope failure against the snapshot (e.g. a nonce
					// depending on an earlier in-flight transaction): phase 2
					// re-executes it against the true prefix state.
					sb.failed[j] = true
				} else {
					sb.receipts[j] = rcpt
				}
				sb.overlays[j] = o
			})
			//txlint:clock send-vs-shutdown arbitration; stage 2 validates and commits strictly in block order either way
			select {
			case specCh <- sb:
			case <-done:
				snap.Release()
				return
			}
		}
	}()

	// Stage 2: validate and commit, strictly in block order.
	all := make([][]*account.Receipt, len(blocks))
	blockStats := make([]BlockStats, len(blocks))
	p1Units := make([]int, len(blocks))
	p2Units := make([]int, len(blocks))
	p1Gas := make([]uint64, len(blocks))
	p2Gas := make([]uint64, len(blocks))
	var seqUnits int
	var gasSeq uint64

	for sb := range specCh {
		blk := blocks[sb.idx]
		commitTS := uint64(sb.idx) + 1
		specTS := sb.snap.TS()
		x := len(blk.Txs)

		// acc accumulates the block's true (sequential-prefix) writes over
		// the committed state as of the previous block.
		acc := newAccumulator(&snapState{base: st, snap: mv.At(commitTS - 1)}, e.OpLevel, accKeysPerTx*x)
		// blockWrites holds every key written so far by this block —
		// absolute writes and deltas alike, since a later transaction that
		// *read* the key missed either kind in its snapshot.
		blockWrites := make(map[StateKey]struct{})
		logWrites := func(o *overlay) {
			for k := range o.writes() {
				blockWrites[k] = struct{}{}
			}
			for a := range o.deltas() {
				blockWrites[deltaKey(a)] = struct{}{}
			}
		}
		// When the snapshot already reflects the previous block, no
		// committed version can postdate it — only intra-block conflicts
		// need checking.
		stale := specTS < commitTS-1
		receipts := make([]*account.Receipt, x)
		reexec := 0
		var gasRetried uint64
		for i, tx := range blk.Txs {
			o := sb.overlays[i]
			ok := !sb.failed[i]
			if ok {
				for k := range o.reads() {
					if _, hit := blockWrites[k]; hit {
						ok = false
						break
					}
					if stale && mv.ChangedSince(k, specTS) {
						ok = false
						break
					}
				}
			}
			if ok {
				// Clean reads: the phase-1 result is the sequential result.
				// (A transaction whose only touch of a hot key is a blind
				// delta has no read of it, so concurrent credits — intra- or
				// cross-block — never send it here.)
				receipts[i] = sb.receipts[i]
				o.applyTo(acc)
				logWrites(o)
				continue
			}
			// Stale or failed: re-execute against the exact prefix state. An
			// envelope error here means the block itself is invalid.
			ro := newOverlayOp(acc, e.OpLevel)
			rcpt, err := procDeferred.ApplyTransaction(ro, blk, tx)
			if err != nil {
				sb.snap.Release()
				abort()
				return nil, fmt.Errorf("exec: pipeline block %d tx %d: %w", blk.Height, i, err)
			}
			receipts[i] = rcpt
			ro.applyTo(acc)
			logWrites(ro)
			reexec++
			gasRetried += costOf(e.Cost, tx, rcpt)
		}

		// Deferred fees and block reward, exactly as finalizeBlock does.
		acc.AddBalance(blk.Coinbase, account.Fees(blk.Txs, receipts))
		acc.AddBalance(blk.Coinbase, account.BlockReward)

		if err := mv.CommitWrites(commitTS, overlayWrites(acc)); err != nil {
			sb.snap.Release()
			abort()
			return nil, fmt.Errorf("exec: pipeline block %d: %w", blk.Height, err)
		}
		acc.release()
		sb.snap.Release()
		// Epoch GC: reclaim versions no snapshot can observe. The horizon
		// stops at the oldest timestamp a *future* pin may still request
		// (block j ≥ idx+1 pins j−depth−1): PinAt cannot resurrect
		// collected versions.
		mv.TruncateBelow(uint64(max(0, sb.idx-depth)))

		all[sb.idx] = receipts
		gasBlock := costSum(e.Cost, blk.Txs, receipts)
		blockStats[sb.idx] = BlockStats{
			Txs:        x,
			Reexecuted: reexec,
			Lag:        int(commitTS-1) - int(specTS),
		}
		p1Units[sb.idx] = ceilDiv(x, e.Workers)
		p2Units[sb.idx] = reexec
		p1Gas[sb.idx] = ceilDivU(gasBlock, uint64(e.Workers))
		p2Gas[sb.idx] = gasRetried
		seqUnits += x
		gasSeq += gasBlock
	}

	// Fold the cache's newest values into the caller's state database.
	mv.RangeLatestResolved(foldResolvedInto(st))
	st.DiscardJournal()

	res := &ChainResult{Receipts: all, Root: st.Root(), Blocks: blockStats}
	conflicted := 0
	for _, bs := range blockStats {
		conflicted += bs.Reexecuted
	}
	res.Stats = Stats{
		Workers:    e.Workers,
		Txs:        seqUnits,
		Conflicted: conflicted,
		SeqUnits:   seqUnits,
		ParUnits:   flowShopMakespan(p1Units, p2Units),
		GasSeq:     gasSeq,
		GasPar:     flowShopMakespan(p1Gas, p2Gas),
		Retries:    conflicted,
		//txlint:clock wall-clock timing metric only
		Wall: time.Since(start),
	}
	res.Stats.finish()
	return res, nil
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

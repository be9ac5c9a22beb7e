package exec

import (
	"fmt"
	"sort"
	"sync"

	"txconcur/internal/account"
	"txconcur/internal/core"
	"txconcur/internal/types"
)

// Sharded is a multi-shard execution engine. The paper's §II-B singles out
// Zilliqa-style network sharding as a scaling route whose "major limitation
// ... is that it does not support cross-shard transactions"; package core's
// ShardingAnalysis (E6) measures how many transactions that limitation
// forfeits. This engine closes the gap: the account state is partitioned
// into per-shard state views by static FNV-1a over the address
// (core.ShardOf, transactions homed by sender) — each shard runs its
// intra-shard sub-block on its own two-phase worker pipeline (the
// Saraph–Herlihy split per shard: a parallel speculative phase over ⌈n/s⌉
// workers, then an ordered commit that validates each transaction's reads
// in block order against the actual writes committed before it), and —
// unlike Zilliqa — cross-shard transactions are *handled*, by a
// deterministic two-phase cross-shard commit:
//
//   - Phase 1 (parallel, per shard): every transaction executes on a
//     recording overlay against the pinned pre-block state. Transactions
//     whose access set stays inside their home shard are committed
//     shard-locally, in block order: one whose reads miss the shard's
//     earlier commits keeps its phase-1 result, the others re-execute
//     against the shard's staged prefix. Transactions that touched
//     foreign-shard state — or whose phase-1 access set overlaps an earlier
//     cross-shard transaction's writes — stage their read/write sets for
//     phase 2 instead.
//   - Phase 2 (deterministic, in block order): the cross-shard commit
//     validates each staged transaction's reads against the per-shard
//     commits and the earlier cross-shard writes. Runs of clean staged
//     transactions commit as one batched group (delta-only cross traffic —
//     hot-key deposits — commutes and batches maximally); stale or
//     never-staged ones re-execute against the merged view (every shard's
//     committed sub-block plus the cross-shard accumulator) in *parallel
//     waves* of key-disjoint transactions with in-order commit validation,
//     so the merge's sequential tail is ceil(wave/n) instead of one unit
//     per abort.
//
// Soundness follows the same discipline as Speculative: nothing touches st
// until every result is validated. Order-sensitive overlaps that the merge
// cannot reproduce (a cross-shard write a later intra-shard transaction
// should have observed, or a merged-view read that folded a later
// sub-block write) no longer force a whole-block sequential fallback:
// the engine records the earliest affected block position and the final
// composition pass re-executes only that suffix against its exact
// sequential prefix (ShardStats.Repairs). The regression and fuzz tests
// enforce receipt and state-root equality with Sequential on every profile,
// shard count, and conflict mode.
//
// Every entry point runs the same chain driver (ExecuteChainStream;
// ExecuteChain feeds it a slice, Execute a single block): because the
// per-shard state caches are multi-version (package mvstore), phase 1 of
// block b+1 runs concurrently with phase 2 of block b — the Octopus-style
// design that overlaps execution and validation across blocks instead of
// serialising every block on one global commit lock. Cross-block
// staleness, the price of running ahead, is detected by per-key version
// checks rather than a global clock. With one shard every transaction is
// intra-shard, so phase 2 is the in-order validator alone and the
// cross-shard commit never runs: Sharded{Shards: 1} is the paper's
// pipelined two-phase engine, where an intra-block conflict costs exactly
// one re-execution at its commit point.
type Sharded struct {
	// Workers is the total core count n. Each shard's pipeline is credited
	// ⌈n/s⌉ logical workers; since s·⌈n/s⌉ can exceed n when s does not
	// divide n, the schedule-length accounting is additionally floored by
	// the total core budget (all intra-shard work over n cores), so the
	// reported speed-up never exceeds what n cores could deliver.
	Workers int
	// Shards is the committee count s; values below 1 mean 1 (a single
	// shard has no cross-shard commit).
	Shards int
	// OpLevel enables operation-level conflict refinement: balance credits
	// and debits are recorded as commutative deltas. Deltas merge within a
	// shard's sub-block and across shards in the cross-shard commit, so
	// blind credits never abort each other no matter which shard staged
	// them.
	OpLevel bool
	// Depth is the pipeline lookahead in blocks: phase 1 may run up to
	// Depth blocks ahead of the cross-shard commit, against per-shard
	// snapshots pinned at the deterministic fixed-lag timestamp. 0 means 1.
	// Deeper lookahead buys more overlap at the price of staler snapshots
	// (more re-executions).
	Depth int
	// Cost overrides the per-transaction schedule weight used for the
	// GasSeq/GasPar accounting (intra spreads, bins, merge waves, and
	// repairs alike); nil charges the receipt's gas.
	Cost CostModel
	// Checkpoint, if non-nil with a positive Interval, receives async
	// change sets of committed chain state every Interval blocks (see
	// CheckpointSink). The checkpoint worker never blocks the commit path:
	// busy intervals are skipped, counted in
	// ChainShardStats.CheckpointsSkipped, and folded into the next
	// delivered change set.
	Checkpoint CheckpointSink
	// Backend, if non-nil, is the disk-backed base layer shared by every
	// shard's version cache: the chain driver evicts cold, fully resolved
	// keys beyond CacheBudget per shard into it after each GC pass, and
	// cache misses read through to it before falling back to the pre-chain
	// state. nil keeps the historical all-RAM behaviour.
	Backend StateBackend
	// CacheBudget is the target resident key count of each shard's version
	// cache when Backend is set: eviction trims cold keys down to it (0
	// evicts every cold key each pass). Ignored without a Backend.
	CacheBudget int
}

// ShardStats describes the sharded engine's work on one block, beyond the
// generic Stats.
type ShardStats struct {
	// Shards is the committee count actually used.
	Shards int
	// Intra is the number of transactions classified intra-shard and
	// committed shard-locally.
	Intra int
	// Cross is the number of transactions classified for the cross-shard
	// commit (foreign-shard touches, ordering overlaps with cross-shard
	// writes, and phase-1 failures rerouted by their shard). Intra+Cross
	// always equals the block's transaction count.
	Cross int
	// CrossAborts counts cross-shard transactions whose staged phase-1
	// result failed validation (or was never staged) and had to re-execute:
	// in the merge's waves, or — past the repair point — in the composition
	// pass. Always ≤ Cross.
	CrossAborts int
	// BatchedStage is the number of staged cross-shard transactions
	// committed as part of a multi-transaction commuting group (delta-only
	// runs batch maximally; a group of one is not counted).
	BatchedStage int
	// MergeWaves is the number of parallel re-execution waves the merge
	// ran; MergeUnits is the merge's schedule length in time units —
	// ⌈wave/n⌉ per wave plus one unit per in-order commit repair — which
	// replaces the one-unit-per-abort sequential tail of the strictly
	// sequential merge.
	MergeWaves int
	MergeUnits int
	// Repairs is the number of transactions re-executed by the
	// per-transaction repair pass: when the merge detects an ordering
	// overlap it cannot reproduce, the composition pass re-runs only the
	// block suffix from the earliest affected position, each against its
	// exact sequential prefix. 0 on clean blocks.
	Repairs int
	// Fallback reports that the repair suffix was the whole block — the
	// per-transaction repair was exhausted and the block was effectively
	// re-executed sequentially. Implies Repairs == Intra+Cross.
	Fallback bool
	// PerShardTxs is the phase-1 transaction count per home shard.
	PerShardTxs []int
}

// mergedState reads through every shard's committed view (one per shard,
// in shard order), dispatching each key to the view of the shard that owns
// its address. Phase 2 layers the cross-shard accumulator over it; phase 1
// uses it over pinned per-shard snapshots. Writes panic: all execution
// goes through recording overlays.
type mergedState struct {
	views []account.State
}

var _ account.State = (*mergedState)(nil)

func (s *mergedState) view(a types.Address) account.State {
	return s.views[core.ShardOf(a, len(s.views))]
}

func (s *mergedState) GetBalance(a types.Address) int64 { return s.view(a).GetBalance(a) }
func (s *mergedState) GetNonce(a types.Address) uint64  { return s.view(a).GetNonce(a) }
func (s *mergedState) GetCode(a types.Address) []byte   { return s.view(a).GetCode(a) }
func (s *mergedState) GetStorage(a types.Address, slot uint64) uint64 {
	return s.view(a).GetStorage(a, slot)
}
func (s *mergedState) Snapshot() int                   { return 0 }
func (s *mergedState) RevertToSnapshot(int)            {}
func (s *mergedState) AddBalance(types.Address, int64) { panic("exec: write to merged view") }
func (s *mergedState) SubBalance(types.Address, int64) { panic("exec: write to merged view") }
func (s *mergedState) SetNonce(types.Address, uint64)  { panic("exec: write to merged view") }
func (s *mergedState) SetCode(types.Address, []byte)   { panic("exec: write to merged view") }
func (s *mergedState) SetStorage(types.Address, uint64, uint64) {
	panic("exec: write to merged view")
}

// Execute runs the block on st (mutated on success) as a one-block
// ExecuteChain, engine-interface parity with the other executors. With one
// block there is nothing to overlap: the schedule length is the block's
// phase 1 plus its ordered commit. The block's ShardStats are the chain's
// ChainShardStats.Blocks[0].
func (e Sharded) Execute(st *account.StateDB, blk *account.Block) (*Result, error) {
	cr, _, err := e.ExecuteChain(st, []*account.Block{blk})
	if err != nil {
		return nil, err
	}
	return &Result{Receipts: cr.Receipts[0], Root: cr.Root, Stats: cr.Stats}, nil
}

// touchesForeign reports whether the overlay's access set leaves the home
// shard of a shards-way partition.
func touchesForeign(o *overlay, home, shards int) bool {
	for k := range o.reads() {
		if core.ShardOf(k.Addr, shards) != home {
			return true
		}
	}
	for k := range o.writes() {
		if core.ShardOf(k.Addr, shards) != home {
			return true
		}
	}
	for a := range o.deltas() {
		if core.ShardOf(a, shards) != home {
			return true
		}
	}
	return false
}

// crossWriteIndex is the per-key ordering index of the cross-shard set:
// the smallest block position of a cross transaction that absolutely
// writes (abs) or delta-writes (delta) the key. Missing entries mean "not
// written"; -1 is never stored.
type crossWriteIndex struct {
	abs   map[StateKey]int
	delta map[StateKey]int
}

// noteMinIdx keeps the smallest block position recorded for k — the
// ordering-index primitive of the cross-shard commit.
func noteMinIdx(m map[StateKey]int, k StateKey, i int) {
	if prev, ok := m[k]; !ok || i < prev {
		m[k] = i
	}
}

// shardedSpec carries one block's phase-1 output into phase 2 — built by
// the chain driver's speculative stage goroutine against pinned per-shard
// snapshots.
type shardedSpec struct {
	overlays []*overlay
	p1rcpt   []*account.Receipt
	failed   []bool
	home     []int
	byShard  [][]int
}

// specExec runs phase 1: home-shard assignment by sender (as Zilliqa
// assigns accounts to committees — same-sender nonce chains stay in one
// shard), then per-shard speculative pipelines, every transaction on its
// own recording overlay over base. base must be safe for concurrent reads.
func (e Sharded) specExec(base account.State, blk *account.Block, shards, wps int) *shardedSpec {
	x := len(blk.Txs)
	sp := &shardedSpec{
		overlays: make([]*overlay, x),
		p1rcpt:   make([]*account.Receipt, x),
		failed:   make([]bool, x),
		home:     make([]int, x),
		byShard:  make([][]int, shards),
	}
	for i, tx := range blk.Txs {
		sp.home[i] = core.ShardOf(tx.From, shards)
		sp.byShard[sp.home[i]] = append(sp.byShard[sp.home[i]], i)
	}
	var wg sync.WaitGroup
	for sh := 0; sh < shards; sh++ {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			idxs := sp.byShard[sh]
			parallelFor(len(idxs), wps, func(j int) {
				i := idxs[j]
				o := newOverlayOp(base, e.OpLevel)
				rcpt, err := procDeferred.ApplyTransaction(o, blk, blk.Txs[i])
				if err != nil {
					// Envelope failure against the pinned state (e.g. a
					// nonce chain): the shard's phase-2 bin re-executes it.
					sp.failed[i] = true
				} else {
					sp.p1rcpt[i] = rcpt
				}
				sp.overlays[i] = o
			})
		}(sh)
	}
	wg.Wait()
	return sp
}

// shardedOutcome is phase 2's result: the final receipts, the block's write
// set composed in block order over the base view (fees not yet credited),
// the sharding counters, and the schedule-length terms the callers fold
// into Stats.
type shardedOutcome struct {
	receipts []*account.Receipt
	acc      *overlay
	ss       *ShardStats

	// Unit-cost schedule terms. spreadUnits is the phase-1 spread alone
	// (max over shards, floored by the core budget); intraUnits adds the
	// shard-local bins (the per-block engine's phase-1+2a term);
	// mergeUnits and repairs are the cross-shard commit's and the repair
	// pass's sequential-tail contributions.
	spreadUnits, intraUnits, mergeUnits, repairs int
	// Re-execution event counters: binned shard-local re-executions, merge
	// re-executions (wave runs), in-order commit redos, and conflicted
	// (distinct serialised transactions).
	binned, mergeReexecs, redos, conflicted int
	// Gas-weighted counterparts.
	spreadGas, intraGas, mergeGas, repairGas uint64
}

// phase2 classifies the block, commits the per-shard sub-blocks, runs the
// cross-shard merge (batched staged groups, parallel re-execution waves),
// and composes the final block write set in order — re-executing the repair
// suffix when the merge detected an ordering overlap. stale, when non-nil,
// reports keys whose committed value postdates the phase-1 snapshot
// (the chain's cross-block staleness); phase-1 results reading such keys
// are demoted to failures and re-execute on the true prefix. Each shard's
// phase-2a goroutine probes its own transactions, so stale must be safe
// for concurrent calls.
func (e Sharded) phase2(base account.State, stale func(StateKey) bool, blk *account.Block,
	sp *shardedSpec, shards, wps int) (*shardedOutcome, error) {
	x := len(blk.Txs)
	overlays, failed, p1rcpt := sp.overlays, sp.failed, sp.p1rcpt

	// Classification. A transaction whose phase-1 access set leaves its
	// home shard joins the cross-shard set. Then, to fixpoint: an intra
	// transaction ordered *after* a cross-shard write it touches must be
	// ordered against it, so it joins the cross-shard set too (delta–delta
	// contact commutes and is exempt). The fixpoint uses phase-1 access
	// sets — predictions, not guarantees; divergent re-executions are
	// caught by the commit-time validation below.
	cross := make([]bool, x)
	for i := range cross {
		cross[i] = touchesForeign(overlays[i], sp.home[i], shards)
	}
	// The fixpoint is monotone — cross membership only grows and the
	// per-key minima in p1cw only decrease — so the index is maintained
	// incrementally: each reclassified transaction adds its writes once,
	// and the scan repeats until a full pass reclassifies nothing.
	p1cw := crossWriteIndex{abs: make(map[StateKey]int), delta: make(map[StateKey]int)}
	addCrossWrites := func(i int, o *overlay) {
		for k := range o.writes() {
			noteMinIdx(p1cw.abs, k, i)
		}
		for a := range o.deltas() {
			noteMinIdx(p1cw.delta, deltaKey(a), i)
		}
	}
	for i, o := range overlays {
		if cross[i] {
			addCrossWrites(i, o)
		}
	}
	orderedAfterCross := func(i int, o *overlay) bool {
		for k := range o.reads() {
			if j, ok := p1cw.abs[k]; ok && j < i {
				return true
			}
			if j, ok := p1cw.delta[k]; ok && j < i {
				return true
			}
		}
		for k := range o.writes() {
			if j, ok := p1cw.abs[k]; ok && j < i {
				return true
			}
			if j, ok := p1cw.delta[k]; ok && j < i {
				return true
			}
		}
		for a := range o.deltas() {
			// Delta–delta commutes across the intra/cross boundary; only
			// an earlier cross *absolute* write forces ordering.
			if j, ok := p1cw.abs[deltaKey(a)]; ok && j < i {
				return true
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for i, o := range overlays {
			if cross[i] {
				continue
			}
			if orderedAfterCross(i, o) {
				cross[i] = true
				addCrossWrites(i, o)
				changed = true
			}
		}
	}

	// Phase 2a: per-shard in-order commit of the intra-shard sub-blocks,
	// all shards in parallel. A shard walks its intra transactions in
	// block order; one keeps its phase-1 result unless phase 1 failed or
	// it read a key in the shard's written set — the actual writes and
	// deltas of the shard's earlier commits, winners and re-executions
	// alike — and otherwise re-executes against the shard's staged prefix. Checking reads in order against actual writes
	// is serially equivalent on its own, so no winner can hold a result a
	// re-execution made stale. A re-execution that leaves the shard — or
	// fails — is handed to the cross-shard commit: the shard prefix is not
	// the sequential prefix, so neither its access set nor its error is
	// authoritative.
	type shardOutcome struct {
		acc    *overlay
		binned int
		gasBin uint64 // gas of the shard-local sequential re-executions
	}
	final := make([]*overlay, x) // committed results, by tx index
	receipts := make([]*account.Receipt, x)
	// reexecuted marks the distinct transactions the engine serialised at
	// least once (shard bin, cross-shard merge, or repair pass) — a bin
	// re-execution rerouted to the cross set and aborted there must not
	// count twice.
	reexecuted := make([]bool, x)
	outcomes := make([]shardOutcome, shards)
	parallelFor(shards, shards, func(sh int) {
		out := &outcomes[sh]
		// Cross-block staleness of the shard's phase-1 results, intra and
		// cross alike (phase 2b reads failed[] only after every shard is
		// done).
		if stale != nil {
			for _, i := range sp.byShard[sh] {
				if failed[i] {
					continue
				}
				for k := range overlays[i].reads() {
					if stale(k) {
						failed[i] = true
						break
					}
				}
			}
		}
		acc := newAccumulator(base, e.OpLevel, accKeysPerTx*len(sp.byShard[sh]))
		out.acc = acc
		written := make(map[StateKey]struct{})
		for _, i := range sp.byShard[sh] {
			if cross[i] {
				continue
			}
			f := overlays[i]
			ok := !failed[i]
			if ok {
				for k := range f.reads() {
					if _, hit := written[k]; hit {
						ok = false
						break
					}
				}
			}
			if ok {
				receipts[i] = p1rcpt[i]
			} else {
				out.binned++
				reexecuted[i] = true
				ro := newOverlayOp(acc, e.OpLevel)
				rcpt, err := procDeferred.ApplyTransaction(ro, blk, blk.Txs[i])
				if err != nil || touchesForeign(ro, sh, shards) {
					cross[i] = true
					continue
				}
				receipts[i] = rcpt
				out.gasBin += costOf(e.Cost, blk.Txs[i], rcpt)
				f = ro
			}
			f.applyTo(acc)
			final[i] = f
			for k := range f.keysWith(ovWrote | ovDelta) {
				written[k] = struct{}{}
			}
		}
	})
	// repairFrom is the earliest block position whose committed result is
	// suspect: everything at or after it is re-executed by the composition
	// pass against its exact sequential prefix. x means "no repair".
	repairFrom := x
	bump := func(p int) {
		if p < repairFrom {
			repairFrom = p
		}
	}

	crossIdx := make([]int, 0, x)
	for j := 0; j < x; j++ {
		if cross[j] {
			crossIdx = append(crossIdx, j)
		}
	}
	crossN := len(crossIdx)

	// Intra touch index, for ordering the cross-shard set against the
	// committed sub-blocks: per key, the smallest intra writer (reads of a
	// staged cross transaction must not postdate it) and the full ascending
	// position lists of intra readers / absolute writers / delta writers.
	// The lists bound the repair suffix precisely: when a cross-shard write
	// at j overlaps later intra results, only the *first affected* intra
	// position — not j+1 — starts the re-run. Only the cross-shard merge
	// reads the index, so a block without cross transactions (every block
	// of a one-shard engine) skips it.
	var minIntraWrite map[StateKey]int
	var intraReads, intraAbs, intraDeltas map[StateKey][]int
	if crossN > 0 {
		minIntraWrite = make(map[StateKey]int)
		intraReads = make(map[StateKey][]int)
		intraAbs = make(map[StateKey][]int)
		intraDeltas = make(map[StateKey][]int)
		for i, f := range final {
			if f == nil {
				continue
			}
			for k := range f.reads() {
				intraReads[k] = append(intraReads[k], i)
			}
			for k := range f.writes() {
				noteMinIdx(minIntraWrite, k, i)
				intraAbs[k] = append(intraAbs[k], i)
			}
			for a := range f.deltas() {
				k := deltaKey(a)
				noteMinIdx(minIntraWrite, k, i)
				intraDeltas[k] = append(intraDeltas[k], i)
			}
		}
	}
	// firstAfter returns the smallest position in the ascending list
	// strictly greater than j, or -1; lastOf the largest entry.
	firstAfter := func(list []int, j int) int {
		lo := sort.SearchInts(list, j+1)
		if lo == len(list) {
			return -1
		}
		return list[lo]
	}
	lastOf := func(list []int) int {
		if len(list) == 0 {
			return -1
		}
		return list[len(list)-1]
	}

	// Phase 2b: deterministic cross-shard commit, in block order, over the
	// merged view (every shard's committed sub-block read through
	// non-recording overlay readers) plus the cross-shard accumulator.
	merged := &mergedState{views: make([]account.State, shards)}
	for sh := range merged.views {
		merged.views[sh] = outcomes[sh].acc.reader()
	}
	cw := crossWriteIndex{abs: make(map[StateKey]int), delta: make(map[StateKey]int)}
	accX := newAccumulator(merged, e.OpLevel, accKeysPerTx*crossN)
	ss := &ShardStats{
		Shards: shards, Cross: crossN, Intra: x - crossN,
		PerShardTxs: make([]int, shards),
	}
	for sh := range sp.byShard {
		ss.PerShardTxs[sh] = len(sp.byShard[sh])
	}
	out := &shardedOutcome{receipts: receipts, ss: ss}

	// validStaged reports whether j's phase-1 result is the sequential
	// result: every read must predate both the intra commits and the
	// earlier cross-shard writes. (Blind deltas carry no reads, so
	// op-level hot-key credits validate vacuously — they commute with
	// everything staged so far.)
	validStaged := func(j int) bool {
		if failed[j] || final[j] != nil || p1rcpt[j] == nil {
			return false
		}
		o := overlays[j]
		for k := range o.reads() {
			if i, ok := minIntraWrite[k]; ok && i < j {
				return false
			}
			if _, ok := cw.abs[k]; ok {
				return false
			}
			if _, ok := cw.delta[k]; ok {
				return false
			}
		}
		return true
	}
	// commitCross records j's committed writes in the cross-write index and
	// runs the ordering checks against later intra results: a cross write a
	// later intra transaction read (that reader is stale), or one a later
	// intra write supersedes (the merged view would show the wrong value to
	// cross readers after that writer), bounds the repair suffix at the
	// *first affected* intra position — j's own result stands, and
	// everything from the first stale or superseding intra result on
	// re-executes against its exact prefix. Delta–delta contact commutes
	// and is exempt.
	bumpAffected := func(j int, list []int) {
		if i := firstAfter(list, j); i >= 0 {
			bump(i)
		}
	}
	commitCross := func(j int, f *overlay) {
		for k := range f.writes() {
			noteMinIdx(cw.abs, k, j)
			bumpAffected(j, intraReads[k])
			bumpAffected(j, intraAbs[k])
			bumpAffected(j, intraDeltas[k])
		}
		for a := range f.deltas() {
			k := deltaKey(a)
			noteMinIdx(cw.delta, k, j)
			bumpAffected(j, intraReads[k])
			bumpAffected(j, intraAbs[k])
		}
	}
	// exactReexec re-executes cross transaction j against its exact
	// sequential prefix, composed in block order from the committed
	// results — the per-transaction repair for a merge re-execution whose
	// merged-view reads folded a later sub-block write (or that failed
	// against the merged prefix, where the failure is not authoritative).
	// Everything before j is committed and valid here: any earlier
	// invalidity would have lowered repairFrom below j and stopped the
	// merge first. An envelope failure against the exact prefix therefore
	// *is* authoritative: the block itself is invalid. Repair positions
	// are strictly increasing within the block, so the prefix accumulator
	// advances incrementally instead of being rebuilt per repair.
	var pacc *overlay
	paccPos := 0
	exactReexec := func(j int) (*overlay, *account.Receipt, error) {
		if pacc == nil {
			pacc = newAccumulator(base, e.OpLevel, accKeysPerTx*x)
		}
		for ; paccPos < j; paccPos++ {
			if f := final[paccPos]; f != nil {
				f.applyTo(pacc)
			}
		}
		ro := newOverlayOp(pacc, e.OpLevel)
		rcpt, err := procDeferred.ApplyTransaction(ro, blk, blk.Txs[j])
		if err != nil {
			return nil, nil, fmt.Errorf("exec: sharded cross tx %d: %w", j, err)
		}
		return ro, rcpt, nil
	}

	// The staged group buffer: consecutive staged-valid transactions commit
	// as one commuting batch when the next merge step forces a flush.
	var group []int
	flushGroup := func() {
		committed := 0
		for _, j := range group {
			// A mid-flush ordering bump can cut the repair point into the
			// group: members at or past it stay uncommitted (the
			// composition pass re-executes them) and must not count as
			// batched.
			if j >= repairFrom {
				break
			}
			o := overlays[j]
			receipts[j] = p1rcpt[j]
			o.applyTo(accX)
			final[j] = o
			commitCross(j, o)
			committed++
		}
		if committed >= 2 {
			ss.BatchedStage += committed
		}
		group = group[:0]
	}

	p := 0
	for p < len(crossIdx) {
		j := crossIdx[p]
		if j >= repairFrom {
			break
		}
		if validStaged(j) {
			// Group members are validated against the incrementally
			// updated cross-write index only at flush time below; to keep
			// the in-group validation exact, flush-time commitCross runs
			// per member, and validStaged here sees cw as of the last
			// flush. A member whose reads hit an earlier member's writes
			// must not batch — close the group and revalidate.
			hit := false
			o := overlays[j]
			for _, g := range group {
				go_ := overlays[g]
				for k := range o.reads() {
					if go_.hasWrite(k) || (k.Kind == kindBalance && go_.hasDelta(k.Addr)) {
						hit = true
					}
				}
				if hit {
					break
				}
			}
			if !hit {
				group = append(group, j)
				p++
				continue
			}
			flushGroup()
			if j >= repairFrom {
				break
			}
			if validStaged(j) {
				group = append(group, j)
				p++
				continue
			}
			// Flushing exposed a real stale read: fall through to
			// re-execution.
		}
		flushGroup()
		if j >= repairFrom {
			break
		}

		// Build a re-execution wave: the maximal run of consecutive cross
		// transactions that all need re-execution and are pairwise
		// key-disjoint by their phase-1 predictions (delta–delta contact
		// exempt). Predictions can be wrong — the in-order commit below
		// revalidates against the wave's actual writes and redoes
		// mispredicted members sequentially at their commit point.
		wave := []int{j}
		waveW := make(map[StateKey]struct{})
		waveR := make(map[StateKey]struct{})
		noteWave := func(o *overlay) {
			for k := range o.writes() {
				waveW[k] = struct{}{}
			}
			for a := range o.deltas() {
				waveW[deltaKey(a)] = struct{}{}
			}
			for k := range o.reads() {
				waveR[k] = struct{}{}
			}
		}
		noteWave(overlays[j])
		for p+len(wave) < len(crossIdx) && len(wave) < e.Workers {
			jn := crossIdx[p+len(wave)]
			if jn >= repairFrom || validStaged(jn) {
				break
			}
			o := overlays[jn]
			indep := true
			for k := range o.reads() {
				if _, w := waveW[k]; w {
					indep = false
					break
				}
			}
			if indep {
				for k := range o.writes() {
					_, w := waveW[k]
					_, r := waveR[k]
					if w || r {
						indep = false
						break
					}
				}
			}
			if indep {
				for a := range o.deltas() {
					k := deltaKey(a)
					// Delta–delta commutes; a delta against a wave
					// member's read or absolute write does not.
					if _, r := waveR[k]; r {
						indep = false
						break
					}
					if waveAbsWrite(waveW, wave, overlays, k) {
						indep = false
						break
					}
				}
			}
			if !indep {
				break
			}
			wave = append(wave, jn)
			noteWave(o)
		}

		// Execute the wave in parallel against the pre-wave merged prefix.
		reader := accX.reader()
		wOverlays := make([]*overlay, len(wave))
		wReceipts := make([]*account.Receipt, len(wave))
		wErr := make([]error, len(wave))
		parallelFor(len(wave), e.Workers, func(w int) {
			o := newOverlayOp(reader, e.OpLevel)
			rcpt, err := procDeferred.ApplyTransaction(o, blk, blk.Txs[wave[w]])
			wOverlays[w], wReceipts[w], wErr[w] = o, rcpt, err
		})
		ss.MergeWaves++
		waveUnits := ceilDiv(len(wave), e.Workers)
		out.mergeUnits += waveUnits
		ss.MergeUnits += waveUnits
		var waveGas uint64

		// In-order commit with revalidation: a member whose actual reads
		// hit an earlier member's actual writes (or that failed against the
		// pre-wave prefix) re-executes sequentially at its commit point.
		committed := make(map[StateKey]struct{})
		noteCommitted := func(f *overlay) {
			for k := range f.writes() {
				committed[k] = struct{}{}
			}
			for a := range f.deltas() {
				committed[deltaKey(a)] = struct{}{}
			}
		}
		for w, jw := range wave {
			if jw >= repairFrom {
				break
			}
			f, rcpt := wOverlays[w], wReceipts[w]
			redone := false
			ok := wErr[w] == nil
			if ok {
				for k := range f.reads() {
					if _, hit := committed[k]; hit {
						ok = false
						break
					}
				}
			}
			if ok {
				// The merged view folds *whole* sub-blocks; the wave run is
				// prefix-correct only if nothing it read was written by an
				// intra transaction ordered after it.
				for k := range f.reads() {
					if lastOf(intraAbs[k]) > jw || lastOf(intraDeltas[k]) > jw {
						ok = false
						break
					}
				}
			}
			if !ok {
				// Mispredicted independence, an envelope failure against
				// the merged prefix, or a merged read that folded a later
				// sub-block write: repair this transaction at its commit
				// point against the exact sequential prefix — one
				// sequential unit, instead of invalidating the block
				// suffix.
				ro, r2, err := exactReexec(jw)
				if err != nil {
					return nil, err
				}
				f, rcpt = ro, r2
				redone = true
				out.redos++
				out.mergeUnits++
				ss.MergeUnits++
			}
			receipts[jw] = rcpt
			final[jw] = f
			reexecuted[jw] = true
			out.mergeReexecs++
			ss.CrossAborts++
			if redone {
				// Redo gas is a sequential commit-point cost, not part of
				// the wave's parallel spread.
				out.mergeGas += costOf(e.Cost, blk.Txs[jw], rcpt)
			} else {
				waveGas += costOf(e.Cost, blk.Txs[jw], rcpt)
			}
			noteCommitted(f)
			f.applyTo(accX)
			commitCross(jw, f)
		}
		out.mergeGas += ceilDivU(waveGas, uint64(e.Workers))
		p += len(wave)
	}
	flushGroup()

	// Composition (and repair) pass: fold every committed result into the
	// block accumulator strictly in block order — absolute values land as
	// writes, deltas as commutative increments, so the in-order fold
	// reproduces the sequential composition (a later intra write correctly
	// supersedes an earlier cross write, unlike a fold that applies whole
	// sub-blocks first). From repairFrom on, results are suspect: each such
	// transaction re-executes against the accumulator, which at its turn
	// holds exactly the sequential prefix — so the repair is authoritative,
	// and an envelope failure here means the block itself is invalid.
	acc := newAccumulator(base, e.OpLevel, accKeysPerTx*x)
	for i := 0; i < x; i++ {
		if i < repairFrom && final[i] != nil {
			final[i].applyTo(acc)
			continue
		}
		ro := newOverlayOp(acc, e.OpLevel)
		rcpt, err := procDeferred.ApplyTransaction(ro, blk, blk.Txs[i])
		if err != nil {
			return nil, fmt.Errorf("exec: sharded repair tx %d: %w", i, err)
		}
		receipts[i] = rcpt
		ro.applyTo(acc)
		final[i] = ro
		if cross[i] && !reexecuted[i] {
			ss.CrossAborts++
		}
		reexecuted[i] = true
		out.repairs++
		out.repairGas += costOf(e.Cost, blk.Txs[i], rcpt)
	}
	out.acc = acc
	ss.Repairs = out.repairs
	ss.Fallback = x > 0 && out.repairs == x

	// Schedule-length accounting, paper unit-cost model: the per-shard
	// pipelines run concurrently (max over shards of phase 1 + bin), the
	// cross-shard merge costs ⌈wave/n⌉ per re-execution wave plus one unit
	// per commit redo (validated applications, like winner applies, are
	// free), and the repair pass appends its suffix sequentially. Because
	// each shard's pipeline is credited ⌈n/s⌉ workers, s·⌈n/s⌉ can exceed
	// n when s does not divide n; the intra stage is therefore floored by
	// the total core-budget bound — all intra work over n cores — so
	// configurations like Workers=2, Shards=8 cannot report an 8-way
	// speed-up.
	var gasTotal, gasBinTotal uint64
	for sh := range sp.byShard {
		n := len(sp.byShard[sh])
		spread, u := 0, 0
		if n > 0 {
			spread = ceilDiv(n, wps)
			u = spread + outcomes[sh].binned
		}
		// Gas counterpart of u: the shard's phase 1 spreads the sub-block's
		// gas over its workers, the shard-local bin re-executes its gas
		// sequentially — the same two terms as the speculative engine's
		// GasPar, per shard.
		var g uint64
		for _, i := range sp.byShard[sh] {
			if receipts[i] != nil {
				g += costOf(e.Cost, blk.Txs[i], receipts[i])
			}
		}
		var spreadGas, shardGas uint64
		if g > 0 {
			spreadGas = ceilDivU(g, uint64(wps))
			shardGas = spreadGas + outcomes[sh].gasBin
		}
		if spread > out.spreadUnits {
			out.spreadUnits = spread
		}
		if u > out.intraUnits {
			out.intraUnits = u
		}
		if spreadGas > out.spreadGas {
			out.spreadGas = spreadGas
		}
		if shardGas > out.intraGas {
			out.intraGas = shardGas
		}
		out.binned += outcomes[sh].binned
		gasTotal += g
		gasBinTotal += outcomes[sh].gasBin
	}
	if x > 0 {
		if floor := ceilDiv(x, e.Workers); floor > out.spreadUnits {
			out.spreadUnits = floor
		}
		if floor := ceilDiv(x+out.binned, e.Workers); floor > out.intraUnits {
			out.intraUnits = floor
		}
	}
	if gasTotal > 0 {
		if floor := ceilDivU(gasTotal, uint64(e.Workers)); floor > out.spreadGas {
			out.spreadGas = floor
		}
	}
	if gasTotal+gasBinTotal > 0 {
		if floor := ceilDivU(gasTotal+gasBinTotal, uint64(e.Workers)); floor > out.intraGas {
			out.intraGas = floor
		}
	}
	for _, r := range reexecuted {
		if r {
			out.conflicted++
		}
	}
	// Every overlay that reads through the shard, cross and prefix
	// accumulators is dead by now; the composition accumulator lives on in
	// out.acc until the caller has committed it.
	for sh := range outcomes {
		outcomes[sh].acc.release()
	}
	accX.release()
	if pacc != nil {
		pacc.release()
	}
	return out, nil
}

// waveAbsWrite reports whether any wave member absolutely wrote k (as
// opposed to delta-writing it): waveW conflates the two kinds, so the
// delta-candidate check walks the members' write sets directly.
func waveAbsWrite(waveW map[StateKey]struct{}, wave []int, overlays []*overlay, k StateKey) bool {
	if _, any := waveW[k]; !any {
		return false
	}
	for _, j := range wave {
		if overlays[j].hasWrite(k) {
			return true
		}
	}
	return false
}

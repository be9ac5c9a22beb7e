package exec

import (
	"fmt"
	"time"

	"txconcur/internal/account"
)

// STMExec is an optimistic execution engine in the style the paper's
// related-work section attributes to Dickerson et al. [6] (and which later
// production systems like Block-STM industrialised): transactions execute
// speculatively in parallel and commit strictly in block order with
// read-set validation; a transaction whose reads were invalidated by an
// earlier commit re-executes at its commit point.
//
// The block runs in windows of Workers transactions over one block
// accumulator. Every transaction of a window speculates on its own
// recording overlay over the accumulator, which holds the commits of all
// earlier windows; then the window commits in block order. A transaction
// is stale when a key it read or wrote is in the window's written set —
// the keys its earlier commits wrote or delta-wrote, retries included —
// and stale or envelope-failed transactions retry inline, where nothing
// can commit between execution and commit. This is the abort rule of a
// TL2-style store under the same schedule: there every absolute write
// reads first, and no commit lands while a window speculates.
//
// Unlike Speculative (one global parallel phase, then one sequential bin),
// STMExec pipelines in windows of n transactions, so a conflict only costs
// the conflicting transaction a retry instead of demoting it to a fully
// sequential phase.
type STMExec struct {
	// Workers is the core count n; it is also the lookahead window.
	Workers int
	// OpLevel records AddBalance/SubBalance as blind commutative deltas
	// instead of read-modify-writes: concurrent credits to one hot account
	// commit without aborting each other, and only an explicit balance
	// read re-establishes a dependency on the key.
	OpLevel bool
	// Cost overrides the per-transaction schedule weight used for the
	// GasSeq/GasPar accounting; nil charges the receipt's gas.
	Cost CostModel
}

// Execute runs the block on st (mutated on success).
func (e STMExec) Execute(st *account.StateDB, blk *account.Block) (*Result, error) {
	if e.Workers < 1 {
		return nil, ErrNoWorkers
	}
	//txlint:clock wall-clock timing metric for reported stats only; committed state never depends on it
	start := time.Now()
	x := len(blk.Txs)
	acc := newAccumulator(st, e.OpLevel, accKeysPerTx*x)
	receipts := make([]*account.Receipt, x)
	overlays := make([]*overlay, min(e.Workers, x))
	specErrs := make([]error, len(overlays))
	written := make(map[StateKey]struct{})

	retries := 0
	parUnits := 0
	var gasRetried uint64
	for lo := 0; lo < x; lo += e.Workers {
		window := blk.Txs[lo:min(lo+e.Workers, x)]
		parUnits++

		// Speculate the whole window in parallel; the accumulator is
		// read-only until the window commits.
		parallelFor(len(window), e.Workers, func(i int) {
			o := newOverlayOp(acc, e.OpLevel)
			receipts[lo+i], specErrs[i] = procDeferred.ApplyTransaction(o, blk, window[i])
			overlays[i] = o
		})

		// Commit strictly in block order; retry inline on conflict.
		clear(written)
		for i, tx := range window {
			o := overlays[i]
			stale := specErrs[i] != nil
			for k := range o.keysWith(ovRead | ovWrote) {
				if _, hit := written[k]; hit {
					stale = true
					break
				}
			}
			if stale {
				// Nothing commits between this execution and its commit,
				// so an error now means the block itself is invalid.
				o = newOverlayOp(acc, e.OpLevel)
				rcpt, err := procDeferred.ApplyTransaction(o, blk, tx)
				if err != nil {
					return nil, fmt.Errorf("exec: stm retry tx %d: %w", lo+i, err)
				}
				receipts[lo+i] = rcpt
				retries++
				parUnits++
				gasRetried += costOf(e.Cost, tx, rcpt)
			}
			o.applyTo(acc)
			for k := range o.keysWith(ovWrote | ovDelta) {
				written[k] = struct{}{}
			}
		}
	}
	acc.applyTo(st)
	acc.release()
	finalizeBlock(st, blk, receipts)

	gasSeq := costSum(e.Cost, blk.Txs, receipts)
	res := &Result{Receipts: receipts, Root: st.Root()}
	res.Stats = Stats{
		Workers:    e.Workers,
		Txs:        x,
		Conflicted: retries,
		SeqUnits:   x,
		ParUnits:   parUnits,
		GasSeq:     gasSeq,
		// The speculation spread over the workers, then every retry
		// sequentially at its commit point — the charge Speculative and
		// the sharded engine make for phase 1 and re-execution.
		GasPar:  ceilDivU(gasSeq, uint64(e.Workers)) + gasRetried,
		Retries: retries,
		//txlint:clock wall-clock timing metric only
		Wall: time.Since(start),
	}
	res.Stats.finish()
	return res, nil
}

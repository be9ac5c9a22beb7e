package exec

import (
	"fmt"
	"time"

	"txconcur/internal/account"
	"txconcur/internal/core"
)

// PerfectSpeculative is the perfect-information variant of the two-phase
// scheme that the paper models in §V-A: with a-priori knowledge of the
// conflict set ("If we have perfect prior information about which
// transactions are going to conflict"), only the unconflicted transactions
// run in the parallel phase — nothing is executed twice — at the price of a
// pre-processing step of cost K (here: building the TDG from the supplied
// receipts).
//
// Its schedule length is the model's T′ = K + ⌈(1−c)x/n⌉ + c·x, making it
// the direct executable counterpart of core.PerfectInfoSpeedup.
type PerfectSpeculative struct {
	// Workers is the core count n.
	Workers int
	// Receipts supplies the conflict oracle (the block's known receipts).
	// When nil, a sequential pre-run derives them.
	Receipts []*account.Receipt
	// PreprocessCost is the model's K in time units, added to the
	// schedule-length accounting (the work itself — TDG construction — is
	// performed for real either way).
	PreprocessCost int
	// Cost overrides the per-transaction schedule weight used for the
	// GasSeq/GasPar accounting; nil charges the receipt's gas.
	Cost CostModel
}

// Execute runs the block on st (mutated on success).
func (e PerfectSpeculative) Execute(st *account.StateDB, blk *account.Block) (*Result, error) {
	if e.Workers < 1 {
		return nil, ErrNoWorkers
	}
	//txlint:clock wall-clock timing metric for reported stats only; committed state never depends on it
	start := time.Now()
	x := len(blk.Txs)

	receipts := e.Receipts
	if receipts == nil {
		pre := st.Copy()
		seq, err := Sequential(pre, blk)
		if err != nil {
			return nil, fmt.Errorf("exec: perfect pre-run: %w", err)
		}
		receipts = seq.Receipts
	}
	// The conflict oracle: the TDG's conflicted transactions. This is the
	// paper's set "which transactions are going to conflict" — note it is
	// *address-level*, coarser than the storage-level sets phase 1 of the
	// blind engine discovers, so no conflicted transaction can slip into
	// the parallel phase.
	tdg := core.BuildAccount(core.ViewFromReceipts(blk, receipts))
	conflicted := make([]bool, x)
	numConflicted := 0
	for i := range blk.Txs {
		if tdg.ComponentTxCount[tdg.TxComponent[i]] >= 2 {
			conflicted[i] = true
			numConflicted++
		}
	}

	// Parallel phase: unconflicted transactions only, on per-transaction
	// overlays over the pre-state. By the address-level TDG, an
	// unconflicted transaction shares no address with *any* other
	// transaction of the block, so its phase-1 result is final.
	// (Correctness therefore rests on the oracle being faithful to st —
	// that is what "perfect prior information" means in the paper's model;
	// for untrusted oracles use Grouped, which validates and falls back.)
	overlays := make([]*overlay, x)
	receiptsOut := make([]*account.Receipt, x)
	errs := make([]error, x)
	parallelFor(x, e.Workers, func(i int) {
		if conflicted[i] {
			return
		}
		o := newOverlayOp(st, false)
		rcpt, err := procDeferred.ApplyTransaction(o, blk, blk.Txs[i])
		errs[i] = err
		overlays[i] = o
		receiptsOut[i] = rcpt
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("exec: perfect parallel tx %d: %w", i, err)
		}
	}
	for i, o := range overlays {
		if o != nil && !conflicted[i] {
			o.applyTo(st)
		}
	}

	// Sequential phase: the conflicted transactions, in block order.
	for i, tx := range blk.Txs {
		if !conflicted[i] {
			continue
		}
		rcpt, err := procDeferred.ApplyTransaction(st, blk, tx)
		if err != nil {
			return nil, fmt.Errorf("exec: perfect sequential tx %d: %w", i, err)
		}
		receiptsOut[i] = rcpt
	}
	finalizeBlock(st, blk, receiptsOut)

	res := &Result{Receipts: receiptsOut, Root: st.Root()}
	parUnits := e.PreprocessCost + ceilDiv(x-numConflicted, e.Workers) + numConflicted
	if x == 0 {
		parUnits = 0
	}
	res.Stats = Stats{
		Workers:    e.Workers,
		Txs:        x,
		Conflicted: numConflicted,
		SeqUnits:   x,
		ParUnits:   parUnits,
		GasSeq:     costSum(e.Cost, blk.Txs, receiptsOut),
		GasPar:     ceilDivU(costSum(e.Cost, blk.Txs, receiptsOut), uint64(e.Workers)),
		//txlint:clock wall-clock timing metric only
		Wall: time.Since(start),
	}
	res.Stats.finish()
	return res, nil
}

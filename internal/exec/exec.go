package exec

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"txconcur/internal/account"
	"txconcur/internal/core"
	"txconcur/internal/sched"
	"txconcur/internal/types"
)

// Engine errors.
var (
	// ErrNoWorkers reports an executor configured with fewer than one
	// worker.
	ErrNoWorkers = errors.New("exec: need at least one worker")
	// ErrGroupOverlap reports an oracle-TDG group schedule whose groups
	// touched overlapping state — a serial-equivalence violation (always a
	// bug: TDG components share no addresses).
	ErrGroupOverlap = errors.New("exec: scheduled groups touched overlapping state")
)

// Result is the outcome of executing one block.
type Result struct {
	// Receipts are the per-transaction receipts, in block order.
	Receipts []*account.Receipt
	// Root is the state root after the block (fees and reward included).
	Root types.Hash
	// Stats describes the execution schedule.
	Stats Stats
}

// Stats quantifies one engine run in the paper's unit-cost model plus wall
// time.
type Stats struct {
	// Workers is the configured core count n.
	Workers int
	// Txs is the number of transactions x.
	Txs int
	// Conflicted is the number of transactions the engine serialised: the
	// speculative bin of [17], the grouped engine's non-singleton
	// components, or STM aborts.
	Conflicted int
	// SeqUnits is the sequential execution time T = x under the paper's
	// unit-cost model.
	SeqUnits int
	// ParUnits is the engine's schedule length T′ in time units.
	ParUnits int
	// Speedup is SeqUnits/ParUnits — directly comparable to the paper's
	// equations (1) and (2).
	Speedup float64
	// GasSeq and GasPar are the same two quantities under gas costs
	// (real per-transaction weights) instead of unit costs.
	GasSeq uint64
	GasPar uint64
	// GasSpeedup is GasSeq/GasPar.
	GasSpeedup float64
	// Wall is the wall-clock duration of the execution phases.
	Wall time.Duration
	// Retries counts re-executions (STM aborts, speculative bin size).
	Retries int
}

func (s *Stats) finish() {
	s.Speedup = 1
	if s.ParUnits > 0 {
		s.Speedup = float64(s.SeqUnits) / float64(s.ParUnits)
	}
	s.GasSpeedup = 1
	if s.GasPar > 0 {
		s.GasSpeedup = float64(s.GasSeq) / float64(s.GasPar)
	}
}

// CostModel maps a committed transaction to its schedule weight. Engines
// that expose a Cost field use it in place of the receipt's gas wherever
// GasSeq/GasPar are accounted, so Stats.GasSpeedup becomes a speed-up
// under *measured* costs (e.g. an rwset trace's recorded gas) instead of
// the VM's. A nil model charges rcpt.GasUsed — the previous behaviour.
// Cost models must be pure: they are consulted from worker goroutines and
// may be called more than once per transaction.
type CostModel func(tx *account.Transaction, rcpt *account.Receipt) uint64

// costOf resolves one transaction's schedule weight under the model.
func costOf(m CostModel, tx *account.Transaction, rcpt *account.Receipt) uint64 {
	if rcpt == nil {
		return 0
	}
	if m == nil {
		return rcpt.GasUsed
	}
	return m(tx, rcpt)
}

// costSum is Σ costOf over a block's receipts.
func costSum(m CostModel, txs []*account.Transaction, rcpts []*account.Receipt) uint64 {
	if m == nil {
		return account.GasUsed(rcpts)
	}
	var sum uint64
	for i, r := range rcpts {
		if r == nil || i >= len(txs) {
			continue
		}
		sum += m(txs[i], r)
	}
	return sum
}

// procDeferred is the shared transaction processor configuration: fees are
// credited in one batch so that per-transaction coinbase payments do not
// serialise parallel schedules (see account.Processor.DeferCoinbase).
var procDeferred = account.Processor{DeferCoinbase: true}

// finalizeBlock credits the deferred fees and the block reward, exactly as
// the sequential ApplyBlock does.
func finalizeBlock(st *account.StateDB, blk *account.Block, receipts []*account.Receipt) {
	st.AddBalance(blk.Coinbase, account.Fees(blk.Txs, receipts))
	st.AddBalance(blk.Coinbase, account.BlockReward)
	st.DiscardJournal()
}

// Sequential executes the block in order on st — the baseline every public
// blockchain implements (§II-A). st is mutated.
func Sequential(st *account.StateDB, blk *account.Block) (*Result, error) {
	//txlint:clock wall-clock timing metric for reported stats only; committed state never depends on it
	start := time.Now()
	x := len(blk.Txs)
	receipts := make([]*account.Receipt, 0, x)
	for i, tx := range blk.Txs {
		rcpt, err := procDeferred.ApplyTransaction(st, blk, tx)
		if err != nil {
			return nil, fmt.Errorf("exec: sequential tx %d: %w", i, err)
		}
		receipts = append(receipts, rcpt)
	}
	finalizeBlock(st, blk, receipts)
	res := &Result{Receipts: receipts, Root: st.Root()}
	res.Stats = Stats{
		Workers:  1,
		Txs:      x,
		SeqUnits: x,
		ParUnits: x,
		GasSeq:   account.GasUsed(receipts),
		GasPar:   account.GasUsed(receipts),
		//txlint:clock wall-clock timing metric only
		Wall: time.Since(start),
	}
	res.Stats.finish()
	return res, nil
}

// Speculative is the two-phase engine of Saraph & Herlihy [17], modelled by
// the paper's equation (1): phase one executes every transaction
// concurrently against the pre-block state, recording read/write sets at
// storage granularity; any transaction touching state written by another is
// moved to a bin; phase two re-executes the bin sequentially.
type Speculative struct {
	// Workers is the core count n used for schedule-length accounting.
	// Phase one runs on min(Workers, GOMAXPROCS) OS threads, so simulated
	// speed-ups for n = 64 remain meaningful on small machines.
	Workers int
	// OpLevel enables operation-level conflict refinement: balance credits
	// and debits are recorded as commutative deltas, so transactions that
	// only *add* to a shared account (hot-wallet deposits, flash-crowd
	// payments) no longer conflict with each other — only with readers and
	// absolute writers of that balance. Off, the engine uses the key-level
	// read/write rule of [17] that the paper's equation (1) models.
	OpLevel bool
	// Cost overrides the per-transaction schedule weight used for the
	// GasSeq/GasPar accounting; nil charges the receipt's gas.
	Cost CostModel
}

// Execute runs the block on st (mutated on success).
//
// Soundness: winners (unconflicted transactions) are pairwise independent
// by the symmetric conflict rule, so their phase-1 results equal their
// sequential results. The hazard is phase 2 itself: a binned transaction's
// *re-execution* can touch keys phase 1 never saw it touch (different
// branch after seeing different values, or an envelope failure that
// produced no phase-1 access sets) — in both directions. Its re-execution
// must not *observe* a later-ordered winner's write, so Execute stages the
// block into the accumulator strictly in block order (a binned transaction
// sees exactly its sequential prefix, never a later winner). And if its
// re-execution *writes* a key that a later-ordered winner touched, that
// winner's phase-1 result is stale: winners are validated against the
// per-transaction phase-2 write logs, with a fallback to plain sequential
// execution of the whole block (from the untouched pre-state) when the
// validation fails — rare in practice, counted in Stats.Retries.
func (e Speculative) Execute(st *account.StateDB, blk *account.Block) (*Result, error) {
	if e.Workers < 1 {
		return nil, ErrNoWorkers
	}
	//txlint:clock wall-clock timing metric only
	start := time.Now()
	x := len(blk.Txs)

	// Phase 1: every transaction runs on its own overlay over the
	// immutable pre-block state, all in parallel.
	overlays := make([]*overlay, x)
	phase1Receipts := make([]*account.Receipt, x)
	phase1Fail := make([]bool, x)
	parallelFor(x, e.Workers, func(i int) {
		o := newOverlayOp(st, e.OpLevel)
		rcpt, err := procDeferred.ApplyTransaction(o, blk, blk.Txs[i])
		if err != nil {
			// Envelope failure against the pre-block state (e.g. a nonce
			// that depends on an earlier in-block transaction): binned for
			// sequential re-execution, like any other conflict.
			phase1Fail[i] = true
		} else {
			phase1Receipts[i] = rcpt
		}
		overlays[i] = o
	})

	// Conflict detection: symmetric storage-layer rule of [17] — every
	// transaction involved in a collision goes to the sequential bin (the
	// conservative reading the paper discusses in §III-A5).
	ac := countAccesses(overlays)
	binned := make([]bool, x)
	numBinned := 0
	for i, o := range overlays {
		if phase1Fail[i] || o.conflicted(ac) {
			binned[i] = true
			numBinned++
		}
	}

	// Phase 2: stage the block into an accumulator overlay strictly in
	// block order (nothing touches st yet) — winners contribute their
	// phase-1 overlays, binned transactions re-execute against the exact
	// prefix staged so far. Ordered staging matters: a binned transaction's
	// re-execution may read keys its phase-1 run never touched, and those
	// reads must observe only *earlier* transactions, never a later
	// winner's write. Each binned transaction's writes are logged (delta
	// writes included: a winner that *read* a delta-written balance is
	// stale); phase2MinWriter[k] is the smallest binned index that wrote k.
	acc := newAccumulator(st, e.OpLevel, accKeysPerTx*x)
	receipts := make([]*account.Receipt, x)
	phase2MinWriter := make(map[StateKey]int)
	logWriter := func(k StateKey, i int) {
		if _, seen := phase2MinWriter[k]; !seen {
			phase2MinWriter[k] = i
		}
	}
	for i, tx := range blk.Txs {
		if !binned[i] {
			overlays[i].applyTo(acc)
			receipts[i] = phase1Receipts[i]
			continue
		}
		o := newOverlayOp(acc, e.OpLevel)
		rcpt, err := procDeferred.ApplyTransaction(o, blk, tx)
		if err != nil {
			return nil, fmt.Errorf("exec: speculative phase 2, tx %d: %w", i, err)
		}
		receipts[i] = rcpt
		for k := range o.writes() {
			logWriter(k, i)
		}
		for a := range o.deltas() {
			logWriter(deltaKey(a), i)
		}
		o.applyTo(acc)
	}

	// Validate winners: a winner is stale if a binned transaction that
	// precedes it in block order wrote a key the winner read or absolutely
	// wrote. A winner's *delta* writes need no check: deltas commute with
	// every phase-2 write to the same balance (absolute balance writes do
	// not exist in op-level mode), so the accumulated sum is order-free.
	valid := true
	if len(phase2MinWriter) > 0 {
	validate:
		for i, o := range overlays {
			if binned[i] {
				continue
			}
			for k := range o.writes() {
				if j, ok := phase2MinWriter[k]; ok && j < i {
					valid = false
					break validate
				}
			}
			for k := range o.reads() {
				if j, ok := phase2MinWriter[k]; ok && j < i {
					valid = false
					break validate
				}
			}
		}
	}

	retried := 0
	if valid {
		acc.applyTo(st)
	} else {
		// Sound fallback: the pre-state is untouched; execute the whole
		// block sequentially.
		for i, tx := range blk.Txs {
			rcpt, err := procDeferred.ApplyTransaction(st, blk, tx)
			if err != nil {
				return nil, fmt.Errorf("exec: speculative fallback tx %d: %w", i, err)
			}
			receipts[i] = rcpt
			retried++
		}
	}
	acc.release()
	finalizeBlock(st, blk, receipts)

	var gasBin uint64
	for i, r := range receipts {
		if binned[i] {
			gasBin += costOf(e.Cost, blk.Txs[i], r)
		}
	}
	gasSeq := costSum(e.Cost, blk.Txs, receipts)
	res := &Result{Receipts: receipts, Root: st.Root()}
	res.Stats = Stats{
		Workers:    e.Workers,
		Txs:        x,
		Conflicted: numBinned,
		SeqUnits:   x,
		// T′ = ⌈x/n⌉ + c·x: the exact form of the paper's equation (1)
		// (⌊x/n⌋+1 is its printed upper bound), plus the rare full
		// sequential fallback.
		ParUnits: ceilDiv(x, e.Workers) + numBinned + retried,
		GasSeq:   gasSeq,
		GasPar:   ceilDivU(gasSeq, uint64(e.Workers)) + gasBin,
		Retries:  numBinned + retried,
		//txlint:clock wall-clock timing metric only
		Wall: time.Since(start),
	}
	if x == 0 {
		res.Stats.ParUnits = 0
	}
	res.Stats.finish()
	return res, nil
}

// Grouped is the group-concurrency engine the paper's equation (2) models:
// connected components of the TDG are scheduled onto workers with LPT and
// executed in parallel; transactions within a component run sequentially in
// block order. Components share no addresses, so workers never race.
type Grouped struct {
	// Workers is the core count n.
	Workers int
	// Approx builds the TDG from regular transactions only (no internal
	// transactions), the a-priori approximation of §V-C. Hidden conflicts
	// are detected by write-set overlap and repaired by sequential
	// re-execution, and counted in Stats.Retries.
	Approx bool
	// Refined schedules on the operation-level TDG
	// (core.BuildAccountRefined): pure delta–delta edges — transfers whose
	// receiver is only ever credited within the block — do not merge
	// components, so hot-key deposits spread across workers instead of
	// serialising in one giant group. Workers then record balance credits
	// as commutative deltas, which the overlap validation permits across
	// workers (the credits commute); everything else still overlaps as
	// before.
	Refined bool
	// Receipts optionally supplies the block's known receipts (oracle
	// TDG). When nil, a sequential pre-run on a copy derives them — the
	// pre-processing step whose cost the paper calls K.
	Receipts []*account.Receipt
	// Cost overrides the per-transaction schedule weight used for the
	// gas-weighted LPT schedule and the GasSeq/GasPar accounting; nil
	// charges the receipt's gas.
	Cost CostModel
}

// Execute runs the block on st (mutated on success).
func (e Grouped) Execute(st *account.StateDB, blk *account.Block) (*Result, error) {
	if e.Workers < 1 {
		return nil, ErrNoWorkers
	}
	//txlint:clock wall-clock timing metric only
	start := time.Now()
	x := len(blk.Txs)

	receipts := e.Receipts
	if receipts == nil {
		pre := st.Copy()
		seq, err := Sequential(pre, blk)
		if err != nil {
			return nil, fmt.Errorf("exec: grouped pre-run: %w", err)
		}
		receipts = seq.Receipts
	}
	groups := groupsFromReceipts(blk, receipts, e.Approx, e.Refined)

	// LPT-schedule groups onto workers, unit cost per transaction.
	jobs := make([]int, len(groups))
	for gi, g := range groups {
		jobs[gi] = len(g)
	}
	schedule, err := sched.LPT(jobs, e.Workers)
	if err != nil {
		return nil, fmt.Errorf("exec: grouped: %w", err)
	}
	gasJobs := scheduleGas(groups, blk, receipts, e.Cost)
	gasSchedule, err := sched.LPT(gasJobs, e.Workers)
	if err != nil {
		return nil, fmt.Errorf("exec: grouped: %w", err)
	}

	// Execute: one overlay per worker; groups within a worker run
	// sequentially, transactions within a group in block order. Each
	// worker records its own transactions' receipts (disjoint slots, so no
	// synchronisation is needed): the supplied receipts drive *scheduling*
	// only, never the result.
	workerOverlays := make([]*overlay, e.Workers)
	workerErrs := make([]error, e.Workers)
	workerReceipts := make([]*account.Receipt, x)
	parallelFor(e.Workers, e.Workers, func(w int) {
		o := newOverlayOp(st, e.Refined)
		workerOverlays[w] = o
		for _, gi := range schedule.Assignments[w] {
			for _, ti := range groups[gi] {
				rcpt, err := procDeferred.ApplyTransaction(o, blk, blk.Txs[ti])
				if err != nil {
					workerErrs[w] = fmt.Errorf("group %d tx %d: %w", gi, ti, err)
					return
				}
				workerReceipts[ti] = rcpt
			}
		}
	})

	// Validate: with the oracle TDG, workers can never overlap (components
	// share no addresses) and never fail (per-sender order is preserved
	// inside components). With the approximate TDG of §V-C, internal
	// transactions are invisible, so hidden cross-group conflicts are
	// possible; they are detected here and repaired by discarding the
	// parallel attempt and executing the block sequentially — a sound
	// fallback whose frequency is exactly the "effectiveness of the
	// approximate TDG" the paper leaves as future work. Nothing is
	// committed until validation passes, so repair needs no rollback.
	clean := !anyOverlap(workerOverlays, workerErrs)
	retried := 0
	finalReceipts := make([]*account.Receipt, x)
	if clean {
		for _, o := range workerOverlays {
			o.applyTo(st)
		}
		copy(finalReceipts, workerReceipts)
	} else {
		if !e.Approx {
			return nil, ErrGroupOverlap
		}
		for i, tx := range blk.Txs {
			rcpt, err := procDeferred.ApplyTransaction(st, blk, tx)
			if err != nil {
				return nil, fmt.Errorf("exec: grouped fallback tx %d: %w", i, err)
			}
			finalReceipts[i] = rcpt
			retried++
		}
	}
	finalizeBlock(st, blk, finalReceipts)

	conflicted := 0
	for _, g := range groups {
		if len(g) >= 2 {
			conflicted += len(g)
		}
	}
	parUnits := schedule.Makespan + retried
	gasPar := uint64(gasSchedule.Makespan)
	if retried > 0 {
		gasPar += costSum(e.Cost, blk.Txs, finalReceipts)
	}
	res := &Result{Receipts: finalReceipts, Root: st.Root()}
	res.Stats = Stats{
		Workers:    e.Workers,
		Txs:        x,
		Conflicted: conflicted,
		SeqUnits:   x,
		ParUnits:   parUnits,
		GasSeq:     costSum(e.Cost, blk.Txs, finalReceipts),
		GasPar:     gasPar,
		Retries:    retried,
		//txlint:clock wall-clock timing metric only
		Wall: time.Since(start),
	}
	res.Stats.finish()
	return res, nil
}

// anyOverlap reports whether any worker failed or any state key was written
// by one worker and read or written by another. Delta writes are exempt
// from the delta–delta case only: two workers blindly crediting the same
// balance commute, but a delta still overlaps with another worker's read or
// absolute write of that key.
func anyOverlap(overlays []*overlay, errs []error) bool {
	for _, err := range errs {
		if err != nil {
			return true
		}
	}
	writer := make(map[StateKey]int)
	for w, o := range overlays {
		if o == nil {
			continue
		}
		for k := range o.writes() {
			if prev, ok := writer[k]; ok && prev != w {
				return true
			}
			writer[k] = w
		}
	}
	// deltaOwner[k] is the sole delta-writing worker, or -1 once several
	// workers delta-write k (legal between themselves).
	deltaOwner := make(map[StateKey]int)
	for w, o := range overlays {
		if o == nil {
			continue
		}
		for a := range o.deltas() {
			k := deltaKey(a)
			if fw, ok := writer[k]; ok && fw != w {
				return true
			}
			if prev, ok := deltaOwner[k]; !ok {
				deltaOwner[k] = w
			} else if prev != w {
				deltaOwner[k] = -1
			}
		}
	}
	for w, o := range overlays {
		if o == nil {
			continue
		}
		for k := range o.reads() {
			if fw, ok := writer[k]; ok && fw != w {
				return true
			}
			if dw, ok := deltaOwner[k]; ok && dw != w {
				return true
			}
		}
	}
	return false
}

// parallelFor runs fn(i) for i in [0, n) on up to `workers` goroutines
// (capped by GOMAXPROCS; extra logical workers add no parallelism).
func parallelFor(n, workers int, fn func(int)) {
	if workers > runtime.GOMAXPROCS(0) {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	if workers == 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// ceilDiv returns ⌈a/b⌉ for ints. A non-positive divisor is always a
// misconfigured worker or bin count that the caller failed to validate
// (every engine rejects Workers < 1 with ErrNoWorkers before scheduling);
// returning a silently, as an earlier version did, masked such bugs as
// plausible-looking schedule lengths.
func ceilDiv(a, b int) int {
	if b <= 0 {
		panic(fmt.Sprintf("exec: ceilDiv with non-positive divisor %d", b))
	}
	return (a + b - 1) / b
}

// ceilDivU returns ⌈a/b⌉ for uint64s. As with ceilDiv, a zero divisor is a
// caller bug and panics rather than masquerading as a schedule length.
func ceilDivU(a, b uint64) uint64 {
	if b == 0 {
		panic("exec: ceilDivU with zero divisor")
	}
	return (a + b - 1) / b
}

// groupsFromReceipts builds the TDG transaction groups for a block given
// its receipts (oracle mode) or from regular transactions only (approx).
// refined drops pure delta–delta edges (operation-level scheduling).
func groupsFromReceipts(blk *account.Block, receipts []*account.Receipt, approx, refined bool) [][]int {
	v := core.ViewFromReceipts(blk, receipts)
	if approx {
		v = &core.AccountBlockView{Regular: v.Regular, GasUsed: v.GasUsed, Transfer: v.Transfer}
	}
	var tdg *core.TDG
	if refined {
		tdg = core.BuildAccountRefined(v)
	} else if approx {
		tdg = core.BuildAccountApprox(v)
	} else {
		tdg = core.BuildAccount(v)
	}
	return tdg.TxGroups()
}

// scheduleGas converts transaction groups into cost-weighted job lengths
// (the receipt's gas under a nil model).
func scheduleGas(groups [][]int, blk *account.Block, receipts []*account.Receipt, cost CostModel) []int {
	jobs := make([]int, len(groups))
	for gi, g := range groups {
		for _, ti := range g {
			if ti < len(receipts) && receipts[ti] != nil {
				jobs[gi] += int(costOf(cost, blk.Txs[ti], receipts[ti]))
			}
		}
	}
	return jobs
}

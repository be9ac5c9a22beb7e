package exec

import (
	"errors"
	"fmt"
	"time"

	"txconcur/internal/account"
	"txconcur/internal/stm"
	"txconcur/internal/types"
)

// STMExec is an optimistic execution engine in the style the paper's
// related-work section attributes to Dickerson et al. [6] (and which later
// production systems like Block-STM industrialised): transactions execute
// speculatively in parallel through a software transactional memory, and
// commit strictly in block order with read-set validation; a transaction
// whose reads were invalidated by an earlier commit re-executes at its
// commit point.
//
// Unlike Speculative (one global parallel phase, then one sequential bin),
// STMExec pipelines in windows of n transactions, so a conflict only costs
// the conflicting transaction a retry instead of demoting it to a fully
// sequential phase.
type STMExec struct {
	// Workers is the core count n; it is also the lookahead window.
	Workers int
	// OpLevel records AddBalance/SubBalance as blind commutative deltas
	// (stm.Tx.WriteDelta) instead of read-modify-writes: concurrent credits
	// to one hot account commit without aborting each other, and only an
	// explicit balance read re-establishes a dependency on the key.
	OpLevel bool
	// Cost overrides the per-transaction schedule weight used for the
	// GasSeq/GasPar accounting; nil charges the receipt's gas.
	Cost CostModel
}

// stateVal is the uniform cell type stored in the STM: exactly one of the
// fields is meaningful for a given key kind.
type stateVal struct {
	i64   int64  // balances
	u64   uint64 // nonces, storage
	bytes []byte // code
}

// stmState adapts an stm.Tx over a base StateDB to the account.State
// interface. vm.State methods cannot return errors, so STM conflicts
// detected mid-transaction latch into err and the executor retries the
// whole transaction.
type stmState struct {
	base *account.StateDB
	tx   *stm.Tx[StateKey, stateVal]
	// op selects operation-level (delta) balance semantics.
	op bool
	// journal undoes buffered writes for VM Snapshot/Revert semantics.
	journal []func(*stmState)
	err     error
}

var _ account.State = (*stmState)(nil)

func (s *stmState) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// readVal reads through the transaction with base fallback. Missing keys
// are recorded in the read set (version 0), so later writes to them are
// detected at commit.
func (s *stmState) readVal(k StateKey) (stateVal, bool) {
	v, ok, err := s.tx.Read(k)
	if err != nil {
		s.fail(err)
		return stateVal{}, false
	}
	return v, ok
}

// currentVal returns the value the adapter currently exposes for k: the
// transaction's buffered write, else the committed store value, else the
// base state.
func (s *stmState) currentVal(k StateKey) stateVal {
	if v, ok := s.readVal(k); ok {
		return v
	}
	return baseVal(s.base, k)
}

// writeVal buffers a write and journals the previously visible value, so
// that VM frame reverts restore exactly what a fresh read would have seen
// (the write set cannot shrink, but rewriting the prior value is
// semantically identical).
func (s *stmState) writeVal(k StateKey, v stateVal) {
	prev := s.currentVal(k)
	s.journal = append(s.journal, func(s *stmState) {
		_ = s.tx.Write(k, prev)
	})
	if err := s.tx.Write(k, v); err != nil {
		s.fail(err)
	}
}

// GetBalance implements vm.State.
func (s *stmState) GetBalance(a types.Address) int64 {
	k := StateKey{Kind: kindBalance, Addr: a}
	if s.op {
		// Materialise over the base state: committed delta cells and this
		// transaction's own pending deltas fold onto the base balance. The
		// read is version-recorded, so later delta commits by others still
		// invalidate us — reading re-establishes the dependency.
		v, err := s.tx.ReadBase(k, stateVal{i64: s.base.GetBalance(a)})
		if err != nil {
			s.fail(err)
			return 0
		}
		return v.i64
	}
	if v, ok := s.readVal(k); ok {
		return v.i64
	}
	return s.base.GetBalance(a)
}

// AddBalance implements vm.State.
func (s *stmState) AddBalance(a types.Address, v int64) {
	k := StateKey{Kind: kindBalance, Addr: a}
	if s.op {
		// Blind commutative increment: no read, no read-set entry, no
		// conflict with concurrent increments. The journal entry is the
		// inverse delta, which restores the exact pending sum on revert.
		s.journal = append(s.journal, func(s *stmState) {
			_ = s.tx.WriteDelta(k, stateVal{i64: -v})
		})
		if err := s.tx.WriteDelta(k, stateVal{i64: v}); err != nil {
			s.fail(err)
		}
		return
	}
	cur := s.GetBalance(a)
	s.writeVal(k, stateVal{i64: cur + v})
}

// SubBalance implements vm.State.
func (s *stmState) SubBalance(a types.Address, v int64) { s.AddBalance(a, -v) }

// GetNonce implements account.State.
func (s *stmState) GetNonce(a types.Address) uint64 {
	k := StateKey{Kind: kindNonce, Addr: a}
	if v, ok := s.readVal(k); ok {
		return v.u64
	}
	return s.base.GetNonce(a)
}

// SetNonce implements account.State.
func (s *stmState) SetNonce(a types.Address, n uint64) {
	s.writeVal(StateKey{Kind: kindNonce, Addr: a}, stateVal{u64: n})
}

// GetCode implements vm.State.
func (s *stmState) GetCode(a types.Address) []byte {
	k := StateKey{Kind: kindCode, Addr: a}
	if v, ok := s.readVal(k); ok {
		return v.bytes
	}
	return s.base.GetCode(a)
}

// SetCode implements account.State.
func (s *stmState) SetCode(a types.Address, code []byte) {
	c := make([]byte, len(code))
	copy(c, code)
	s.writeVal(StateKey{Kind: kindCode, Addr: a}, stateVal{bytes: c})
}

// GetStorage implements vm.State.
func (s *stmState) GetStorage(a types.Address, slot uint64) uint64 {
	k := StateKey{Kind: kindStorage, Addr: a, Slot: slot}
	if v, ok := s.readVal(k); ok {
		return v.u64
	}
	return s.base.GetStorage(a, slot)
}

// SetStorage implements vm.State.
func (s *stmState) SetStorage(a types.Address, slot, value uint64) {
	s.writeVal(StateKey{Kind: kindStorage, Addr: a, Slot: slot}, stateVal{u64: value})
}

// Snapshot implements vm.State.
func (s *stmState) Snapshot() int { return len(s.journal) }

// RevertToSnapshot implements vm.State.
func (s *stmState) RevertToSnapshot(snap int) {
	for i := len(s.journal) - 1; i >= snap; i-- {
		s.journal[i](s)
	}
	s.journal = s.journal[:snap]
}

// mergeStateVal folds a balance delta onto a state cell; only the i64
// (balance) field is ever delta-written.
func mergeStateVal(onto, delta stateVal) stateVal {
	onto.i64 += delta.i64
	return onto
}

// Execute runs the block on st (mutated on success).
func (e STMExec) Execute(st *account.StateDB, blk *account.Block) (*Result, error) {
	if e.Workers < 1 {
		return nil, ErrNoWorkers
	}
	//txlint:clock wall-clock timing metric for reported stats only; committed state never depends on it
	start := time.Now()
	x := len(blk.Txs)
	var store *stm.Store[StateKey, stateVal]
	if e.OpLevel {
		store = stm.NewStoreDelta[StateKey, stateVal](mergeStateVal)
	} else {
		store = stm.NewStore[StateKey, stateVal]()
	}
	receipts := make([]*account.Receipt, x)

	retries := 0
	parUnits := 0
	committed := 0
	for committed < x {
		hi := committed + e.Workers
		if hi > x {
			hi = x
		}
		window := blk.Txs[committed:hi]
		parUnits += ceilDiv(len(window), e.Workers)

		// Speculate the whole window in parallel.
		states := make([]*stmState, len(window))
		specReceipts := make([]*account.Receipt, len(window))
		specErrs := make([]error, len(window))
		parallelFor(len(window), e.Workers, func(i int) {
			ss := &stmState{base: st, tx: store.Begin(), op: e.OpLevel}
			rcpt, err := procDeferred.ApplyTransaction(ss, blk, window[i])
			if err == nil && ss.err != nil {
				err = ss.err
			}
			states[i] = ss
			specReceipts[i] = rcpt
			specErrs[i] = err
		})

		// Commit strictly in block order; re-execute on conflict at the
		// commit point (where no concurrent commits can intervene).
		for i := range window {
			idx := committed + i
			ok := specErrs[i] == nil
			if ok {
				if err := states[i].tx.Commit(); err != nil {
					if !errors.Is(err, stm.ErrConflict) {
						return nil, fmt.Errorf("exec: stm commit tx %d: %w", idx, err)
					}
					ok = false
				}
			} else {
				states[i].tx.Abort()
			}
			if ok {
				receipts[idx] = specReceipts[i]
				continue
			}
			// Retry inline: nothing commits between Begin and Commit here,
			// so this attempt cannot conflict; an error now means the
			// block itself is invalid.
			retries++
			parUnits++
			ss := &stmState{base: st, tx: store.Begin(), op: e.OpLevel}
			rcpt, err := procDeferred.ApplyTransaction(ss, blk, window[i])
			if err == nil && ss.err != nil {
				err = ss.err
			}
			if err != nil {
				return nil, fmt.Errorf("exec: stm retry tx %d: %w", idx, err)
			}
			if err := ss.tx.Commit(); err != nil {
				return nil, fmt.Errorf("exec: stm retry commit tx %d: %w", idx, err)
			}
			receipts[idx] = rcpt
		}
		committed = hi
	}

	// Fold the committed STM cells into the state database. Anchored cells
	// hold absolute values; unanchored balance cells hold the pure delta
	// accumulated by blind credits, applied on top of the base balance.
	store.RangeCells(func(k StateKey, v stateVal, anchored bool) bool {
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
	})
	finalizeBlock(st, blk, receipts)

	res := &Result{Receipts: receipts, Root: st.Root()}
	res.Stats = Stats{
		Workers:    e.Workers,
		Txs:        x,
		Conflicted: retries,
		SeqUnits:   x,
		ParUnits:   parUnits,
		GasSeq:     costSum(e.Cost, blk.Txs, receipts),
		GasPar:     0,
		Retries:    retries,
		//txlint:clock wall-clock timing metric only
		Wall: time.Since(start),
	}
	// Gas-cost schedule: each window costs its max gas across workers plus
	// retried gas; approximate with Σ window-max. Unit-cost is the primary
	// model; gas parallel time is estimated as GasSeq/Workers bounded
	// below by the largest transaction.
	res.Stats.GasPar = ceilDivU(res.Stats.GasSeq, uint64(e.Workers))
	res.Stats.finish()
	return res, nil
}

package wal

import (
	"fmt"
	"sync"

	"txconcur/internal/account"
	"txconcur/internal/basestore"
	"txconcur/internal/types"
)

// LazyState is a recovered checkpoint viewed through fault-in: Recover
// copies genesis and loads only the checkpoint store's key index, and each
// state read or write pulls exactly the stored keys it touches off disk
// over the genesis copy before delegating to that in-RAM StateDB.
// Replaying a short log suffix therefore costs IO proportional to the keys
// the suffix touches, not to the number of keys the chain ever changed.
// Materialize faults in everything that remains and returns the plain
// StateDB.
//
// LazyState implements account.State, so the sequential processor can
// replay blocks over it directly. Methods are mutex-guarded; disk or
// decode failures latch (the read signatures cannot return errors) and
// surface from Err and Materialize.
type LazyState struct {
	mu     sync.Mutex
	store  *basestore.Store // nil for genesis, and after Materialize
	db     *account.StateDB
	loaded map[string]bool
	faults int
	err    error
}

var _ account.State = (*LazyState)(nil)

// newLazyState layers an opened checkpoint store over base. The store
// stays owned by its Dir.
func newLazyState(store *basestore.Store, base *account.StateDB) *LazyState {
	return &LazyState{store: store, db: base, loaded: make(map[string]bool)}
}

// eagerLazyState wraps an already-complete StateDB (the genesis fallback);
// every key counts as loaded.
func eagerLazyState(db *account.StateDB) *LazyState {
	return &LazyState{db: db}
}

// ensure faults one key in from the checkpoint store. Absent keys are
// remembered too, so each key hits the index at most once.
func (ls *LazyState) ensure(kind byte, addr types.Address, slot uint64) {
	if ls.store == nil {
		return
	}
	key := basestore.EncodeKey(addr, kind, slot)
	ks := string(key)
	if ls.loaded[ks] {
		return
	}
	ls.loaded[ks] = true
	val, ok, err := ls.store.Get(key)
	if err != nil {
		ls.fail(err)
		return
	}
	if !ok {
		return
	}
	ls.faults++
	if err := basestore.InstallEntry(ls.db, key, val); err != nil {
		ls.fail(err)
	}
}

func (ls *LazyState) fail(err error) {
	if ls.err == nil {
		ls.err = fmt.Errorf("wal: lazy recovery: %w", err)
	}
}

// Err returns the first latched fault-in failure, if any.
func (ls *LazyState) Err() error {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.err
}

// Faults returns the number of keys faulted in on demand (Materialize's
// bulk load is not counted).
func (ls *LazyState) Faults() int {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.faults
}

// Materialize faults in every remaining checkpoint key and returns the
// fully loaded StateDB. Idempotent; the returned StateDB is the same
// instance the lazy view wrote through, so replay done before Materialize
// is preserved.
func (ls *LazyState) Materialize() (*account.StateDB, error) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.store != nil {
		err := ls.store.Range(func(key string, val []byte) bool {
			if len(key) != basestore.KeySize {
				return true // checkpoint meta entry
			}
			if ls.loaded[key] {
				return true // faulted earlier; possibly overwritten by replay since
			}
			if e := basestore.InstallEntry(ls.db, []byte(key), val); e != nil {
				ls.fail(e)
				return false
			}
			return true
		})
		if err != nil {
			ls.fail(err)
		}
		ls.store = nil
		ls.loaded = nil
	}
	if ls.err != nil {
		return nil, ls.err
	}
	return ls.db, nil
}

// GetBalance implements vm.State.
func (ls *LazyState) GetBalance(a types.Address) int64 {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.ensure(basestore.KindBalance, a, 0)
	return ls.db.GetBalance(a)
}

// AddBalance implements vm.State. The key is faulted in first so the
// write lands on the checkpointed value.
func (ls *LazyState) AddBalance(a types.Address, v int64) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.ensure(basestore.KindBalance, a, 0)
	ls.db.AddBalance(a, v)
}

// SubBalance implements vm.State.
func (ls *LazyState) SubBalance(a types.Address, v int64) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.ensure(basestore.KindBalance, a, 0)
	ls.db.SubBalance(a, v)
}

// GetNonce implements account.State.
func (ls *LazyState) GetNonce(a types.Address) uint64 {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.ensure(basestore.KindNonce, a, 0)
	return ls.db.GetNonce(a)
}

// SetNonce implements account.State.
func (ls *LazyState) SetNonce(a types.Address, n uint64) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.ensure(basestore.KindNonce, a, 0)
	ls.db.SetNonce(a, n)
}

// GetCode implements vm.State.
func (ls *LazyState) GetCode(a types.Address) []byte {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.ensure(basestore.KindCode, a, 0)
	return ls.db.GetCode(a)
}

// SetCode implements account.State.
func (ls *LazyState) SetCode(a types.Address, code []byte) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.ensure(basestore.KindCode, a, 0)
	ls.db.SetCode(a, code)
}

// GetStorage implements vm.State.
func (ls *LazyState) GetStorage(a types.Address, slot uint64) uint64 {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.ensure(basestore.KindStorage, a, slot)
	return ls.db.GetStorage(a, slot)
}

// SetStorage implements vm.State. Faulting in first keeps the journal's
// previous-value entry correct, so VM reverts restore the checkpointed
// word.
func (ls *LazyState) SetStorage(a types.Address, slot, value uint64) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.ensure(basestore.KindStorage, a, slot)
	ls.db.SetStorage(a, slot, value)
}

// Snapshot implements vm.State.
func (ls *LazyState) Snapshot() int {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.db.Snapshot()
}

// RevertToSnapshot implements vm.State. Fault-in uses the non-journaled
// Install methods, so reverting never undoes a checkpoint load.
func (ls *LazyState) RevertToSnapshot(id int) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.db.RevertToSnapshot(id)
}

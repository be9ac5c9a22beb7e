package exec

import (
	"sync"
	"sync/atomic"

	"txconcur/internal/account"
	"txconcur/internal/basestore"
	"txconcur/internal/types"
)

// StateBackend is the sharded chain drivers' seam to the disk-backed base
// layer (internal/basestore.Store is the production implementation): cold
// keys evicted from the mvstore version caches are folded into it, and cache
// misses read through to it, so the cache holds only hot keys and total
// state can exceed RAM. Implementations must be safe for concurrent use —
// speculative workers read while the committer evicts.
//
// Keys and values use the basestore state-entry codec
// (basestore.EncodeKey / basestore.StateEntries); Get's second result is
// false when the backend holds no entry for the key.
type StateBackend interface {
	Get(key []byte) ([]byte, bool, error)
	Apply(entries []basestore.Entry) error
	Range(fn func(key string, val []byte) bool) error
}

// baseState is the read-only subset of account.State the speculative
// snapshots fall through to on a cache miss: the immutable pre-chain
// StateDB, or a backedState layering the disk base layer over it.
type baseState interface {
	GetBalance(types.Address) int64
	GetNonce(types.Address) uint64
	GetCode(types.Address) []byte
	GetStorage(types.Address, uint64) uint64
}

// kindByte maps an exec state-key kind to the basestore codec's constant.
func kindByte(k keyKind) byte {
	switch k {
	case kindBalance:
		return basestore.KindBalance
	case kindNonce:
		return basestore.KindNonce
	case kindCode:
		return basestore.KindCode
	case kindStorage:
		return basestore.KindStorage
	}
	panic("exec: invalid state-key kind")
}

// encodeStateKey encodes a StateKey for the backend.
func encodeStateKey(k StateKey) []byte {
	return basestore.EncodeKey(k.Addr, kindByte(k.Kind), k.Slot)
}

// encodeStateVal encodes a fully materialised state value for the backend.
func encodeStateVal(k StateKey, v stateVal) []byte {
	switch k.Kind {
	case kindBalance:
		return basestore.EncodeU64(uint64(v.i64))
	case kindCode:
		return v.bytes
	default: // nonce, storage
		return basestore.EncodeU64(v.u64)
	}
}

// backedState layers a StateBackend between the version cache and the
// immutable pre-chain StateDB: evicted keys resolve from the backend,
// everything else falls through to the pre-chain state. Reads are safe for
// concurrent use. Backend read or decode failures cannot surface through
// the account.State read signatures, so they latch: the chain drivers
// check Err at every commit point and abort the chain — a read that
// latched an error returns the pre-chain fallback, which the abort makes
// unobservable.
type backedState struct {
	st *account.StateDB
	be StateBackend

	// cold counts backend hits — reads the version cache had evicted.
	cold atomic.Uint64

	errMu sync.Mutex
	err   error
}

var _ baseState = (*backedState)(nil)

func (b *backedState) fail(err error) {
	b.errMu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.errMu.Unlock()
}

// Err returns the first latched backend failure, if any.
func (b *backedState) Err() error {
	b.errMu.Lock()
	defer b.errMu.Unlock()
	return b.err
}

// ColdReads returns the number of reads served by the backend.
func (b *backedState) ColdReads() int { return int(b.cold.Load()) }

// lookup fetches one backend entry; ok is false on absence (fall through
// to the pre-chain state) and on a latched error.
func (b *backedState) lookup(kind keyKind, a types.Address, slot uint64) ([]byte, bool) {
	v, ok, err := b.be.Get(basestore.EncodeKey(a, kindByte(kind), slot))
	if err != nil {
		b.fail(err)
		return nil, false
	}
	if ok {
		b.cold.Add(1)
	}
	return v, ok
}

func (b *backedState) u64(kind keyKind, a types.Address, slot uint64) (uint64, bool) {
	v, ok := b.lookup(kind, a, slot)
	if !ok {
		return 0, false
	}
	u, err := basestore.DecodeU64(v)
	if err != nil {
		b.fail(err)
		return 0, false
	}
	return u, true
}

func (b *backedState) GetBalance(a types.Address) int64 {
	if u, ok := b.u64(kindBalance, a, 0); ok {
		return int64(u)
	}
	return b.st.GetBalance(a)
}

func (b *backedState) GetNonce(a types.Address) uint64 {
	if u, ok := b.u64(kindNonce, a, 0); ok {
		return u
	}
	return b.st.GetNonce(a)
}

func (b *backedState) GetCode(a types.Address) []byte {
	if v, ok := b.lookup(kindCode, a, 0); ok {
		return v
	}
	return b.st.GetCode(a)
}

func (b *backedState) GetStorage(a types.Address, slot uint64) uint64 {
	if u, ok := b.u64(kindStorage, a, slot); ok {
		return u
	}
	return b.st.GetStorage(a, slot)
}

// foldBackendInto installs every backend entry into st — the base-layer
// half of the end-of-chain fold (and of checkpoint materialisation). Runs
// before the version-cache fold: cache chains are strictly newer than the
// base values their keys evicted to, so the cache fold wins per key.
func foldBackendInto(be StateBackend, st *account.StateDB) error {
	var ierr error
	err := be.Range(func(key string, val []byte) bool {
		if e := basestore.InstallEntry(st, []byte(key), val); e != nil {
			ierr = e
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	return ierr
}

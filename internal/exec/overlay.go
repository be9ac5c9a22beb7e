// Package exec implements the parallel transaction execution engines whose
// absence the paper names as its main limitation (§VII: "we have not
// designed and implemented an execution engine that can exploit the
// available concurrency"):
//
//   - Sequential: the baseline all public blockchains use today (§II-A).
//   - Speculative: the two-phase scheme of Saraph & Herlihy [17] that the
//     paper's equation (1) models — execute everything in parallel against
//     the pre-block state, then re-execute conflicted transactions
//     sequentially.
//   - Grouped: the TDG/group-concurrency engine the paper's equation (2)
//     models — connected components are scheduled onto workers (LPT) and
//     run in parallel, since components share no addresses.
//   - STMExec: an optimistic engine that speculates in windows of n
//     transactions and commits them in block order, retrying those whose
//     reads an earlier commit of the window invalidated (the design
//     direction of Dickerson et al. [6] and of later systems such as
//     Block-STM).
//   - Sharded: state partitioned by a pluggable core.ShardMap (static
//     FNV-1a by default), each shard running its sub-block on its own
//     speculative pipeline, with — unlike the Zilliqa design of §II-B — a
//     deterministic two-phase cross-shard commit for the transactions that
//     span committees: commuting staged groups commit in batches, aborted
//     ones re-execute in parallel waves, and ordering overlaps are
//     repaired per transaction. Its chain driver composes it with
//     per-shard persistent mvstore instances so phase 1 of block b+1
//     overlaps the cross-shard commit of block b (with one shard, the
//     Octopus-style two-phase pipeline); with an adaptive map
//     (internal/heat.AdaptiveMap) it additionally learns per-address
//     conflict heat across blocks, rebalances hot conflict communities at
//     epoch boundaries with deterministic state migration between the
//     per-shard stores, and orders its merge waves by the same heat
//     signal.
//
// Every parallel engine additionally supports operation-level conflict
// refinement (the OpLevel/Refined fields): balance credits and debits are
// recorded as commutative deltas rather than read-modify-writes, so blind
// credits to a hot key (exchange deposits, flash-crowd payments) do not
// conflict with each other — only with reads and absolute writes. See
// docs/ARCHITECTURE.md, "Operation-level conflict refinement".
//
// Every engine proves serial equivalence: its final state root must equal
// the sequential root, and the tests enforce it.
package exec

import (
	"iter"
	"sync"

	"txconcur/internal/account"
	"txconcur/internal/mvstore"
	"txconcur/internal/types"
	"txconcur/internal/vm"
)

// keyKind distinguishes the classes of state a transaction can touch.
type keyKind uint8

// Key kinds. Values start at one so the zero StateKey is invalid.
const (
	kindBalance keyKind = iota + 1
	kindNonce
	kindCode
	kindStorage
)

// StateKey identifies one unit of state at conflict-detection granularity:
// an account's balance, nonce or code, or a single storage slot. This is
// the storage-layer granularity of [17], strictly finer than the paper's
// address-level TDG.
type StateKey struct {
	Kind keyKind
	Addr types.Address
	Slot uint64
}

// overlay is a read/write-recording state layered over an immutable base
// (a StateDB, or another overlay for chaining). Phase-1 speculative
// executions run on one overlay per transaction; the overlay records
// exactly which keys were touched.
//
// In operation-level mode (newOverlayOp) balance mutations are recorded as
// commutative *deltas* instead of read-modify-writes: AddBalance/SubBalance
// accumulate an increment without reading the base, so a blind credit to a
// hot account neither depends on nor invalidates concurrent credits — only
// an explicit GetBalance materialises the value and establishes a real
// dependency. In key-level mode balances behave like every
// other key: an absolute write preceded by a read, the conflict granularity
// of [17].
//
// Storage is one entry per touched key, in first-touch order: the access
// flags, the buffered value and the code bytes live side by side, so the
// access sets (reads, writes, deltas) and applyTo walk a slice in a
// deterministic order. A transaction touches a handful of keys, so lookup
// scans linearly; past ovLinearMax entries a key→position index is built
// once and kept in step. The journal holds value-undo records.
// Invariant: never hold an *ovEntry across a call that may append to
// entries (slot, read, or any getter/setter of this overlay) — the append
// can move the backing array and the pointer then writes into a dead copy.
//
// Block accumulators (newAccumulator) are the same structure with the
// recording switched off: they buffer values applied into them, keep no
// journal and no read set, and are pooled.
//
// The base must not be mutated while overlays over it are live.
type overlay struct {
	base account.State
	// op selects operation-level (delta) balance semantics.
	op bool
	// acc marks a block accumulator: nothing executes on it or reverts it,
	// so it journals nothing and records no reads.
	acc bool

	entries []ovEntry
	// index maps a key to its position in entries; nil until the overlay
	// outgrows linear scans.
	index   map[StateKey]int32
	journal []ovUndo

	// Inline backing for a plain transfer's entries and journal, so a
	// transaction overlay is one allocation.
	entryBuf   [4]ovEntry
	journalBuf [6]ovUndo
}

// ovLinearMax is the entry count up to which lookups scan instead of
// hashing.
const ovLinearMax = 8

// ovFlags says what an overlay entry records.
type ovFlags uint8

const (
	// ovRead and ovWrote put the key in the read and write sets. Both are
	// sticky: a revert keeps reverted keys in the access sets, which is
	// conservative (may flag extra conflicts, never misses one).
	ovRead ovFlags = 1 << iota
	ovWrote
	// ovVal and ovDelta say the entry buffers an absolute value or an
	// operation-level balance increment. Both are journaled, so a reverted
	// delta leaves the delta set.
	ovVal
	ovDelta

	ovValueBits = ovVal | ovDelta
)

// ovEntry is one touched key. num holds a balance (as int64 bits), a
// balance delta, a nonce or a storage value; code holds contract code.
type ovEntry struct {
	key   StateKey
	flags ovFlags
	num   uint64
	code  []byte
}

// ovUndo restores entry idx's value bits, number and code on revert.
type ovUndo struct {
	idx   int32
	flags ovFlags
	num   uint64
	code  []byte
}

var _ account.State = (*overlay)(nil)

// newOverlayOp returns an overlay in operation-level (delta-write) mode
// when opLevel is true, key-level mode otherwise.
func newOverlayOp(base account.State, opLevel bool) *overlay {
	o := &overlay{base: base, op: opLevel}
	o.entries = o.entryBuf[:0]
	o.journal = o.journalBuf[:0]
	return o
}

// accKeysPerTx sizes block accumulators: a transfer writes three keys
// (the sender's nonce and balance, the recipient's balance).
const accKeysPerTx = 3

// accPool recycles block accumulators across blocks.
var accPool = sync.Pool{New: func() any { return new(overlay) }}

// newAccumulator returns a block accumulator over base, presized for
// sizeHint keys: a journal-free overlay that only buffers the values
// applied into it, in first-touch order, for one block's composition. It
// comes from a pool; the owner calls release at a fixed point once nothing
// reads it (directly, through a reader, or as the base of another overlay).
func newAccumulator(base account.State, opLevel bool, sizeHint int) *overlay {
	o := accPool.Get().(*overlay)
	o.base, o.op, o.acc = base, opLevel, true
	if cap(o.entries) < sizeHint {
		o.entries = make([]ovEntry, 0, sizeHint)
	}
	if o.index == nil && sizeHint > ovLinearMax {
		o.index = make(map[StateKey]int32, sizeHint)
	}
	return o
}

// release empties an accumulator and returns it to the pool.
func (o *overlay) release() {
	clear(o.entries) // drop code references
	o.entries = o.entries[:0]
	clear(o.index)
	o.base = nil
	accPool.Put(o)
}

// find returns the position of k's entry, or -1.
func (o *overlay) find(k StateKey) int {
	if o.index != nil {
		if i, ok := o.index[k]; ok {
			return int(i)
		}
		return -1
	}
	for i := range o.entries {
		if o.entries[i].key == k {
			return i
		}
	}
	return -1
}

// slot returns the position of k's entry, appending an empty one on first
// touch.
func (o *overlay) slot(k StateKey) int {
	if i := o.find(k); i >= 0 {
		return i
	}
	i := len(o.entries)
	o.entries = append(o.entries, ovEntry{key: k})
	switch {
	case o.index != nil:
		o.index[k] = int32(i)
	case len(o.entries) > ovLinearMax:
		o.index = make(map[StateKey]int32, 2*len(o.entries))
		for j := range o.entries {
			o.index[o.entries[j].key] = int32(j)
		}
	}
	return i
}

// read records k in the read set and returns its entry position.
// Accumulators record nothing and return -1 for an untouched key.
func (o *overlay) read(k StateKey) int {
	if o.acc {
		return o.find(k)
	}
	i := o.slot(k)
	o.entries[i].flags |= ovRead
	return i
}

// set journals entry i's value and installs a new one: an absolute value
// (ovVal, which also puts the key in the write set) or a delta (ovDelta).
func (o *overlay) set(i int, kind ovFlags, num uint64, code []byte) {
	e := &o.entries[i]
	if !o.acc {
		o.journal = append(o.journal, ovUndo{idx: int32(i), flags: e.flags & ovValueBits, num: e.num, code: e.code})
	}
	e.flags = e.flags&^ovValueBits | kind
	if kind == ovVal {
		e.flags |= ovWrote
	}
	e.num, e.code = num, code
}

// The value getters resolve entry i (or -1) against the base.

func (o *overlay) balanceAt(i int, a types.Address) int64 {
	if i >= 0 {
		switch e := &o.entries[i]; {
		case e.flags&ovVal != 0:
			return int64(e.num)
		case e.flags&ovDelta != 0:
			return o.base.GetBalance(a) + int64(e.num)
		}
	}
	return o.base.GetBalance(a)
}

func (o *overlay) nonceAt(i int, a types.Address) uint64 {
	if i >= 0 && o.entries[i].flags&ovVal != 0 {
		return o.entries[i].num
	}
	return o.base.GetNonce(a)
}

func (o *overlay) codeAt(i int, a types.Address) []byte {
	if i >= 0 && o.entries[i].flags&ovVal != 0 {
		return o.entries[i].code
	}
	return o.base.GetCode(a)
}

func (o *overlay) storageAt(i int, a types.Address, slot uint64) uint64 {
	if i >= 0 && o.entries[i].flags&ovVal != 0 {
		return o.entries[i].num
	}
	return o.base.GetStorage(a, slot)
}

// GetBalance implements vm.State.
func (o *overlay) GetBalance(a types.Address) int64 {
	return o.balanceAt(o.read(StateKey{Kind: kindBalance, Addr: a}), a)
}

// AddBalance implements vm.State.
func (o *overlay) AddBalance(a types.Address, v int64) {
	k := StateKey{Kind: kindBalance, Addr: a}
	if o.op {
		// Operation-level: record a blind commutative increment — no read
		// of the current value, no absolute write.
		i := o.slot(k)
		var d int64
		if o.entries[i].flags&ovDelta != 0 {
			d = int64(o.entries[i].num)
		}
		o.set(i, ovDelta, uint64(d+v), nil)
		return
	}
	cur := o.GetBalance(a)
	o.set(o.slot(k), ovVal, uint64(cur+v), nil)
}

// SubBalance implements vm.State.
func (o *overlay) SubBalance(a types.Address, v int64) { o.AddBalance(a, -v) }

// GetNonce implements account.State.
func (o *overlay) GetNonce(a types.Address) uint64 {
	return o.nonceAt(o.read(StateKey{Kind: kindNonce, Addr: a}), a)
}

// SetNonce implements account.State.
func (o *overlay) SetNonce(a types.Address, n uint64) {
	o.set(o.slot(StateKey{Kind: kindNonce, Addr: a}), ovVal, n, nil)
}

// GetCode implements vm.State.
func (o *overlay) GetCode(a types.Address) []byte {
	return o.codeAt(o.read(StateKey{Kind: kindCode, Addr: a}), a)
}

// SetCode implements account.State.
func (o *overlay) SetCode(a types.Address, code []byte) {
	c := make([]byte, len(code))
	copy(c, code)
	o.set(o.slot(StateKey{Kind: kindCode, Addr: a}), ovVal, 0, c)
}

// GetStorage implements vm.State.
func (o *overlay) GetStorage(a types.Address, slot uint64) uint64 {
	return o.storageAt(o.read(StateKey{Kind: kindStorage, Addr: a, Slot: slot}), a, slot)
}

// SetStorage implements vm.State.
func (o *overlay) SetStorage(a types.Address, slot, value uint64) {
	o.set(o.slot(StateKey{Kind: kindStorage, Addr: a, Slot: slot}), ovVal, value, nil)
}

// Snapshot implements vm.State.
func (o *overlay) Snapshot() int { return len(o.journal) }

// RevertToSnapshot implements vm.State. Reverts values only; read/write
// sets keep reverted keys, which is conservative (may flag extra conflicts,
// never misses one). Accumulators keep no journal and must not be
// reverted.
func (o *overlay) RevertToSnapshot(snap int) {
	if o.acc {
		panic("exec: revert on a block accumulator")
	}
	for j := len(o.journal) - 1; j >= snap; j-- {
		u := &o.journal[j]
		e := &o.entries[u.idx]
		e.flags = e.flags&^ovValueBits | u.flags
		e.num, e.code = u.num, u.code
	}
	clear(o.journal[snap:])
	o.journal = o.journal[:snap]
}

// applyTo writes the overlay's buffered values into dst, in first-touch
// order. Callers guarantee disjointness (or intended ordering) between
// overlays; delta entries commute, so their application order never
// matters.
func (o *overlay) applyTo(dst account.State) {
	for i := range o.entries {
		e := &o.entries[i]
		a := e.key.Addr
		switch {
		case e.flags&ovDelta != 0:
			dst.AddBalance(a, int64(e.num))
		case e.flags&ovVal == 0:
		case e.key.Kind == kindBalance:
			dst.AddBalance(a, int64(e.num)-dst.GetBalance(a))
		case e.key.Kind == kindNonce:
			dst.SetNonce(a, e.num)
		case e.key.Kind == kindCode:
			dst.SetCode(a, e.code)
		case e.key.Kind == kindStorage:
			dst.SetStorage(a, e.key.Slot, e.num)
		}
	}
}

// stateVal is the uniform cell type of the multi-version stores: exactly
// one of the fields is meaningful for a given key kind.
type stateVal struct {
	i64   int64  // balances
	u64   uint64 // nonces, storage
	bytes []byte // code
}

// mergeStateVal folds a balance delta onto a state cell; only the i64
// (balance) field is ever delta-written.
func mergeStateVal(onto, delta stateVal) stateVal {
	onto.i64 += delta.i64
	return onto
}

// mvWrite converts a buffered value into the multi-version store's write
// representation: absolute values as Put versions, accumulated balance
// deltas as DeltaAdd versions that merge with — rather than supersede — the
// chain below them. ok is false for an entry that buffers no value.
func (e *ovEntry) mvWrite() (w mvstore.Write[stateVal], ok bool) {
	switch {
	case e.flags&ovDelta != 0:
		return mvstore.Write[stateVal]{Kind: mvstore.DeltaAdd, Val: stateVal{i64: int64(e.num)}}, true
	case e.flags&ovVal == 0:
		return w, false
	case e.key.Kind == kindBalance:
		return mvstore.Write[stateVal]{Kind: mvstore.Put, Val: stateVal{i64: int64(e.num)}}, true
	case e.key.Kind == kindCode:
		return mvstore.Write[stateVal]{Kind: mvstore.Put, Val: stateVal{bytes: e.code}}, true
	default:
		return mvstore.Write[stateVal]{Kind: mvstore.Put, Val: stateVal{u64: e.num}}, true
	}
}

// The access sets, in first-touch order. reads and writes yield state
// keys; deltas yields the addresses holding a live balance increment.

func (o *overlay) reads() iter.Seq[StateKey]  { return o.keysWith(ovRead) }
func (o *overlay) writes() iter.Seq[StateKey] { return o.keysWith(ovWrote) }

func (o *overlay) keysWith(f ovFlags) iter.Seq[StateKey] {
	return func(yield func(StateKey) bool) {
		for i := range o.entries {
			if o.entries[i].flags&f != 0 && !yield(o.entries[i].key) {
				return
			}
		}
	}
}

func (o *overlay) deltas() iter.Seq[types.Address] {
	return func(yield func(types.Address) bool) {
		for i := range o.entries {
			if o.entries[i].flags&ovDelta != 0 && !yield(o.entries[i].key.Addr) {
				return
			}
		}
	}
}

// has reports whether k's entry carries any of the flags f.
func (o *overlay) has(k StateKey, f ovFlags) bool {
	i := o.find(k)
	return i >= 0 && o.entries[i].flags&f != 0
}

func (o *overlay) hasWrite(k StateKey) bool      { return o.has(k, ovWrote) }
func (o *overlay) hasDelta(a types.Address) bool { return o.has(deltaKey(a), ovDelta) }

// deltaKey builds the state key of a balance delta entry.
func deltaKey(a types.Address) StateKey { return StateKey{Kind: kindBalance, Addr: a} }

// reader returns a read-only, non-recording view of the overlay, safe for
// *concurrent* readers as long as nothing mutates the overlay (or any state
// below it) while readers are live. The cross-shard merge's parallel
// re-execution waves read the committed prefix through readers: a plain
// overlay would record every read into its shared entry slice, racing with
// its siblings. The base chain must itself be safe for concurrent reads
// (StateDB, snapState, mergedState, or another reader — not a bare
// overlay, whose getters record).
func (o *overlay) reader() account.State { return &overlayReader{o: o} }

// overlayReader is the non-recording view behind overlay.reader.
type overlayReader struct{ o *overlay }

var _ account.State = (*overlayReader)(nil)

func (r *overlayReader) GetBalance(a types.Address) int64 {
	return r.o.balanceAt(r.o.find(StateKey{Kind: kindBalance, Addr: a}), a)
}

func (r *overlayReader) GetNonce(a types.Address) uint64 {
	return r.o.nonceAt(r.o.find(StateKey{Kind: kindNonce, Addr: a}), a)
}

func (r *overlayReader) GetCode(a types.Address) []byte {
	return r.o.codeAt(r.o.find(StateKey{Kind: kindCode, Addr: a}), a)
}

func (r *overlayReader) GetStorage(a types.Address, slot uint64) uint64 {
	return r.o.storageAt(r.o.find(StateKey{Kind: kindStorage, Addr: a, Slot: slot}), a, slot)
}

func (r *overlayReader) Snapshot() int                   { return 0 }
func (r *overlayReader) RevertToSnapshot(int)            {}
func (r *overlayReader) AddBalance(types.Address, int64) { panic("exec: write to overlay reader") }
func (r *overlayReader) SubBalance(types.Address, int64) { panic("exec: write to overlay reader") }
func (r *overlayReader) SetNonce(types.Address, uint64)  { panic("exec: write to overlay reader") }
func (r *overlayReader) SetCode(types.Address, []byte)   { panic("exec: write to overlay reader") }
func (r *overlayReader) SetStorage(types.Address, uint64, uint64) {
	panic("exec: write to overlay reader")
}

// accessCounts aggregates, per state key, how many phase-1 transactions
// read, wrote, and delta-wrote it.
type accessCounts struct {
	writers map[StateKey]int
	readers map[StateKey]int
	deltas  map[StateKey]int
}

func countAccesses(overlays []*overlay) accessCounts {
	ac := accessCounts{
		writers: make(map[StateKey]int),
		readers: make(map[StateKey]int),
		deltas:  make(map[StateKey]int),
	}
	for _, o := range overlays {
		if o == nil {
			continue
		}
		for i := range o.entries {
			e := &o.entries[i]
			if e.flags&ovWrote != 0 {
				ac.writers[e.key]++
			}
			if e.flags&ovRead != 0 {
				ac.readers[e.key]++
			}
			if e.flags&ovDelta != 0 {
				ac.deltas[e.key]++
			}
		}
	}
	return ac
}

// conflicted reports whether this overlay's transaction conflicts with any
// other transaction, symmetrically (as in [17], where *all* transactions
// involved in a collision go to the sequential bin): another writer of a
// key we wrote, another reader of a key we wrote, or any writer of a key we
// read. Delta writes are the exception that operation-level concurrency
// exploits: two delta writes to the same key commute and do not conflict;
// a delta write conflicts only with another transaction's read or absolute
// write of that key.
func (o *overlay) conflicted(ac accessCounts) bool {
	for i := range o.entries {
		k, f := o.entries[i].key, o.entries[i].flags
		selfReads, selfDeltas := 0, 0
		if f&ovRead != 0 {
			selfReads = 1
		}
		if f&ovDelta != 0 {
			selfDeltas = 1
		}
		// An absolute write vs anyone's delta: the delta's base moved. (A
		// single overlay never both writes and delta-writes one key, so any
		// delta counted here is another transaction's.)
		if f&ovWrote != 0 && (ac.writers[k] >= 2 || ac.readers[k] > selfReads || ac.deltas[k] >= 1) {
			return true
		}
		if f&ovDelta != 0 && (ac.writers[k] >= 1 || ac.readers[k] > selfReads) {
			return true
		}
		// Reads of a key we wrote are covered by the writer rule above.
		if f&(ovRead|ovWrote) == ovRead && (ac.writers[k] >= 1 || ac.deltas[k] > selfDeltas) {
			return true
		}
	}
	return false
}

// interface check: overlays satisfy the VM contract too.
var _ vm.State = (*overlay)(nil)

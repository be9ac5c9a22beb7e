// Package mvstore implements a multi-version key-value state cache: every
// key carries a chain of timestamped versions, readers see a consistent
// snapshot of the store at any logical timestamp without taking locks, and
// superseded versions are reclaimed by an epoch-style garbage collector
// driven by the oldest pinned snapshot.
//
// The store exists to remove the single-version bottleneck of package stm:
// there, every commit bumps a global clock under one lock and invalidates
// concurrent readers, so execution and validation of consecutive blocks
// serialise on the store. With per-key version chains, block b+1 can
// execute optimistically against the snapshot left by block b-1 while block
// b is still validating and committing — the multi-version substrate behind
// the pipelined two-phase engine in package exec (Octopus-style two-phase
// pipelining; see docs/ARCHITECTURE.md), and behind the per-shard
// persistent stores of the sharded chain engine.
//
// Concurrency contract:
//
//   - Get/ChangedSince/Snapshot.Get are lock-free: one atomic map load plus
//     a walk over immutable version nodes.
//   - Commit calls must carry strictly increasing timestamps and are
//     serialised by the store (the pipeline commits blocks in order, so
//     this costs nothing).
//   - A snapshot at timestamp T observes exactly the versions with ts ≤ T,
//     provided Commit(T, …) had returned before the snapshot was taken.
//   - TruncateBelow never reclaims versions visible to a pinned snapshot.
//
// Delta (commutative) writes: a store built with NewStoreDelta additionally
// accepts DeltaAdd writes (CommitWrites), whose version nodes hold an
// increment rather than an absolute value. Delta versions from different
// commits merge at read time instead of superseding each other: Resolve
// walks the chain, folds every delta at or below the snapshot timestamp
// onto the newest absolute (Put) version — or onto the caller-supplied base
// value when the chain holds no absolute anchor. This is the store-level
// half of operation-level conflict refinement: blind credits/debits to a
// hot key (an exchange wallet, a popular payee) commute, so concurrent
// blocks can all append deltas without invalidating one another, while a
// materialising read still observes every committed delta (ChangedSince
// reports delta commits like any other write, so readers re-validate).
// The garbage collector compacts unreachable delta runs into a single
// folded node instead of unlinking them, since a delta tail below the
// horizon still contributes to every visible materialisation.
//
// Collection cost: only a chain that gained a version on top of an
// existing head can hold anything to reclaim, so every such install is
// queued once, in commit order, and a TruncateBelow pass visits exactly the
// queued installs at or below its cut. A pass therefore costs one chain
// visit per version installed since the previous one (and a copy of the
// queue entries still above the cut), whatever the number of resident keys
// and whether their heads are absolute or delta versions.
package mvstore

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// ErrNonMonotonic reports a commit whose timestamp does not exceed the
// store's latest committed timestamp.
var ErrNonMonotonic = errors.New("mvstore: commit timestamp not increasing")

// ErrNoMerge reports a DeltaAdd write committed to a store built without a
// merge function (NewStore instead of NewStoreDelta).
var ErrNoMerge = errors.New("mvstore: delta write on a store without a merge function")

// WriteKind distinguishes absolute writes from commutative delta writes.
type WriteKind uint8

const (
	// Put installs an absolute value, superseding older versions.
	Put WriteKind = iota
	// DeltaAdd installs an increment that merges with — rather than
	// supersedes — the versions below it. Requires NewStoreDelta.
	DeltaAdd
)

// Write is one entry of a mixed-kind write set for CommitWrites.
type Write[V any] struct {
	Kind WriteKind
	Val  V
}

// version is one immutable entry of a key's version chain: the value
// written at logical timestamp ts, linked to the previous (older) version.
// prev is atomic only so the garbage collector can unlink reclaimed tails
// while readers walk the chain.
type version[V any] struct {
	ts   uint64
	kind WriteKind
	val  V
	prev atomic.Pointer[version[V]]
}

// keyChain is the per-key chain head. Newest version first. ref is the
// clock bit of the cold-key evictor: reads set it, CollectCold clears it
// and skips chains whose bit was set (second chance), so a key must go
// unread for a full eviction pass before it is considered cold. dropped
// marks a chain DropChains removed, so the collector skips queued installs
// that still point at it and never counts its versions twice; guarded by
// commitMu.
type keyChain[V any] struct {
	head    atomic.Pointer[version[V]]
	ref     atomic.Bool
	dropped bool
}

// queuedInstall is one entry of the collector's queue: chain c gained a
// version at ts on top of an existing head.
type queuedInstall[V any] struct {
	c  *keyChain[V]
	ts uint64
}

// Store is a multi-version key-value cache. The zero value is not usable;
// call NewStore (absolute writes only) or NewStoreDelta (absolute plus
// commutative delta writes).
type Store[K comparable, V any] struct {
	chains sync.Map // K → *keyChain[V]

	// merge folds a delta onto a materialised value; nil for stores built
	// with NewStore, which then reject DeltaAdd writes. Immutable after
	// construction.
	merge func(onto, delta V) V

	// commitMu serialises writers (Commit) and the garbage collector.
	// Readers never take it.
	commitMu sync.Mutex
	latest   atomic.Uint64
	// gcq queues every install that superseded an existing head, in commit
	// order and hence ascending ts; TruncateBelow pops the entries at or
	// below its cut, so each superseding install is visited exactly once.
	// Guarded by commitMu.
	gcq []queuedInstall[V]

	// pinMu guards pins. PinLatest reads latest and registers the pin under
	// pinMu, and TruncateBelow computes the reclaim horizon under pinMu, so
	// a snapshot is either visible to the collector or taken after the
	// collection it could have raced with.
	pinMu sync.Mutex
	pins  map[uint64]int

	keys      atomic.Int64
	versions  atomic.Int64
	reclaimed atomic.Int64
}

// NewStore returns an empty store whose latest committed timestamp is 0:
// timestamp 0 denotes "before the first commit", so snapshots at 0 see
// nothing and fall through to whatever base state the caller layers under
// the cache.
func NewStore[K comparable, V any]() *Store[K, V] {
	return &Store[K, V]{pins: make(map[uint64]int)}
}

// NewStoreDelta returns an empty store that additionally accepts DeltaAdd
// writes, merged at read time by merge(onto, delta). merge must be
// associative, and commutative across deltas committed at different
// timestamps (integer addition is the canonical instance) — Resolve folds
// deltas oldest-first, and the garbage collector folds compacted runs in
// the same order, so associativity is what keeps the two equivalent.
func NewStoreDelta[K comparable, V any](merge func(onto, delta V) V) *Store[K, V] {
	s := NewStore[K, V]()
	s.merge = merge
	return s
}

// Latest returns the highest committed timestamp (0 before any commit).
func (s *Store[K, V]) Latest() uint64 { return s.latest.Load() }

// Commit installs writes as new absolute versions at timestamp ts. ts must
// be strictly greater than every previously committed timestamp; commits
// are serialised internally. An empty write set is legal and still advances
// the clock (an empty block is still a block). The new snapshot becomes
// observable — Latest() returns ts — only after every version is installed,
// so readers taking fresh snapshots never see a half-applied commit.
func (s *Store[K, V]) Commit(ts uint64, writes map[K]V) error {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	if err := s.checkTS(ts); err != nil {
		return err
	}
	//txlint:ordered install touches only key k's version chain; the commit becomes visible only after every install
	for k, v := range writes {
		s.install(k, ts, Put, v)
	}
	s.latest.Store(ts)
	return nil
}

// CommitWrites is Commit for a mixed write set of absolute (Put) and
// commutative (DeltaAdd) writes. DeltaAdd entries require a store built
// with NewStoreDelta; on ErrNoMerge nothing is installed and the clock does
// not advance.
func (s *Store[K, V]) CommitWrites(ts uint64, writes map[K]Write[V]) error {
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	if err := s.checkTS(ts); err != nil {
		return err
	}
	if s.merge == nil {
		for _, w := range writes {
			if w.Kind == DeltaAdd {
				return ErrNoMerge
			}
		}
	}
	//txlint:ordered same per-chain installs as Commit; visibility flips only after the loop
	for k, w := range writes {
		s.install(k, ts, w.Kind, w.Val)
	}
	s.latest.Store(ts)
	return nil
}

// checkTS enforces monotonic commit timestamps. Caller holds commitMu.
func (s *Store[K, V]) checkTS(ts uint64) error {
	if prev := s.latest.Load(); ts <= prev {
		return fmt.Errorf("%w: ts %d, latest %d", ErrNonMonotonic, ts, prev)
	}
	return nil
}

// install links one new version at the head of k's chain. Caller holds
// commitMu.
func (s *Store[K, V]) install(k K, ts uint64, kind WriteKind, val V) {
	c := s.chain(k)
	n := &version[V]{ts: ts, kind: kind, val: val}
	if head := c.head.Load(); head != nil {
		n.prev.Store(head)
		s.gcq = append(s.gcq, queuedInstall[V]{c: c, ts: ts})
	}
	c.head.Store(n)
	s.versions.Add(1)
}

// chain returns the version chain for k, creating it if absent.
func (s *Store[K, V]) chain(k K) *keyChain[V] {
	if c, ok := s.chains.Load(k); ok {
		return c.(*keyChain[V])
	}
	c, loaded := s.chains.LoadOrStore(k, new(keyChain[V]))
	if !loaded {
		s.keys.Add(1)
	}
	return c.(*keyChain[V])
}

// Get returns the value of k as of timestamp ts: the newest absolute
// version whose timestamp is ≤ ts, with any deltas between it and ts folded
// in. ok is false when no absolute version anchors the key at or before ts
// (the key was never Put, or holds only deltas — deltas alone cannot be
// materialised without a base; use Resolve for that); callers layering the
// cache over a base state fall through to the base in that case. Lock-free.
func (s *Store[K, V]) Get(k K, ts uint64) (val V, ok bool) {
	c, found := s.chains.Load(k)
	if !found {
		return val, false
	}
	ch := c.(*keyChain[V])
	ch.ref.Store(true)
	var buf [foldBuf]V
	n, deltas := s.walk(ch, ts, buf[:0])
	if n == nil {
		return val, false
	}
	return s.fold(n.val, deltas), true
}

// Resolve returns the value of k as of timestamp ts materialised over base:
// the newest absolute version ≤ ts if one exists (else base), with every
// delta version between it and ts folded on top. A key with no versions at
// or before ts resolves to base unchanged. Lock-free.
func (s *Store[K, V]) Resolve(k K, ts uint64, base V) V {
	c, found := s.chains.Load(k)
	if !found {
		return base
	}
	ch := c.(*keyChain[V])
	ch.ref.Store(true)
	var buf [foldBuf]V
	n, deltas := s.walk(ch, ts, buf[:0])
	if n != nil {
		base = n.val
	}
	return s.fold(base, deltas)
}

// foldBuf is the length of the stack buffer readers and the collector
// gather pending deltas into before folding them: GC keeps a visible chain
// within a few versions of the pipeline depth, so folds spill to the heap
// only on chains a pin has kept long.
const foldBuf = 4

// walk descends c's chain skipping versions newer than ts, appending to
// deltas (newest first) the delta versions above the first absolute
// version ≤ ts. It returns that anchor (nil when the visible chain is
// delta-only or empty) and the extended deltas.
func (s *Store[K, V]) walk(c *keyChain[V], ts uint64, deltas []V) (*version[V], []V) {
	for n := c.head.Load(); n != nil; n = n.prev.Load() {
		if n.ts > ts {
			continue
		}
		if n.kind == Put {
			return n, deltas
		}
		deltas = append(deltas, n.val)
	}
	return nil, deltas
}

// fold applies deltas (given newest first) onto base, oldest first.
func (s *Store[K, V]) fold(base V, deltas []V) V {
	for i := len(deltas) - 1; i >= 0; i-- {
		base = s.merge(base, deltas[i])
	}
	return base
}

// ChangedSince reports whether k was written at any timestamp strictly
// greater than ts — the validation primitive of the pipelined executor: a
// speculative read at snapshot ts is stale iff the key changed since.
// Lock-free.
func (s *Store[K, V]) ChangedSince(k K, ts uint64) bool {
	c, found := s.chains.Load(k)
	if !found {
		return false
	}
	head := c.(*keyChain[V]).head.Load()
	return head != nil && head.ts > ts
}

// RangeLatest calls fn with the newest version of every key until fn
// returns false. Iteration order is unspecified. On delta stores the newest
// version may be a raw delta; use RangeLatestResolved to materialise.
// Intended for folding the cache back into a materialised state once the
// pipeline drains; running it concurrently with Commit yields a mix of old
// and new values, so callers should quiesce writers first.
func (s *Store[K, V]) RangeLatest(fn func(K, V) bool) {
	s.chains.Range(func(k, c any) bool {
		if n := c.(*keyChain[V]).head.Load(); n != nil {
			return fn(k.(K), n.val)
		}
		return true
	})
}

// RangeLatestResolved calls fn with every key's newest materialised value
// until fn returns false. anchored reports whether the chain bottoms out at
// an absolute version: if true, val is the key's full value; if false, the
// key was only ever delta-written and val is the accumulated delta, which
// the caller must fold onto whatever base state it layers the cache over.
// The same quiescence caveat as RangeLatest applies.
func (s *Store[K, V]) RangeLatestResolved(fn func(k K, val V, anchored bool) bool) {
	s.chains.Range(func(k, c any) bool {
		ch := c.(*keyChain[V])
		if ch.head.Load() == nil {
			return true
		}
		var buf [foldBuf]V
		anchor, deltas := s.walk(ch, math.MaxUint64, buf[:0])
		var val V
		if anchor != nil {
			val = anchor.val
		}
		return fn(k.(K), s.fold(val, deltas), anchor != nil)
	})
}

// ResolvedAt returns k's value as of ts materialised over the chain's
// anchor, whether an absolute anchor exists at or below ts (when false,
// val is the accumulated delta the caller must fold onto its base state),
// and the timestamp of the newest visible version. ok is false when k has
// no version at or below ts — never written, first written after ts, or
// dropped from the cache. Safe to run concurrently with commits at timestamps
// above ts — version nodes are immutable and the walk skips anything
// newer — provided ts is pinned against garbage collection (see PinAt).
// Unlike Get it leaves the key's clock bit alone, so a checkpoint read
// never keeps a cold key resident. Lock-free.
func (s *Store[K, V]) ResolvedAt(k K, ts uint64) (val V, anchored bool, newest uint64, ok bool) {
	c, found := s.chains.Load(k)
	if !found {
		return val, false, 0, false
	}
	n := c.(*keyChain[V]).head.Load()
	for n != nil && n.ts > ts {
		n = n.prev.Load()
	}
	if n == nil {
		return val, false, 0, false
	}
	newest = n.ts
	var buf [foldBuf]V
	deltas := buf[:0]
	for ; n != nil; n = n.prev.Load() {
		if n.kind == Put {
			return s.fold(n.val, deltas), true, newest, true
		}
		deltas = append(deltas, n.val)
	}
	return s.fold(val, deltas), false, newest, true
}

// Stats describes the store's occupancy.
type Stats struct {
	// Keys is the number of distinct keys currently resident (written and
	// not evicted by DropChains).
	Keys int
	// Versions is the number of live (unreclaimed) versions.
	Versions int
	// Reclaimed is the cumulative number of versions garbage-collected.
	Reclaimed int
	// Latest is the highest committed timestamp.
	Latest uint64
}

// StoreStats returns current occupancy counters.
func (s *Store[K, V]) StoreStats() Stats {
	return Stats{
		Keys:      int(s.keys.Load()),
		Versions:  int(s.versions.Load()),
		Reclaimed: int(s.reclaimed.Load()),
		Latest:    s.latest.Load(),
	}
}

// Snapshot is a read-only view of the store at a fixed timestamp. A
// snapshot from PinLatest additionally pins its timestamp against garbage
// collection until released. Snapshots are safe for concurrent use.
type Snapshot[K comparable, V any] struct {
	store   *Store[K, V]
	ts      uint64
	release func()
	once    sync.Once
}

// TS returns the snapshot's timestamp.
func (sn *Snapshot[K, V]) TS() uint64 { return sn.ts }

// Get returns the value of k as seen by the snapshot (anchored chains
// only; see Store.Get).
func (sn *Snapshot[K, V]) Get(k K) (V, bool) { return sn.store.Get(k, sn.ts) }

// Resolve returns the value of k as seen by the snapshot, materialised over
// base (see Store.Resolve).
func (sn *Snapshot[K, V]) Resolve(k K, base V) V { return sn.store.Resolve(k, sn.ts, base) }

// Release unpins a pinned snapshot, allowing the collector to reclaim the
// versions it was holding. Safe to call more than once, from any
// goroutine; a no-op for unpinned snapshots.
func (sn *Snapshot[K, V]) Release() {
	sn.once.Do(func() {
		if sn.release != nil {
			sn.release()
		}
	})
}

// At returns an unpinned snapshot at ts. The caller must ensure no
// concurrent TruncateBelow reclaims below ts (e.g. the pipeline's committer
// reads through At(ts) only for timestamps it has not yet collected).
func (s *Store[K, V]) At(ts uint64) *Snapshot[K, V] {
	return &Snapshot[K, V]{store: s, ts: ts}
}

// PinLatest atomically takes the latest committed timestamp and pins it:
// TruncateBelow will not reclaim any version the returned snapshot can see
// until Release is called. This is the epoch-entry point of the pipeline's
// speculative phase.
func (s *Store[K, V]) PinLatest() *Snapshot[K, V] {
	s.pinMu.Lock()
	defer s.pinMu.Unlock()
	return s.pinLocked(s.latest.Load())
}

// PinAt pins an explicit timestamp against garbage collection and returns a
// snapshot at it. The caller must ensure Commit(ts, …) has returned (ts ≤
// Latest()), as for At, and that no TruncateBelow call has already
// collected above ts — a pin only prevents future reclamation, it cannot
// resurrect versions. Unlike At, the pinned versions survive TruncateBelow
// until Release. Used when the pinning schedule is decided externally —
// e.g. the pipeline's deterministic fixed-lag mode, which pins timestamps
// it has not yet passed to the collector.
func (s *Store[K, V]) PinAt(ts uint64) *Snapshot[K, V] {
	s.pinMu.Lock()
	defer s.pinMu.Unlock()
	return s.pinLocked(ts)
}

// pinLocked registers a pin at ts and builds its releasing snapshot (the
// snapshot's sync.Once guarantees the pin is dropped exactly once).
// Caller holds pinMu.
func (s *Store[K, V]) pinLocked(ts uint64) *Snapshot[K, V] {
	s.pins[ts]++
	release := func() {
		s.pinMu.Lock()
		if s.pins[ts]--; s.pins[ts] <= 0 {
			delete(s.pins, ts)
		}
		s.pinMu.Unlock()
	}
	return &Snapshot[K, V]{store: s, ts: ts, release: release}
}

// minPinned returns the smallest pinned timestamp, or max-uint64 when
// nothing is pinned. Caller holds pinMu.
func (s *Store[K, V]) minPinned() uint64 {
	min := uint64(math.MaxUint64)
	for ts := range s.pins {
		if ts < min {
			min = ts
		}
	}
	return min
}

// TruncateBelow reclaims versions that no snapshot at or above
// min(horizon, oldest pinned timestamp) can observe. For every chain that
// gained a version at or below that cut since the previous pass, find the
// newest version n with ts ≤ cut — every live snapshot resolves through
// it. If n is absolute, everything older is invisible and is unlinked, as a
// single-version store would. If n is a delta, the tail below it still
// contributes to every materialisation, so instead of unlinking it the
// collector *compacts* it: the sub-chain below n folds into one node — an
// absolute node when it contains a Put anchor, a summed delta node
// otherwise — keeping delta chains bounded by the pipeline depth instead of
// growing with chain length. No other chain can hold a reclaimable version:
// one whose queued installs a pass already popped has at most one node
// below the version that pass cut at. Returns the number of versions
// reclaimed. Safe to run concurrently with readers (nodes are immutable; a
// reader mid-walk finishes on the old, equivalent tail); serialised against
// Commit.
func (s *Store[K, V]) TruncateBelow(horizon uint64) int {
	s.pinMu.Lock()
	cut := s.minPinned()
	s.pinMu.Unlock()
	if horizon < cut {
		cut = horizon
	}
	if cut == 0 {
		return 0
	}

	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	reclaimed, i := 0, 0
	for ; i < len(s.gcq) && s.gcq[i].ts <= cut; i++ {
		if c := s.gcq[i].c; !c.dropped {
			reclaimed += s.truncateChain(c, cut)
		}
	}
	if i > 0 {
		// Shift the survivors down so the queue reuses its array instead
		// of regrowing one behind a moving start.
		n := copy(s.gcq, s.gcq[i:])
		clear(s.gcq[n:]) // vacated slots must not keep dropped chains alive
		s.gcq = s.gcq[:n]
	}
	s.versions.Add(int64(-reclaimed))
	s.reclaimed.Add(int64(reclaimed))
	return reclaimed
}

// truncateChain applies TruncateBelow's unlink-or-compact step to one
// chain at cut and returns the number of versions it reclaimed. A chain
// already collected at cut is left unchanged. Caller holds commitMu.
func (s *Store[K, V]) truncateChain(c *keyChain[V], cut uint64) int {
	n := c.head.Load()
	for n != nil && n.ts > cut {
		n = n.prev.Load()
	}
	if n == nil {
		return 0
	}
	if n.kind == Put {
		// n must survive (it is the value visible snapshots read);
		// everything strictly older is unobservable.
		reclaimed := 0
		for old := n.prev.Load(); old != nil; old = old.prev.Load() {
			reclaimed++
		}
		n.prev.Store(nil)
		return reclaimed
	}
	// n is a delta: compact the tail strictly below it. Collect the
	// sub-chain down to (and including) the first absolute anchor;
	// anything below the anchor is unobservable.
	sub := n.prev.Load()
	if sub == nil {
		return 0
	}
	count := 0
	var buf [foldBuf]V
	deltas := buf[:0] // newest first
	var anchor *version[V]
	for node := sub; node != nil; node = node.prev.Load() {
		count++
		if node.kind == Put {
			anchor = node
			break
		}
		deltas = append(deltas, node.val)
	}
	if anchor != nil {
		for old := anchor.prev.Load(); old != nil; old = old.prev.Load() {
			count++
		}
	}
	if count <= 1 {
		return 0
	}
	folded := version[V]{ts: sub.ts, kind: DeltaAdd}
	if anchor != nil {
		folded.kind = Put
		folded.val = anchor.val
	}
	folded.val = s.fold(folded.val, deltas)
	n.prev.Store(&folded)
	return count - 1
}

// Evicted is one cold key surfaced by CollectCold: its fully materialised
// value as of the chain head. Anchored reports whether the chain bottoms
// out at an absolute version; when false Val is an accumulated delta the
// caller must fold onto the base state it evicts into — the same contract
// as RangeLatestResolved, so eviction preserves commutativity.
type Evicted[K comparable, V any] struct {
	Key      K
	Val      V
	Anchored bool
}

// CollectCold returns up to max (≤ 0: unlimited) cold keys: keys whose
// newest version is at or below min(horizon, oldest pinned timestamp) —
// fully resolved, so no live or future snapshot at or above that cut can
// observe anything the materialised value does not capture — and whose
// clock bit is clear, meaning the key was not read since the previous
// CollectCold pass cleared it (second chance). Every scanned chain's bit
// is cleared as a side effect. The returned values are safe to persist:
// serialised against commits, so the chain cannot grow a newer version
// between resolution and return.
//
// The intended protocol is collect → persist to the base layer → DropChains,
// in that order on one goroutine: a reader that misses a dropped chain
// then falls through to a base layer that already holds the value.
func (s *Store[K, V]) CollectCold(horizon uint64, max int) []Evicted[K, V] {
	s.pinMu.Lock()
	cut := s.minPinned()
	s.pinMu.Unlock()
	if horizon < cut {
		cut = horizon
	}
	if cut == 0 {
		return nil
	}

	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	var out []Evicted[K, V]
	s.chains.Range(func(k, c any) bool {
		ch := c.(*keyChain[V])
		head := ch.head.Load()
		if head == nil || head.ts > cut {
			return true // hot: a visible snapshot below the head may exist
		}
		if ch.ref.Swap(false) {
			return true // recently read: one more pass before eviction
		}
		var buf [foldBuf]V
		anchor, deltas := s.walk(ch, math.MaxUint64, buf[:0])
		var val V
		if anchor != nil {
			val = anchor.val
		}
		out = append(out, Evicted[K, V]{Key: k.(K), Val: s.fold(val, deltas), Anchored: anchor != nil})
		return max <= 0 || len(out) < max
	})
	return out
}

// DropChains removes the given keys' version chains from the cache,
// provided each chain is still entirely at or below min(horizon, oldest
// pinned timestamp) — a chain that grew a newer version since CollectCold
// is skipped, as is a pin taken since: dropping it would lose that state.
// Returns the number of chains dropped. The caller must have durably
// persisted the keys' resolved values first (see CollectCold); a reader
// missing a dropped key falls through to that base layer.
func (s *Store[K, V]) DropChains(keys []K, horizon uint64) int {
	s.pinMu.Lock()
	cut := s.minPinned()
	s.pinMu.Unlock()
	if horizon < cut {
		cut = horizon
	}
	if cut == 0 {
		return 0
	}

	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	dropped := 0
	for _, k := range keys {
		c, found := s.chains.Load(k)
		if !found {
			continue
		}
		ch := c.(*keyChain[V])
		head := ch.head.Load()
		if head == nil || head.ts > cut {
			continue
		}
		n := 0
		for node := head; node != nil; node = node.prev.Load() {
			n++
		}
		s.chains.Delete(k)
		ch.dropped = true
		s.keys.Add(-1)
		s.versions.Add(int64(-n))
		dropped++
	}
	return dropped
}

package mvstore

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestSnapshotIsolation(t *testing.T) {
	s := NewStore[string, int]()
	if err := s.Commit(1, map[string]int{"a": 10, "b": 20}); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(2, map[string]int{"a": 11}); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(5, map[string]int{"a": 12, "c": 30}); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		ts   uint64
		key  string
		want int
		ok   bool
	}{
		{0, "a", 0, false}, // before any commit: fall through to base
		{1, "a", 10, true},
		{1, "b", 20, true},
		{2, "a", 11, true},
		{2, "b", 20, true}, // unchanged key resolves to the older version
		{3, "a", 11, true}, // gap timestamps see the newest ≤ ts
		{5, "a", 12, true},
		{9, "c", 30, true},
		{4, "c", 0, false},
	}
	for _, c := range cases {
		got, ok := s.Get(c.key, c.ts)
		if got != c.want || ok != c.ok {
			t.Fatalf("Get(%q, %d) = %d,%v, want %d,%v", c.key, c.ts, got, ok, c.want, c.ok)
		}
	}

	if !s.ChangedSince("a", 2) {
		t.Fatal("a changed at ts 5, ChangedSince(2) must be true")
	}
	if s.ChangedSince("a", 5) {
		t.Fatal("nothing after ts 5 wrote a")
	}
	if s.ChangedSince("missing", 0) {
		t.Fatal("unknown keys never changed")
	}
}

func TestCommitMonotonic(t *testing.T) {
	s := NewStore[string, int]()
	if err := s.Commit(3, map[string]int{"a": 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(3, nil); !errors.Is(err, ErrNonMonotonic) {
		t.Fatalf("repeat ts: err = %v, want ErrNonMonotonic", err)
	}
	if err := s.Commit(2, nil); !errors.Is(err, ErrNonMonotonic) {
		t.Fatalf("older ts: err = %v, want ErrNonMonotonic", err)
	}
	// An empty commit is legal and advances the clock.
	if err := s.Commit(4, nil); err != nil {
		t.Fatal(err)
	}
	if got := s.Latest(); got != 4 {
		t.Fatalf("Latest = %d, want 4", got)
	}
}

func TestVersionGC(t *testing.T) {
	s := NewStore[string, int]()
	for ts := uint64(1); ts <= 10; ts++ {
		if err := s.Commit(ts, map[string]int{"hot": int(ts), "cold": 1}); err != nil {
			t.Fatal(err)
		}
	}
	// "cold" is rewritten every commit too, so 20 versions are live.
	if got := s.StoreStats().Versions; got != 20 {
		t.Fatalf("live versions = %d, want 20", got)
	}

	// A pinned snapshot at 4 blocks reclamation of the versions it reads
	// (white-box: register the pin directly, as PinLatest always pins the
	// newest timestamp).
	snap := s.At(4)
	s.pinMu.Lock()
	s.pins[4]++
	s.pinMu.Unlock()

	reclaimed := s.TruncateBelow(10)
	// Cut is min(10, pinned 4) = 4: versions 1–3 of each key go, version 4
	// (the newest ≤ 4) and 5–10 stay.
	if reclaimed != 6 {
		t.Fatalf("reclaimed = %d, want 6", reclaimed)
	}
	if v, ok := snap.Get("hot"); !ok || v != 4 {
		t.Fatalf("pinned-era read = %d,%v, want 4,true", v, ok)
	}

	// Release the pin; everything below the newest version is collectible.
	s.pinMu.Lock()
	delete(s.pins, 4)
	s.pinMu.Unlock()
	s.TruncateBelow(10)
	st := s.StoreStats()
	if st.Versions != 2 {
		t.Fatalf("live versions after full GC = %d, want 2", st.Versions)
	}
	if st.Reclaimed != 18 {
		t.Fatalf("cumulative reclaimed = %d, want 18", st.Reclaimed)
	}
	if v, ok := s.Get("hot", 10); !ok || v != 10 {
		t.Fatalf("newest version must survive GC, got %d,%v", v, ok)
	}
	// The cut passed every install, so the GC queue is drained and
	// repeated GC with no new commits is O(1) (white-box).
	if len(s.gcq) != 0 {
		t.Fatalf("GC queue not drained after full GC: %d installs", len(s.gcq))
	}
	if got := s.TruncateBelow(10); got != 0 {
		t.Fatalf("idle GC reclaimed %d versions", got)
	}
}

// TestVersionGCDeltaHeaded is TestVersionGC on chains whose version at the
// cut is a delta, one anchored by a Put and one delta-only: the collector
// compacts their tails instead of unlinking them, and the chains must
// still leave the GC queue once the cut passes their installs.
func TestVersionGCDeltaHeaded(t *testing.T) {
	s := NewStoreDelta[string, int](func(onto, delta int) int { return onto + delta })
	if err := s.CommitWrites(1, map[string]Write[int]{
		"anchored": {Kind: Put, Val: 1000},
		"pure":     {Kind: DeltaAdd, Val: 1},
	}); err != nil {
		t.Fatal(err)
	}
	for ts := uint64(2); ts <= 10; ts++ {
		if err := s.CommitWrites(ts, map[string]Write[int]{
			"anchored": {Kind: DeltaAdd, Val: int(ts)},
			"pure":     {Kind: DeltaAdd, Val: int(ts)},
		}); err != nil {
			t.Fatal(err)
		}
	}

	snap := s.PinAt(4)
	// Cut 4: each chain keeps its delta at 4 and folds the three versions
	// below it into one node.
	if got := s.TruncateBelow(10); got != 4 {
		t.Fatalf("reclaimed = %d, want 4", got)
	}
	if v := snap.Resolve("anchored", 0); v != 1009 {
		t.Fatalf("pinned anchored read = %d, want 1009", v)
	}
	if v := snap.Resolve("pure", 100); v != 110 {
		t.Fatalf("pinned delta-only read = %d, want 110", v)
	}

	snap.Release()
	// Cut 10: the delta at 10 stays; the six deltas below it and the
	// folded node fold again.
	if got := s.TruncateBelow(10); got != 12 {
		t.Fatalf("reclaimed after release = %d, want 12", got)
	}
	if st := s.StoreStats(); st.Versions != 4 || st.Reclaimed != 16 {
		t.Fatalf("stats after full GC = %+v, want 4 live, 16 reclaimed", st)
	}
	if v := s.Resolve("anchored", 10, 0); v != 1054 {
		t.Fatalf("anchored = %d, want 1054", v)
	}
	if v := s.Resolve("pure", 10, 100); v != 155 {
		t.Fatalf("delta-only = %d, want 155", v)
	}
	// A delta-headed chain whose tail is already one node has nothing
	// left to collect until the key is rewritten (white-box).
	if len(s.gcq) != 0 {
		t.Fatalf("GC queue not drained after full GC: %d installs", len(s.gcq))
	}
	if got := s.TruncateBelow(10); got != 0 {
		t.Fatalf("idle GC reclaimed %d versions", got)
	}
}

// TestGCWorkBoundedByInstalls: a GC pass visits the installs since the
// previous pass, not the resident keys. 10k delta-headed chains, each
// credited twice — what operation-level balance deltas make of every
// account ever credited — leave the GC queue once the cut passes their
// installs, and a later pass with no commits has nothing to visit
// (white-box).
func TestGCWorkBoundedByInstalls(t *testing.T) {
	const keys = 10_000
	s := NewStoreDelta[int, int64](addI64)
	writes := make(map[int]Write[int64], keys)
	for ts := uint64(1); ts <= 2; ts++ {
		for k := 0; k < keys; k++ {
			writes[k] = Write[int64]{Kind: DeltaAdd, Val: int64(k)}
		}
		if err := s.CommitWrites(ts, writes); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.gcq) != keys {
		t.Fatalf("queued installs = %d, want %d (the second commit superseded every head)", len(s.gcq), keys)
	}
	for cut := uint64(1); cut <= s.Latest(); cut++ {
		s.TruncateBelow(cut)
	}
	if len(s.gcq) != 0 {
		t.Fatalf("GC queue holds %d installs after the cut passed them all", len(s.gcq))
	}
	if got := s.TruncateBelow(s.Latest()); got != 0 || len(s.gcq) != 0 {
		t.Fatalf("idle pass reclaimed %d versions, queue %d", got, len(s.gcq))
	}
	if st := s.StoreStats(); st.Versions != 2*keys {
		t.Fatalf("live versions = %d, want %d (a two-delta chain has nothing to reclaim)", st.Versions, 2*keys)
	}
	for k := 0; k < keys; k += 997 {
		if got := s.Resolve(k, 2, 1); got != 1+2*int64(k) {
			t.Fatalf("Resolve(%d) = %d, want %d", k, got, 1+2*int64(k))
		}
	}
}

func TestPinLatestBlocksGC(t *testing.T) {
	s := NewStore[string, int]()
	if err := s.Commit(1, map[string]int{"k": 1}); err != nil {
		t.Fatal(err)
	}
	snap := s.PinLatest()
	if snap.TS() != 1 {
		t.Fatalf("pinned ts = %d, want 1", snap.TS())
	}
	if err := s.Commit(2, map[string]int{"k": 2}); err != nil {
		t.Fatal(err)
	}
	if got := s.TruncateBelow(2); got != 0 {
		t.Fatalf("reclaimed %d versions under an active pin, want 0", got)
	}
	if v, _ := snap.Get("k"); v != 1 {
		t.Fatalf("pinned snapshot reads %d, want 1", v)
	}
	snap.Release()
	snap.Release() // idempotent
	if got := s.TruncateBelow(2); got != 1 {
		t.Fatalf("reclaimed = %d after release, want 1", got)
	}
}

// TestConcurrentReadersDuringCommit hammers the lock-free read path while a
// writer commits and garbage-collects: every reader pins a snapshot and
// must observe a frozen, internally consistent view — for keys written
// together, values from the same commit.
func TestConcurrentReadersDuringCommit(t *testing.T) {
	s := NewStore[string, int]()
	const commits = 200
	const readers = 8

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := s.PinLatest()
				a, okA := snap.Get("a")
				b, okB := snap.Get("b")
				if okA != okB || a != b {
					t.Errorf("torn snapshot at ts %d: a=%d(%v) b=%d(%v)", snap.TS(), a, okA, b, okB)
					snap.Release()
					return
				}
				if c, ok := s.Get("a", snap.TS()+1_000_000); ok && c < a {
					t.Errorf("future read older than pinned read: %d < %d", c, a)
					snap.Release()
					return
				}
				snap.Release()
			}
		}()
	}

	// Writer: "a" and "b" always move together; GC chases the committer.
	for ts := uint64(1); ts <= commits; ts++ {
		if err := s.Commit(ts, map[string]int{"a": int(ts), "b": int(ts)}); err != nil {
			t.Fatal(err)
		}
		s.TruncateBelow(ts)
	}
	close(stop)
	wg.Wait()

	if v, ok := s.Get("a", commits); !ok || v != commits {
		t.Fatalf("final value = %d,%v, want %d,true", v, ok, commits)
	}
}

// TestManyKeysStats exercises chain creation under concurrency and the
// occupancy counters.
func TestManyKeysStats(t *testing.T) {
	s := NewStore[string, int]()
	ts := uint64(0)
	for round := 0; round < 3; round++ {
		ts++
		w := make(map[string]int, 100)
		for i := 0; i < 100; i++ {
			w[fmt.Sprintf("k%03d", i)] = round
		}
		if err := s.Commit(ts, w); err != nil {
			t.Fatal(err)
		}
	}
	st := s.StoreStats()
	if st.Keys != 100 || st.Versions != 300 || st.Latest != 3 {
		t.Fatalf("stats = %+v", st)
	}

	seen := 0
	s.RangeLatest(func(k string, v int) bool {
		if v != 2 {
			t.Fatalf("RangeLatest(%q) = %d, want newest round 2", k, v)
		}
		seen++
		return true
	})
	if seen != 100 {
		t.Fatalf("RangeLatest visited %d keys, want 100", seen)
	}
}

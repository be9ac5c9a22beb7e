package mvstore

import (
	"sync"
	"testing"
)

// TestResolvedAt: the point read at a fixed timestamp sees exactly the
// newest version ≤ ts — absolute values materialised, deltas folded onto
// their anchor, unanchored delta runs surfaced as such — and never a
// version above ts.
func TestResolvedAt(t *testing.T) {
	s := NewStoreDelta[string, int](func(onto, delta int) int { return onto + delta })
	mustCommit := func(ts uint64, writes map[string]Write[int]) {
		t.Helper()
		if err := s.CommitWrites(ts, writes); err != nil {
			t.Fatal(err)
		}
	}
	mustCommit(1, map[string]Write[int]{
		"a": {Kind: Put, Val: 10},
		"d": {Kind: DeltaAdd, Val: 5}, // no anchor: pure delta run
	})
	mustCommit(2, map[string]Write[int]{
		"a": {Kind: DeltaAdd, Val: 1},
		"b": {Kind: Put, Val: 20},
	})
	mustCommit(4, map[string]Write[int]{
		"a": {Kind: Put, Val: 100}, // must be invisible at ts ≤ 3
		"d": {Kind: DeltaAdd, Val: 7},
		"e": {Kind: Put, Val: 1}, // first written after ts 3
	})

	cases := []struct {
		key      string
		ts       uint64
		val      int
		anchored bool
		newest   uint64
		ok       bool
	}{
		// ts 3 is a gap timestamp: a = 10+1 folded, b = 20, d = unanchored 5.
		{"a", 3, 11, true, 2, true},
		{"b", 3, 20, true, 2, true},
		{"d", 3, 5, false, 1, true},
		{"e", 3, 0, false, 0, false},
		{"a", 1, 10, true, 1, true},
		{"b", 1, 0, false, 0, false},
		// ts 4: the newer versions become visible; the newer Put hides the
		// older delta, while d's deltas keep accumulating without an anchor.
		{"a", 4, 100, true, 4, true},
		{"d", 4, 12, false, 4, true},
		{"e", 4, 1, true, 4, true},
		// Nothing is visible at ts 0, and a key never written is absent.
		{"a", 0, 0, false, 0, false},
		{"z", 4, 0, false, 0, false},
	}
	for _, c := range cases {
		val, anchored, newest, ok := s.ResolvedAt(c.key, c.ts)
		if val != c.val || anchored != c.anchored || newest != c.newest || ok != c.ok {
			t.Errorf("%s at ts %d: (%d, anchored=%v, newest=%d, ok=%v), want (%d, %v, %d, %v)",
				c.key, c.ts, val, anchored, newest, ok, c.val, c.anchored, c.newest, c.ok)
		}
	}

	// A dropped chain is gone from the point read: the caller falls back
	// to its base layer.
	s.DropChains([]string{"b"}, 4)
	if _, _, _, ok := s.ResolvedAt("b", 4); ok {
		t.Error("dropped chain still resolves")
	}
}

// TestResolvedAtConcurrentCommits: with ts pinned, the point read at ts is
// stable while newer commits land and the collector runs concurrently —
// the checkpoint worker's exact access pattern.
func TestResolvedAtConcurrentCommits(t *testing.T) {
	s := NewStoreDelta[int, int](func(onto, delta int) int { return onto + delta })
	const keys = 32
	write := func(ts uint64) map[int]Write[int] {
		writes := make(map[int]Write[int], keys)
		for k := 0; k < keys; k++ {
			if k%2 == 0 {
				writes[k] = Write[int]{Kind: Put, Val: k*1000 + int(ts)}
			} else {
				writes[k] = Write[int]{Kind: DeltaAdd, Val: 1}
			}
		}
		return writes
	}
	for ts := uint64(1); ts <= 8; ts++ {
		if err := s.CommitWrites(ts, write(ts)); err != nil {
			t.Fatal(err)
		}
	}
	pin := s.PinAt(8)
	defer pin.Release()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	defer func() {
		close(stop)
		wg.Wait()
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ts := uint64(9); ; ts++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.CommitWrites(ts, write(ts)); err != nil {
				return
			}
			s.TruncateBelow(ts)
		}
	}()
	for round := 0; round < 50; round++ {
		for k := 0; k < keys; k++ {
			val, anchored, newest, ok := s.ResolvedAt(k, 8)
			want, wantAnchored := k*1000+8, true
			if k%2 == 1 {
				want, wantAnchored = 8, false
			}
			if !ok || val != want || anchored != wantAnchored || newest != 8 {
				t.Fatalf("round %d key %d at ts 8: (%d, anchored=%v, newest=%d, ok=%v), want (%d, %v, 8, true)",
					round, k, val, anchored, newest, ok, want, wantAnchored)
			}
		}
	}
}

package exec

import (
	"sync"
	"testing"

	"txconcur/internal/account"
	"txconcur/internal/basestore"
	"txconcur/internal/chainsim"
	"txconcur/internal/exec/testutil"
	"txconcur/internal/types"
	"txconcur/internal/wal"
)

// delivered is one change set a sink received.
type delivered struct {
	idx int
	st  *account.StateDB
}

// ckptCapture is a CheckpointSink that keeps every change set it receives,
// in delivery order.
type ckptCapture struct {
	every int

	mu  sync.Mutex
	got []delivered
}

func (c *ckptCapture) Interval() int { return c.every }

func (c *ckptCapture) Checkpoint(idx int, st *account.StateDB) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.got = append(c.got, delivered{idx, st})
}

// foldedRoots installs the delivered change sets over pre in delivery
// order, exactly as recovery installs store generations over genesis, and
// returns the root after each delivered index. Delivery order must be
// index order.
func (c *ckptCapture) foldedRoots(t *testing.T, pre *account.StateDB) map[int]types.Hash {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	st := pre.Copy()
	roots := make(map[int]types.Hash, len(c.got))
	for i, d := range c.got {
		if i > 0 && d.idx <= c.got[i-1].idx {
			t.Fatalf("checkpoint %d delivered after %d", d.idx, c.got[i-1].idx)
		}
		for _, e := range basestore.StateEntries(d.st) {
			if err := basestore.InstallEntry(st, e.Key, e.Val); err != nil {
				t.Fatal(err)
			}
		}
		roots[d.idx] = st.Root()
	}
	return roots
}

// requireFoldedPrefixes asserts that the fold at every delivered index is
// the sequential prefix state, and returns the number of deliveries.
func requireFoldedPrefixes(t *testing.T, label string, sink *ckptCapture, pre *account.StateDB, seq *testutil.Chain) int {
	t.Helper()
	roots := sink.foldedRoots(t, pre)
	for idx, got := range roots {
		if want := seq.Roots[idx]; got != want {
			t.Fatalf("%s: checkpoint %d folds to root %s, sequential prefix has %s", label, idx, got.Short(), want.Short())
		}
	}
	return len(roots)
}

// TestChainCheckpointsMatchSequentialPrefixes: folding every change set
// the async worker hands the sink onto the pre-state, in order, must give
// the exact committed state after its block — root equal to the
// sequential replay's prefix root — across shard counts, op-level modes
// and intervals, in both batch and streamed form. This is the correctness
// half of the durability contract: a change set that diverged from the
// replayed prefix would poison every recovery that starts from it.
func TestChainCheckpointsMatchSequentialPrefixes(t *testing.T) {
	t.Parallel()
	pre, blocks, err := chainsim.GenerateAccountChain(chainsim.ShardSkewProfile(), 8, 11)
	if err != nil {
		t.Fatal(err)
	}
	seq := testutil.ReplaySequential(t, pre, blocks)
	for _, shards := range []int{1, 4} {
		for _, op := range []bool{false, true} {
			for _, every := range []int{1, 3, len(blocks)} {
				for _, stream := range []bool{false, true} {
					sink := &ckptCapture{every: every}
					e := Sharded{Workers: 8, Shards: shards, OpLevel: op, Depth: 2, Checkpoint: sink}
					var res *ChainResult
					var css *ChainShardStats
					if stream {
						res, css, err = e.ExecuteChainStream(pre.Copy(), feed(blocks), nil)
					} else {
						res, css, err = e.ExecuteChain(pre.Copy(), blocks)
					}
					if err != nil {
						t.Fatalf("shards=%d op=%v every=%d stream=%v: %v", shards, op, every, stream, err)
					}
					seq.RequireChain(t, "checkpointed chain", res.Root, res.Receipts)

					n := requireFoldedPrefixes(t, "checkpointed chain", sink, pre, seq)
					if css.Checkpoints != n {
						t.Fatalf("stats count %d checkpoints, sink received %d", css.Checkpoints, n)
					}
					points := len(blocks) / every
					if css.Checkpoints+css.CheckpointsSkipped != points {
						t.Fatalf("every=%d: %d+%d checkpoint points, want %d",
							every, css.Checkpoints, css.CheckpointsSkipped, points)
					}
					// The first enqueue always finds the worker's queue
					// empty, so at least one checkpoint must land.
					if points > 0 && css.Checkpoints == 0 {
						t.Fatalf("every=%d: all %d checkpoint points skipped", every, points)
					}
					for _, d := range sink.got {
						if (d.idx+1)%every != 0 {
							t.Fatalf("checkpoint at off-interval index %d (every=%d)", d.idx, every)
						}
					}
				}
			}
		}
	}
}

// TestChainCheckpointsCarryTombstones: a storage slot that goes from
// non-zero to zero between two checkpoints must reach the sink as an
// explicit zero, or folding the change sets would resurrect the old word.
func TestChainCheckpointsCarryTombstones(t *testing.T) {
	pre, blocks, token, slot := testutil.ClearedSlotChain()
	seq := testutil.ReplaySequential(t, pre, blocks)
	const every = 2
	// The fixture's precondition: non-zero at the first checkpoint, zero
	// at the second.
	if testutil.ReplaySequential(t, pre, blocks[:every]).Final.GetStorage(token, slot) == 0 {
		t.Fatal("fixture: slot is zero at the first checkpoint")
	}
	if seq.Final.GetStorage(token, slot) != 0 {
		t.Fatal("fixture: slot is not cleared by the second checkpoint")
	}
	for _, shards := range []int{1, 4} {
		sink := &ckptCapture{every: every}
		e := Sharded{Workers: 4, Shards: shards, Depth: 2, Checkpoint: sink}
		res, css, err := e.ExecuteChain(pre.Copy(), blocks)
		if err != nil {
			t.Fatal(err)
		}
		seq.RequireChain(t, "tombstone chain", res.Root, res.Receipts)
		if css.Checkpoints != 2 {
			// The queue holds two requests, so neither point can be
			// skipped; a merged change set would hide the non-zero word.
			t.Fatalf("shards=%d: %d checkpoints delivered, want 2", shards, css.Checkpoints)
		}
		requireFoldedPrefixes(t, "tombstone chain", sink, pre, seq)
		last := sink.got[len(sink.got)-1]
		found := false
		for _, sl := range last.st.Export().Storage {
			if sl.Addr == token && sl.Slot == slot {
				found = sl.Value == 0
			}
		}
		if !found {
			t.Fatalf("shards=%d: checkpoint %d lacks the cleared slot's zero", shards, last.idx)
		}
	}
}

// heldSink blocks its first delivery until release is closed (held is
// closed once it does), so the committer outruns the worker and skips
// points; every delivered index is also sent on deliveries.
type heldSink struct {
	ckptCapture
	held, release chan struct{}
	deliveries    chan int
}

func (h *heldSink) Checkpoint(idx int, st *account.StateDB) {
	h.ckptCapture.Checkpoint(idx, st)
	h.deliveries <- idx
	if idx == 0 {
		close(h.held)
		<-h.release
	}
}

// TestChainCheckpointsSkippedPointsFold: while the sink is busy the
// committer skips points instead of waiting, and the keys those points
// committed ride along in the next delivered change set — so the fold is
// still the sequential prefix at every delivered index, including the one
// after the skipped run.
func TestChainCheckpointsSkippedPointsFold(t *testing.T) {
	pre, blocks, err := chainsim.GenerateAccountChain(chainsim.ShardSkewProfile(), 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	seq := testutil.ReplaySequential(t, pre, blocks)
	n := len(blocks)
	sink := &heldSink{ckptCapture: ckptCapture{every: 1},
		held: make(chan struct{}), release: make(chan struct{}), deliveries: make(chan int, n)}
	e := Sharded{Workers: 4, Shards: 4, OpLevel: true, Depth: 2, Checkpoint: sink}
	committed := make(chan int, n)
	stream := make(chan *account.Block)
	var res *ChainResult
	var css *ChainShardStats
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, css, err = e.ExecuteChainStream(pre.Copy(), stream,
			func(idx int, _ *account.Block, _ []*account.Receipt) { committed <- idx })
	}()
	send := func(blk *account.Block) {
		select {
		case stream <- blk:
		case <-done:
			t.Fatalf("chain ended early: %v", err)
		}
	}
	// The worker takes point 0 and blocks; points 1 and 2 fill its queue
	// and points 3..n-3 are skipped (each block's point is enqueued before
	// the next block commits).
	send(blocks[0])
	<-sink.held
	for _, blk := range blocks[1 : n-1] {
		send(blk)
	}
	for range n - 1 {
		<-committed
	}
	// Drain the queued points, then the last point finds room.
	close(sink.release)
	for idx := range sink.deliveries {
		if idx == 2 {
			break
		}
	}
	send(blocks[n-1])
	close(stream)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	seq.RequireChain(t, "held-sink chain", res.Root, res.Receipts)
	if css.CheckpointsSkipped == 0 {
		t.Fatal("the held sink forced no skipped points; the test is vacuous")
	}
	delivered := requireFoldedPrefixes(t, "held-sink chain", &sink.ckptCapture, pre, seq)
	if last := sink.got[len(sink.got)-1].idx; last != n-1 {
		t.Fatalf("last delivered checkpoint %d, want %d", last, n-1)
	}
	if delivered != css.Checkpoints || delivered+css.CheckpointsSkipped != n {
		t.Fatalf("%d delivered, %d counted, %d skipped of %d points", delivered, css.Checkpoints, css.CheckpointsSkipped, n)
	}
}

// TestChainCheckpointsWithBackend: with a state backend and a cache budget
// small enough that committed keys are evicted before the worker resolves
// them, the evicted keys resolve from the base layer and the fold still
// matches the sequential prefix.
func TestChainCheckpointsWithBackend(t *testing.T) {
	pre, blocks, err := chainsim.GenerateAccountChain(chainsim.ShardDriftProfile(), 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	seq := testutil.ReplaySequential(t, pre, blocks)
	store, err := basestore.OpenStore(wal.NewMemFS(), "base")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	sink := &ckptCapture{every: 2}
	e := Sharded{Workers: 8, Shards: 4, OpLevel: true, Depth: 2, Checkpoint: sink,
		Backend: store, CacheBudget: 4}
	res, css, err := e.ExecuteChain(pre.Copy(), blocks)
	if err != nil {
		t.Fatal(err)
	}
	seq.RequireChain(t, "backed checkpointed chain", res.Root, res.Receipts)
	if css.Evicted == 0 {
		t.Fatal("the cache budget never bound; the test is vacuous")
	}
	if requireFoldedPrefixes(t, "backed checkpointed chain", sink, pre, seq) == 0 {
		t.Fatal("no checkpoints received")
	}
}

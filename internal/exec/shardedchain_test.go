package exec

import (
	"errors"
	"testing"

	"txconcur/internal/account"
	"txconcur/internal/chainsim"
	"txconcur/internal/exec/testutil"
)

// TestShardedChainFuzzFixtures replays the conflict-heavy fuzz chains —
// nonce chains, shared-counter contracts, blind writers and readers —
// through ExecuteChain at several shard counts and depths.
func TestShardedChainFuzzFixtures(t *testing.T) {
	for _, tc := range []struct {
		seed                          int64
		users, hotN, txn, hotPct, spl uint8
	}{
		{7, 24, 3, 75, 85, 2},
		{42, 9, 2, 60, 70, 1},
		{3, 20, 3, 79, 50, 0},
	} {
		pre, blocks := fuzzChain(tc.seed, tc.users, tc.hotN, tc.txn, tc.hotPct, tc.spl)
		seq := testutil.ReplaySequential(t, pre, blocks)
		for _, shards := range []int{1, 2, 3, 8} {
			for _, depth := range []int{1, 3} {
				for _, op := range []bool{false, true} {
					cr, _, err := Sharded{Workers: 6, Shards: shards, OpLevel: op, Depth: depth}.
						ExecuteChain(pre.Copy(), blocks)
					if err != nil {
						t.Fatalf("seed=%d shards=%d depth=%d op=%v: %v", tc.seed, shards, depth, op, err)
					}
					seq.RequireChain(t, "chain", cr.Root, cr.Receipts)
				}
			}
		}
	}
}

// TestShardedChainValidation: worker validation and the empty chain.
func TestShardedChainValidation(t *testing.T) {
	st := account.NewStateDB()
	if _, _, err := (Sharded{Workers: 0, Shards: 2}).ExecuteChain(st, nil); err == nil {
		t.Fatal("zero workers accepted")
	}
	cr, css, err := (Sharded{Workers: 2, Shards: 2}).ExecuteChain(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cr.Receipts) != 0 || len(css.Blocks) != 0 {
		t.Fatalf("empty chain produced %d blocks", len(cr.Receipts))
	}
	if cr.Stats.Speedup != 1 {
		t.Fatalf("empty chain speed-up = %v, want 1", cr.Stats.Speedup)
	}

	// A nil block is rejected before any block executes, not taken as the
	// end of the chain (the stream driver stops at one).
	pre, blocks, err := chainsim.GenerateAccountChain(chainsim.ShardUniformProfile(), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	work := pre.Copy()
	if _, _, err := (Sharded{Workers: 2, Shards: 2}).ExecuteChain(work, []*account.Block{blocks[0], nil, blocks[1]}); err == nil {
		t.Fatal("nil block accepted")
	}
	if work.Root() != pre.Root() {
		t.Fatal("a rejected chain changed the state")
	}
}

// TestShardedChainOverlapBound: the chain makespan must never exceed the
// sum of the per-block engine's schedule lengths (pipelining can only
// help), and must still respect the core budget.
func TestShardedChainOverlapBound(t *testing.T) {
	pre, blocks, err := chainsim.GenerateAccountChain(chainsim.ShardUniformProfile(), 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []bool{false, true} {
		e := Sharded{Workers: 8, Shards: 4, OpLevel: op, Depth: 2}
		cr, _, err := e.ExecuteChain(pre.Copy(), blocks)
		if err != nil {
			t.Fatal(err)
		}
		var perBlock int
		work := pre.Copy()
		for _, blk := range blocks {
			res, err := e.Execute(work, blk)
			if err != nil {
				t.Fatal(err)
			}
			perBlock += res.Stats.ParUnits
		}
		if cr.Stats.ParUnits > perBlock {
			t.Fatalf("op=%v: chain makespan %d exceeds per-block sum %d",
				op, cr.Stats.ParUnits, perBlock)
		}
		if cr.Stats.Speedup > float64(e.Workers)+1e-9 {
			t.Fatalf("op=%v: speed-up %.2f exceeds the %d-worker budget",
				op, cr.Stats.Speedup, e.Workers)
		}
	}
}

// Sequential replay — not the generator's receipt stream — is the chain
// engine's ground truth: the generator injects each era's popular
// contracts directly into state between blocks, so a pure block replay can
// diverge from the generated history at era boundaries while still being a
// perfectly valid chain. testutil.ReplaySequential reproduces Sequential
// exactly (the testutil package's own tests pin that equivalence).

// TestPipelineSingleBlock mirrors the per-block engines: the one-shard
// engine's Execute on one block must match Sequential from the same pre-state, for every block of a
// generated history (using the generator's own pre-states, as the other
// engines' tests do).
func TestPipelineSingleBlock(t *testing.T) {
	t.Parallel()
	g, err := chainsim.NewAcctGen(chainsim.EthereumProfile(), 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	for {
		pre := g.Chain().State().Copy()
		blk, _, ok, err := g.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		seq, err := Sequential(pre.Copy(), blk)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Sharded{Workers: 8, Shards: 1}.Execute(pre.Copy(), blk)
		if err != nil {
			t.Fatal(err)
		}
		if res.Root != seq.Root {
			t.Fatalf("block %d: pipeline root mismatch", blk.Height)
		}
		for i, want := range seq.Receipts {
			if got := res.Receipts[i]; got.GasUsed != want.GasUsed || got.Status != want.Status {
				t.Fatalf("block %d tx %d: receipt mismatch", blk.Height, i)
			}
		}
	}
}

// TestPipelineCrossBlockConflicts drives the one-shard chain's cross-block
// staleness path directly: consecutive blocks reusing the same senders force phase-1 nonce
// failures and stale balance reads, all of which must be repaired by
// re-execution, never silently committed.
func TestPipelineCrossBlockConflicts(t *testing.T) {
	pre, blocks, err := chainsim.GenerateAccountChain(chainsim.EthereumClassicProfile(), 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	seq := testutil.ReplaySequential(t, pre, blocks)

	res, _, err := Sharded{Workers: 4, Shards: 1, Depth: 2}.ExecuteChain(pre.Copy(), blocks)
	if err != nil {
		t.Fatal(err)
	}
	if res.Root != seq.Root() {
		t.Fatal("pipeline root mismatch under cross-block conflicts")
	}
	// The workloads reuse senders across blocks, so at least one block must
	// have taken the re-execution path — otherwise this test exercises
	// nothing.
	total := 0
	for _, bs := range res.Blocks {
		total += bs.Reexecuted
	}
	if total == 0 {
		t.Fatal("expected some cross-block re-executions in this workload")
	}
	if res.Stats.Retries != total {
		t.Fatalf("Stats.Retries = %d, want %d", res.Stats.Retries, total)
	}
}

// TestPipelineEdgeCases covers the one-shard chain's degenerate inputs.
func TestPipelineEdgeCases(t *testing.T) {
	if _, _, err := (Sharded{Shards: 1}).ExecuteChain(account.NewStateDB(), nil); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("workers=0: err = %v, want ErrNoWorkers", err)
	}

	st := account.NewStateDB()
	res, _, err := Sharded{Workers: 2, Shards: 1}.ExecuteChain(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Txs != 0 || res.Stats.ParUnits != 0 || res.Stats.Speedup != 1 {
		t.Fatalf("empty chain stats = %+v", res.Stats)
	}
	if res.Root != st.Root() {
		t.Fatal("empty chain must not change the state")
	}
}

// TestFlowShopMakespan pins the pipelined schedule-length recurrence.
func TestFlowShopMakespan(t *testing.T) {
	cases := []struct {
		p1, p2 []int
		want   int
	}{
		{nil, nil, 0},
		{[]int{5}, []int{2}, 7},
		// Validation fully hidden behind the next block's execution.
		{[]int{5, 5, 5}, []int{1, 1, 1}, 16},
		// Validation dominates: machine 2 becomes the bottleneck.
		{[]int{2, 2, 2}, []int{5, 5, 5}, 17},
	}
	for _, c := range cases {
		if got := flowShopMakespan(c.p1, c.p2); got != c.want {
			t.Fatalf("flowShopMakespan(%v, %v) = %d, want %d", c.p1, c.p2, got, c.want)
		}
	}
}

package exec

import (
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
			res, _, err := e.ExecuteSharded(work, blk)
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

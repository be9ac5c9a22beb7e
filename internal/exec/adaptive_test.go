package exec

import (
	"testing"

	"txconcur/internal/chainsim"
	"txconcur/internal/core"
	"txconcur/internal/exec/testutil"
	"txconcur/internal/heat"
	"txconcur/internal/types"
)

// adaptiveEngine builds a sharded engine with a fresh adaptive map. Every
// test builds a fresh one per run: adaptive maps are stateful by design.
func adaptiveEngine(shards int, op bool, rebalance int) Sharded {
	return Sharded{
		Workers:        8,
		OpLevel:        op,
		Depth:          2,
		Map:            heat.NewAdaptiveMap(shards, nil),
		RebalanceEvery: rebalance,
	}
}

// TestAdaptiveChainFuzzFixtures replays the conflict-heavy fuzz chains
// through the adaptive engine at several shard counts and rebalance
// schedules — nonce chains and shared-counter contracts exercise the
// conflict-group observation, and per-block rebalancing exercises
// migration under maximal churn.
func TestAdaptiveChainFuzzFixtures(t *testing.T) {
	for _, tc := range []struct {
		seed                          int64
		users, hotN, txn, hotPct, spl uint8
	}{
		{7, 24, 3, 75, 85, 2},
		{42, 9, 2, 60, 70, 1},
		{11, 3, 2, 72, 88, 2},
	} {
		pre, blocks := fuzzChain(tc.seed, tc.users, tc.hotN, tc.txn, tc.hotPct, tc.spl)
		seq := testutil.ReplaySequential(t, pre, blocks)
		for _, shards := range []int{2, 3, 8} {
			for _, every := range []int{1, 2} {
				for _, op := range []bool{false, true} {
					cr, _, err := adaptiveEngine(shards, op, every).ExecuteChain(pre.Copy(), blocks)
					if err != nil {
						t.Fatalf("seed=%d shards=%d every=%d op=%v: %v", tc.seed, shards, every, op, err)
					}
					seq.RequireChain(t, "adaptive", cr.Root, cr.Receipts)
				}
			}
		}
	}
}

// TestAdaptiveDeterministicStats: two runs over the same chain with fresh
// maps must agree on every schedule-relevant counter — the determinism
// contract that makes the E11 numbers reproducible.
func TestAdaptiveDeterministicStats(t *testing.T) {
	pre, blocks, err := chainsim.GenerateAccountChain(chainsim.ShardDriftProfile(), 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	run := func() (*ChainResult, *ChainShardStats) {
		cr, css, err := adaptiveEngine(4, false, 3).ExecuteChain(pre.Copy(), blocks)
		if err != nil {
			t.Fatal(err)
		}
		return cr, css
	}
	a, sa := run()
	b, sb := run()
	if a.Root != b.Root {
		t.Fatal("roots differ across identical runs")
	}
	if a.Stats.ParUnits != b.Stats.ParUnits || a.Stats.Retries != b.Stats.Retries {
		t.Fatalf("schedule accounting differs: %+v vs %+v", a.Stats, b.Stats)
	}
	if sa.Migrations != sb.Migrations || sa.RebalanceEpochs != sb.RebalanceEpochs ||
		sa.MigrationUnits != sb.MigrationUnits || sa.CrossAborts != sb.CrossAborts {
		t.Fatalf("shard counters differ: %+v vs %+v", sa, sb)
	}
}

// TestAdaptiveMigrationMovesState: on the drifting hot-sender workload the
// map must actually move addresses (the whole point), the migration
// counters must be consistent, and the migration units must be charged to
// the chain makespan.
func TestAdaptiveMigrationMovesState(t *testing.T) {
	pre, blocks, err := chainsim.GenerateAccountChain(chainsim.ShardDriftProfile(), 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	seq := testutil.ReplaySequential(t, pre, blocks)
	e := adaptiveEngine(4, false, 3)
	cr, css, err := e.ExecuteChain(pre.Copy(), blocks)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Root != seq.Root() {
		t.Fatal("root diverged from sequential replay")
	}
	if css.RebalanceEpochs == 0 {
		t.Fatal("no rebalance epochs on a 12-block chain with RebalanceEvery=3")
	}
	if css.Migrations == 0 {
		t.Fatal("drifting hot senders never migrated: the placement policy is inert")
	}
	am := e.Map.(*heat.AdaptiveMap)
	if am.Epochs() != css.RebalanceEpochs {
		t.Fatalf("map saw %d epochs, engine reports %d", am.Epochs(), css.RebalanceEpochs)
	}
	if css.MigrationUnits == 0 || css.MigrationUnits > css.Migrations {
		t.Fatalf("migration units %d inconsistent with %d migrated keys",
			css.MigrationUnits, css.Migrations)
	}
}

// TestAdaptivePerBlockObservation: per-block Execute with a shared adaptive
// map must feed the map after every block (the per-block counterpart of
// the chain's observation loop) while preserving serial equivalence.
func TestAdaptivePerBlockObservation(t *testing.T) {
	pre, blocks, err := chainsim.GenerateAccountChain(chainsim.ShardHotShardProfile(), 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	am := heat.NewAdaptiveMap(4, nil)
	e := Sharded{Workers: 8, Map: am}
	work, seqWork := pre.Copy(), pre.Copy()
	for i, blk := range blocks {
		seq, err := Sequential(seqWork, blk)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Execute(work, blk)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if res.Root != seq.Root {
			t.Fatalf("block %d: root diverged from sequential", i)
		}
		if am.Tracker().Blocks() != i+1 {
			t.Fatalf("block %d: map observed %d blocks", i, am.Tracker().Blocks())
		}
	}
}

// TestOverrideShardMapRouting: overrides route, everything else falls back
// to FNV, and the sharded engine honours a hand-built override map.
func TestOverrideShardMapRouting(t *testing.T) {
	a := types.AddressFromUint64("override/a", 1)
	b := types.AddressFromUint64("override/b", 2)
	m := core.NewOverrideShardMap(4, map[types.Address]int{a: 3, b: 99})
	if m.Shard(a) != 3 {
		t.Fatalf("override ignored: shard %d", m.Shard(a))
	}
	if got := m.Shard(b); got != 3 { // clamped to n-1
		t.Fatalf("out-of-range override not clamped: %d", got)
	}
	other := types.AddressFromUint64("override/c", 7)
	if m.Shard(other) != core.ShardOf(other, 4) {
		t.Fatal("fallback does not match ShardOf")
	}

	// The engine must accept a plain (non-adaptive) custom map and still
	// reproduce sequential results.
	pre, blocks, err := chainsim.GenerateAccountChain(chainsim.ShardUniformProfile(), 4, 13)
	if err != nil {
		t.Fatal(err)
	}
	seq := testutil.ReplaySequential(t, pre, blocks)
	over := make(map[types.Address]int)
	for i, blk := range blocks {
		if len(blk.Txs) > 0 && i%2 == 0 {
			over[blk.Txs[0].From] = 0
		}
	}
	cr, _, err := Sharded{Workers: 8, Map: core.NewOverrideShardMap(4, over), Depth: 2}.
		ExecuteChain(pre.Copy(), blocks)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Root != seq.Root() {
		t.Fatal("override-map chain diverged from sequential replay")
	}
}

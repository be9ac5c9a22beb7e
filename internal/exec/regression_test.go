package exec

import (
	"testing"

	"txconcur/internal/account"
	"txconcur/internal/chainsim"
)

// TestGeneratorReceiptsConsistentWithPreState is a regression test for two
// coupled bugs:
//
//  1. AcctGen.Next used to deploy a new era's contracts at the *start* of
//     the call, after callers had already snapshotted Chain().State() as
//     the pre-state — so the generator's receipts described executions the
//     snapshot could not reproduce.
//  2. Grouped used to adopt the supplied oracle receipts as the final
//     receipts, so fee crediting disagreed with what its workers actually
//     executed whenever the oracle receipts drifted from the pre-state.
//
// The test drives the exact pattern that exposed the mismatch: pre-state
// snapshots across era transitions, generator receipts fed to Grouped as
// the scheduling oracle, and root equality against the sequential baseline.
func TestGeneratorReceiptsConsistentWithPreState(t *testing.T) {
	t.Parallel()
	g, err := chainsim.NewAcctGen(chainsim.EthereumProfile(), 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	for {
		pre := g.Chain().State().Copy()
		blk, receipts, ok, err := g.Next()
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
		// The generator's receipts must be reproducible from the snapshot.
		for i, r := range seq.Receipts {
			if r.GasUsed != receipts[i].GasUsed || r.Status != receipts[i].Status {
				t.Fatalf("block %d tx %d: replayed gas/status %d/%d != generator %d/%d",
					blk.Height, i, r.GasUsed, r.Status, receipts[i].GasUsed, receipts[i].Status)
			}
		}
		grp, err := Grouped{Workers: 8, Receipts: receipts}.Execute(pre.Copy(), blk)
		if err != nil {
			t.Fatal(err)
		}
		if grp.Root != seq.Root {
			t.Fatalf("block %d: grouped root mismatch with generator receipts as oracle", blk.Height)
		}
	}
}

// TestGroupedWithStaleOracle: even a deliberately wrong scheduling oracle
// must never corrupt the result — the engine either reports the overlap
// (oracle mode) or produces the sequential root.
func TestGroupedWithStaleOracle(t *testing.T) {
	g, err := chainsim.NewAcctGen(chainsim.EthereumClassicProfile(), 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	var stale []*account.Receipt
	for {
		pre := g.Chain().State().Copy()
		blk, receipts, ok, err := g.Next()
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
		// Feed the previous block's receipts as a (nonsensical) oracle:
		// group shapes will be wrong. The engine must stay safe — either an
		// explicit ErrGroupOverlap, or a result equal to sequential.
		if n := len(stale); n > 0 {
			if n > len(blk.Txs) {
				n = len(blk.Txs)
			}
			res, err := Grouped{Workers: 4, Receipts: stale[:n]}.Execute(pre.Copy(), blk)
			if err == nil && res.Root != seq.Root {
				t.Fatalf("block %d: stale oracle produced a wrong root silently", blk.Height)
			}
		}
		stale = receipts
	}
}

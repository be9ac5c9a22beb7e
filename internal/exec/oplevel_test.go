package exec

import (
	"testing"

	"txconcur/internal/account"
	"txconcur/internal/chainsim"
)

// runOpLevelEngines executes blk with every engine in operation-level mode
// and asserts root and receipt agreement with the sequential baseline.
func runOpLevelEngines(t *testing.T, st *account.StateDB, blk *account.Block, workers int) map[string]*Result {
	t.Helper()
	seq, err := Sequential(st.Copy(), blk)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	results := map[string]*Result{"sequential": seq}
	engines := map[string]func(*account.StateDB, *account.Block) (*Result, error){
		"speculative-op": func(s *account.StateDB, b *account.Block) (*Result, error) {
			return Speculative{Workers: workers, OpLevel: true}.Execute(s, b)
		},
		"stm-op": func(s *account.StateDB, b *account.Block) (*Result, error) {
			return STMExec{Workers: workers, OpLevel: true}.Execute(s, b)
		},
		"grouped-refined": func(s *account.StateDB, b *account.Block) (*Result, error) {
			return Grouped{Workers: workers, Refined: true, Receipts: seq.Receipts}.Execute(s, b)
		},
		"pipeline-op": func(s *account.StateDB, b *account.Block) (*Result, error) {
			return Pipeline{Workers: workers, OpLevel: true}.Execute(s, b)
		},
	}
	for name, run := range engines {
		res, err := run(st.Copy(), blk)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Root != seq.Root {
			t.Fatalf("%s: root mismatch with sequential", name)
		}
		for i := range res.Receipts {
			a, b := res.Receipts[i], seq.Receipts[i]
			if a.Status != b.Status || a.GasUsed != b.GasUsed || a.TxHash != b.TxHash {
				t.Fatalf("%s: receipt %d differs", name, i)
			}
		}
		results[name] = res
	}
	return results
}

func TestOpLevelSharedReceiverCommutes(t *testing.T) {
	// The exchange-deposit pattern that degenerates under key-level
	// conflicts: four blind credits to one receiver. Operation-level, the
	// credits commute, so nothing is binned, retried, or serialised.
	st := fundedState(10)
	blk := testBlock(
		transfer(0, 9, 0, 100),
		transfer(1, 9, 0, 100),
		transfer(2, 9, 0, 100),
		transfer(3, 9, 0, 100),
	)
	results := runOpLevelEngines(t, st, blk, 4)

	spec := results["speculative-op"].Stats
	if spec.Conflicted != 0 {
		t.Fatalf("op-level speculative binned %d, want 0", spec.Conflicted)
	}
	if spec.ParUnits != 1 || spec.Speedup != 4 {
		t.Fatalf("op-level speculative stats = %+v", spec)
	}
	stm := results["stm-op"].Stats
	if stm.Retries != 0 {
		t.Fatalf("op-level stm retries = %d, want 0", stm.Retries)
	}
	grp := results["grouped-refined"].Stats
	if grp.Conflicted != 0 || grp.ParUnits != 1 {
		t.Fatalf("refined grouped stats = %+v", grp)
	}
	pipe := results["pipeline-op"].Stats
	if pipe.Retries != 0 {
		t.Fatalf("op-level pipeline re-executed %d, want 0", pipe.Retries)
	}

	// Key-level, the same block fully serialises (the paper's §V-A worked
	// example regime) — the contrast E8 measures.
	key, err := Speculative{Workers: 4}.Execute(st.Copy(), blk)
	if err != nil {
		t.Fatal(err)
	}
	if key.Stats.Conflicted != 4 {
		t.Fatalf("key-level speculative binned %d, want 4", key.Stats.Conflicted)
	}
}

func TestOpLevelReadMaterializesDependency(t *testing.T) {
	// tx1 spends money it only has because tx0 credited it: the balance
	// *read* (the envelope funds check) must re-establish the dependency a
	// blind credit alone would not create. Every op-level engine must
	// detect the conflict and still produce the sequential result.
	st := fundedState(3)
	poor := uint64(7) // unfunded account
	upfront := int64(account.GasTx) + 400_000
	st.AddBalance(addr(poor), upfront) // enough for fees, not for the send
	st.DiscardJournal()
	blk := testBlock(
		transfer(0, poor, 0, 500_000),
		&account.Transaction{
			From: addr(poor), To: addr(2), Value: 500_000,
			Nonce: 0, GasLimit: account.GasTx, GasPrice: 1,
		},
	)
	results := runOpLevelEngines(t, st, blk, 4)
	// The dependency is real: the speculative engine must bin both sides of
	// the read–delta collision.
	if got := results["speculative-op"].Stats.Conflicted; got != 2 {
		t.Fatalf("speculative-op binned %d, want 2 (read vs delta)", got)
	}
}

func TestOpLevelEnginesOnHotKeyHistories(t *testing.T) {
	t.Parallel()
	// Serial equivalence on the generated hot-key workloads — the profiles
	// whose key-level TDG collapses into one component.
	for _, p := range chainsim.HotKeyProfiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			g, err := chainsim.NewAcctGen(p, 6, 11)
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
				runOpLevelEngines(t, pre, blk, 8)
			}
		})
	}
}

func TestOpLevelPipelineChain(t *testing.T) {
	// Cross-block: block 2's deposits to the same hot wallet must not be
	// invalidated by block 1's commit (delta versions merge), while a
	// cross-block read of the hot balance still re-executes.
	g, err := chainsim.NewAcctGen(chainsim.HotWalletProfile(), 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	pre := g.Chain().State().Copy()
	var blocks []*account.Block
	for {
		blk, _, ok, err := g.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		blocks = append(blocks, blk)
	}
	work := pre.Copy()
	for _, blk := range blocks {
		if _, err := Sequential(work, blk); err != nil {
			t.Fatal(err)
		}
	}
	seqRoot := work.Root()

	for _, op := range []bool{false, true} {
		cr, err := Pipeline{Workers: 8, Depth: 2, OpLevel: op}.ExecuteChain(pre.Copy(), blocks)
		if err != nil {
			t.Fatalf("op=%v: %v", op, err)
		}
		if cr.Root != seqRoot {
			t.Fatalf("op=%v: chain root diverged from sequential replay", op)
		}
	}
}

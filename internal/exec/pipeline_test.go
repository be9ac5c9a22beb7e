package exec

import (
	"errors"
	"testing"

	"txconcur/internal/account"
	"txconcur/internal/chainsim"
	"txconcur/internal/exec/testutil"
)

// Sequential replay — not the generator's receipt stream — is the
// pipeline's ground truth: the generator injects each era's popular
// contracts directly into state between blocks, so a pure block replay can
// diverge from the generated history at era boundaries while still being a
// perfectly valid chain. testutil.ReplaySequential reproduces Sequential
// exactly (the testutil package's own tests pin that equivalence).

// TestPipelineSingleBlock mirrors the per-block engines: Execute on one
// block must match Sequential from the same pre-state, for every block of a
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
		res, err := Pipeline{Workers: 8}.Execute(pre.Copy(), blk)
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

// TestPipelineCrossBlockConflicts drives the cross-block staleness path
// directly: consecutive blocks reusing the same senders force phase-1 nonce
// failures and stale balance reads, all of which must be repaired by
// re-execution, never silently committed.
func TestPipelineCrossBlockConflicts(t *testing.T) {
	pre, blocks, err := chainsim.GenerateAccountChain(chainsim.EthereumClassicProfile(), 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	seq := testutil.ReplaySequential(t, pre, blocks)

	res, err := Pipeline{Workers: 4, Depth: 2}.ExecuteChain(pre.Copy(), blocks)
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

// TestPipelineEdgeCases covers the degenerate inputs.
func TestPipelineEdgeCases(t *testing.T) {
	if _, err := (Pipeline{}).ExecuteChain(account.NewStateDB(), nil); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("workers=0: err = %v, want ErrNoWorkers", err)
	}

	st := account.NewStateDB()
	res, err := Pipeline{Workers: 2}.ExecuteChain(st, nil)
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

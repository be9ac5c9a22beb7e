package dataset

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"txconcur/internal/account"
	"txconcur/internal/exec"
	"txconcur/internal/types"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.expected.json")

// goldenExpected is the committed ground truth for the golden rwset
// fixture: the exact per-block dataset metrics (the paper's process_graph
// pipeline over the replayed blocks) and the exact state roots of the
// sequential replay. Any change to the trace format, the replay compiler,
// the VM, or the state commitment shows up here as a diff.
type goldenExpected struct {
	ChainRoot  types.Hash    `json:"chain_root"`
	BlockRoots []types.Hash  `json:"block_roots"`
	Results    []BlockResult `json:"results"`
}

func computeGoldenExpected(t *testing.T) goldenExpected {
	t.Helper()
	tr, err := GoldenTrace()
	if err != nil {
		t.Fatalf("GoldenTrace: %v", err)
	}
	rc, err := BuildReplayChain(tr)
	if err != nil {
		t.Fatalf("BuildReplayChain: %v", err)
	}
	st := rc.Pre.Copy()
	var exp goldenExpected
	var rows []AccountTxRow
	for i, blk := range rc.Blocks {
		res, err := exec.Sequential(st, blk)
		if err != nil {
			t.Fatalf("sequential replay block %d: %v", i, err)
		}
		for j, rcpt := range res.Receipts {
			if rcpt.Status != 1 {
				t.Fatalf("block %d tx %d: status %d", i, j, rcpt.Status)
			}
		}
		exp.BlockRoots = append(exp.BlockRoots, res.Root)
		rows = append(rows, FromAccountBlock(blk, res.Receipts)...)
	}
	exp.ChainRoot = st.Root()
	exp.Results, err = QueryAccount(rows)
	if err != nil {
		t.Fatalf("QueryAccount: %v", err)
	}
	return exp
}

// TestGoldenTraceReplay pins the golden fixture's replay to the committed
// expectations, exactly.
func TestGoldenTraceReplay(t *testing.T) {
	got := computeGoldenExpected(t)
	path := filepath.Join("testdata", "golden.expected.json")
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden expectations (rerun with -update to regenerate): %v", err)
	}
	var want goldenExpected
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("parse golden expectations: %v", err)
	}
	if !reflect.DeepEqual(got.Results, want.Results) {
		t.Errorf("per-block metrics diverged from %s\n got: %+v\nwant: %+v", path, got.Results, want.Results)
	}
	if !reflect.DeepEqual(got.BlockRoots, want.BlockRoots) {
		t.Errorf("block roots diverged from %s\n got: %v\nwant: %v", path, got.BlockRoots, want.BlockRoots)
	}
	if got.ChainRoot != want.ChainRoot {
		t.Errorf("chain root diverged from %s\n got: %v\nwant: %v", path, got.ChainRoot, want.ChainRoot)
	}
}

// TestGoldenTraceEngines replays the golden fixture through every engine
// family and checks roots and receipts against the sequential oracle —
// the golden fixture is small enough to afford running all of them in a
// unit test (the -race CI step drives exactly this test).
func TestGoldenTraceEngines(t *testing.T) {
	tr, err := GoldenTrace()
	if err != nil {
		t.Fatalf("GoldenTrace: %v", err)
	}
	rc, err := BuildReplayChain(tr)
	if err != nil {
		t.Fatalf("BuildReplayChain: %v", err)
	}
	// Sequential oracle.
	st := rc.Pre.Copy()
	var roots []types.Hash
	var oracles [][]*account.Receipt
	for i, blk := range rc.Blocks {
		res, err := exec.Sequential(st, blk)
		if err != nil {
			t.Fatalf("sequential block %d: %v", i, err)
		}
		roots = append(roots, res.Root)
		oracles = append(oracles, res.Receipts)
	}
	seqRoot := st.Root()

	for _, op := range []bool{false, true} {
		perBlock := map[string]func(st *account.StateDB, blk *account.Block) (*exec.Result, error){
			"speculative": exec.Speculative{Workers: 4, OpLevel: op, Cost: rc.TxCost}.Execute,
			"stm":         exec.STMExec{Workers: 4, OpLevel: op, Cost: rc.TxCost}.Execute,
			"sharded":     exec.Sharded{Workers: 4, Shards: 2, OpLevel: op, Depth: 2, Cost: rc.TxCost}.Execute,
		}
		for name, run := range perBlock {
			work := rc.Pre.Copy()
			for i, blk := range rc.Blocks {
				res, err := run(work, blk)
				if err != nil {
					t.Fatalf("%s op=%v block %d: %v", name, op, i, err)
				}
				if res.Root != roots[i] {
					t.Fatalf("%s op=%v block %d: root diverged", name, op, i)
				}
				for j, r := range res.Receipts {
					w := oracles[i][j]
					if r.Status != w.Status || r.GasUsed != w.GasUsed || r.TxHash != w.TxHash {
						t.Fatalf("%s op=%v block %d: receipt %d diverged", name, op, i, j)
					}
				}
			}
		}
		pipe, _, err := exec.Sharded{Workers: 4, Shards: 1, Depth: 2, OpLevel: op, Cost: rc.TxCost}.ExecuteChain(rc.Pre.Copy(), rc.Blocks)
		if err != nil {
			t.Fatalf("pipeline op=%v: %v", op, err)
		}
		if pipe.Root != seqRoot {
			t.Fatalf("pipeline op=%v: root diverged", op)
		}
		cr, _, err := exec.Sharded{Workers: 4, Shards: 2, OpLevel: op, Depth: 2, Cost: rc.TxCost}.
			ExecuteChain(rc.Pre.Copy(), rc.Blocks)
		if err != nil {
			t.Fatalf("sharded chain op=%v: %v", op, err)
		}
		if cr.Root != seqRoot {
			t.Fatalf("sharded chain op=%v: root diverged", op)
		}
	}
}

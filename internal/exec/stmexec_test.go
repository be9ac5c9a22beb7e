package exec

import (
	"testing"

	"txconcur/internal/account"
	"txconcur/internal/types"
	"txconcur/internal/vm"
)

// TestSTMExecRetries pins STMExec's abort rule on hand-made blocks: a
// transaction retries when a key it read or wrote is in its window's
// written set (absolute and delta writes of the window's earlier commits,
// retries included), or when its speculation failed the envelope. Every
// run must also reach the sequential root.
func TestSTMExecRetries(t *testing.T) {
	t.Parallel()
	st := fundedState(10)
	gate := addr(300)
	st.SetCode(gate, gateCode())
	// probe reads its own balance, then reverts when Arg == 0.
	probe := addr(301)
	st.SetCode(probe, vm.EncodeContract(vm.Contract{
		Code: vm.NewAsm().Op(vm.OpBalance, vm.OpPop, vm.OpArg).PushLabel("ok").Op(vm.OpJumpI, vm.OpRevert).
			Label("ok").Op(vm.OpStop).Bytes(),
	}))
	st.DiscardJournal()
	call := func(from uint64, to types.Address, value int64, arg uint64) *account.Transaction {
		return &account.Transaction{From: addr(from), To: to, Value: value, Arg: arg, GasLimit: 1_000_000, GasPrice: 1}
	}

	for _, tc := range []struct {
		name              string
		workers           int
		op                bool
		txs               []*account.Transaction
		retries, parUnits int
	}{
		{"read after write in one window", 2, false,
			[]*account.Transaction{transfer(0, 5, 0, 100), transfer(5, 6, 0, 100)}, 1, 2},
		{"the same pair split across windows", 2, false,
			[]*account.Transaction{transfer(0, 5, 0, 100), transfer(1, 7, 0, 100), transfer(5, 6, 0, 100)}, 0, 2},
		{"a retry's writes invalidate a later read", 4, false,
			[]*account.Transaction{transfer(0, 5, 0, 100), transfer(5, 6, 0, 100), transfer(6, 7, 0, 100)}, 2, 3},
		{"blind storage writes to one slot", 2, false,
			[]*account.Transaction{call(1, gate, 0, 42), call(2, gate, 0, 43)}, 1, 2},
		{"op-level blind credits to one key", 4, true,
			[]*account.Transaction{transfer(0, 9, 0, 100), transfer(1, 9, 0, 100), transfer(2, 9, 0, 100), transfer(3, 9, 0, 100)}, 0, 1},
		{"op-level credit, then a balance read", 2, true,
			[]*account.Transaction{transfer(0, 5, 0, 100), transfer(5, 6, 0, 100)}, 1, 2},
		{"nonce chain in one window", 4, false,
			[]*account.Transaction{transfer(0, 5, 0, 100), transfer(0, 6, 1, 100), transfer(0, 7, 2, 100)}, 2, 3},
		// The reverted credit leaves no write behind, so the later read of
		// the callee's balance stays valid.
		{"op-level reverted value call, then a balance read", 2, true,
			[]*account.Transaction{call(0, probe, 100, 0), call(1, probe, 0, 1)}, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blk := testBlock(tc.txs...)
			seq, err := Sequential(st.Copy(), blk)
			if err != nil {
				t.Fatal(err)
			}
			res, err := STMExec{Workers: tc.workers, OpLevel: tc.op}.Execute(st.Copy(), blk)
			if err != nil {
				t.Fatal(err)
			}
			if res.Root != seq.Root {
				t.Fatal("root differs from sequential")
			}
			if res.Stats.Retries != tc.retries || res.Stats.ParUnits != tc.parUnits {
				t.Fatalf("retries %d, par units %d; want %d, %d",
					res.Stats.Retries, res.Stats.ParUnits, tc.retries, tc.parUnits)
			}
		})
	}
	// GasPar is the window's gas spread over the workers plus each retry's
	// gas: ⌈2·21000/2⌉, then one 21000-gas retry.
	res, err := STMExec{Workers: 2}.Execute(st.Copy(), testBlock(transfer(0, 5, 0, 100), transfer(5, 6, 0, 100)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Retries != 1 || res.Stats.GasPar != 2*account.GasTx {
		t.Fatalf("retries %d, GasPar %d; want 1, %d", res.Stats.Retries, res.Stats.GasPar, 2*account.GasTx)
	}
}

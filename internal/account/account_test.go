package account

import (
	"errors"
	"testing"
	"testing/quick"

	"txconcur/internal/types"
	"txconcur/internal/vm"
)

func addr(i uint64) types.Address { return types.AddressFromUint64("accttest", i) }

func TestStateDBBasics(t *testing.T) {
	st := NewStateDB()
	a := addr(1)
	if st.GetBalance(a) != 0 || st.GetNonce(a) != 0 {
		t.Fatal("fresh account not zero")
	}
	st.AddBalance(a, 100)
	st.SubBalance(a, 30)
	if st.GetBalance(a) != 70 {
		t.Fatalf("balance = %d, want 70", st.GetBalance(a))
	}
	st.SetNonce(a, 5)
	if st.GetNonce(a) != 5 {
		t.Fatalf("nonce = %d, want 5", st.GetNonce(a))
	}
	st.SetCode(a, []byte{1, 2})
	if len(st.GetCode(a)) != 2 {
		t.Fatal("code not stored")
	}
	st.SetStorage(a, 3, 9)
	if st.GetStorage(a, 3) != 9 {
		t.Fatal("storage not stored")
	}
	if st.GetStorage(a, 4) != 0 {
		t.Fatal("unset slot not zero")
	}
}

func TestSnapshotRevert(t *testing.T) {
	st := NewStateDB()
	a, b := addr(1), addr(2)
	st.AddBalance(a, 100)
	snap := st.Snapshot()

	st.SubBalance(a, 40)
	st.AddBalance(b, 40)
	st.SetNonce(a, 1)
	st.SetStorage(a, 0, 7)
	st.SetCode(b, []byte{9})

	st.RevertToSnapshot(snap)
	if st.GetBalance(a) != 100 || st.GetBalance(b) != 0 {
		t.Fatalf("balances not reverted: %d/%d", st.GetBalance(a), st.GetBalance(b))
	}
	if st.GetNonce(a) != 0 || st.GetStorage(a, 0) != 0 || st.GetCode(b) != nil {
		t.Fatal("nonce/storage/code not reverted")
	}
}

func TestNestedSnapshots(t *testing.T) {
	st := NewStateDB()
	a := addr(1)
	st.AddBalance(a, 1)
	s1 := st.Snapshot()
	st.AddBalance(a, 10)
	s2 := st.Snapshot()
	st.AddBalance(a, 100)
	st.RevertToSnapshot(s2)
	if st.GetBalance(a) != 11 {
		t.Fatalf("after inner revert: %d, want 11", st.GetBalance(a))
	}
	st.RevertToSnapshot(s1)
	if st.GetBalance(a) != 1 {
		t.Fatalf("after outer revert: %d, want 1", st.GetBalance(a))
	}
}

func TestRootDeterministic(t *testing.T) {
	build := func(order []int) *StateDB {
		st := NewStateDB()
		for _, i := range order {
			a := addr(uint64(i))
			st.AddBalance(a, Amount(i*10))
			st.SetNonce(a, uint64(i))
			st.SetStorage(a, uint64(i), uint64(i*i))
		}
		return st
	}
	r1 := build([]int{1, 2, 3}).Root()
	r2 := build([]int{3, 1, 2}).Root()
	if r1 != r2 {
		t.Fatal("root depends on insertion order")
	}
	r3 := build([]int{1, 2, 4}).Root()
	if r1 == r3 {
		t.Fatal("different states share a root")
	}
}

func TestRootZeroStorageCanonical(t *testing.T) {
	// Writing zero to an empty slot must not perturb the root.
	st := NewStateDB()
	st.AddBalance(addr(1), 5)
	r1 := st.Root()
	st.SetStorage(addr(1), 9, 0)
	if st.Root() != r1 {
		t.Fatal("zero write to empty slot changed root")
	}
	// Writing then clearing a slot returns to the original root.
	st.SetStorage(addr(1), 9, 3)
	st.SetStorage(addr(1), 9, 0)
	if st.Root() != r1 {
		t.Fatal("set-then-clear changed root")
	}
}

func TestCopyIndependent(t *testing.T) {
	st := NewStateDB()
	st.AddBalance(addr(1), 10)
	st.SetCode(addr(2), []byte{1})
	st.SetStorage(addr(1), 0, 1)
	cp := st.Copy()
	if cp.Root() != st.Root() {
		t.Fatal("copy has different root")
	}
	cp.AddBalance(addr(1), 5)
	cp.SetStorage(addr(1), 0, 2)
	if st.GetBalance(addr(1)) != 10 || st.GetStorage(addr(1), 0) != 1 {
		t.Fatal("mutating copy changed original")
	}
}

// TestSnapshotRevertProperty: applying random mutations and reverting always
// restores the exact prior root.
func TestSnapshotRevertProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		st := NewStateDB()
		st.AddBalance(addr(0), 1000)
		before := st.Root()
		snap := st.Snapshot()
		for i, op := range ops {
			a := addr(uint64(op % 5))
			switch op % 4 {
			case 0:
				st.AddBalance(a, Amount(i))
			case 1:
				st.SetNonce(a, uint64(i))
			case 2:
				st.SetStorage(a, uint64(op), uint64(i))
			case 3:
				st.SetCode(a, []byte{op, uint8(i)})
			}
		}
		st.RevertToSnapshot(snap)
		return st.Root() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func testBlock(txs ...*Transaction) *Block {
	return &Block{Height: 1, Time: 1000, Coinbase: addr(99), GasLimit: 100_000_000, Txs: txs}
}

func fundedState(users ...uint64) *StateDB {
	st := NewStateDB()
	for _, u := range users {
		st.AddBalance(addr(u), 1_000_000_000)
	}
	return st
}

func TestApplyTransfer(t *testing.T) {
	st := fundedState(1)
	var p Processor
	tx := &Transaction{From: addr(1), To: addr(2), Value: 500, GasLimit: 30_000, GasPrice: 2}
	rcpt, err := p.ApplyTransaction(st, testBlock(tx), tx)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if rcpt.Status != 1 {
		t.Fatalf("status = %d, want 1", rcpt.Status)
	}
	if rcpt.GasUsed != GasTx {
		t.Fatalf("gas used = %d, want %d", rcpt.GasUsed, GasTx)
	}
	if st.GetBalance(addr(2)) != 500 {
		t.Fatalf("recipient = %d, want 500", st.GetBalance(addr(2)))
	}
	wantSender := Amount(1_000_000_000) - 500 - Amount(GasTx)*2
	if st.GetBalance(addr(1)) != wantSender {
		t.Fatalf("sender = %d, want %d", st.GetBalance(addr(1)), wantSender)
	}
	if st.GetBalance(addr(99)) != Amount(GasTx)*2 {
		t.Fatalf("coinbase fee = %d, want %d", st.GetBalance(addr(99)), Amount(GasTx)*2)
	}
	if st.GetNonce(addr(1)) != 1 {
		t.Fatal("nonce not bumped")
	}
}

func TestEnvelopeErrors(t *testing.T) {
	var p Processor
	st := fundedState(1)

	badNonce := &Transaction{From: addr(1), To: addr(2), Nonce: 5, GasLimit: 30_000}
	if _, err := p.ApplyTransaction(st, testBlock(badNonce), badNonce); !errors.Is(err, ErrNonce) {
		t.Fatalf("bad nonce: %v", err)
	}
	// The message is the one the old fmt.Errorf("%w: …") built, and the
	// failure path allocates at most the *NonceError itself.
	_, err := p.ApplyTransaction(st, testBlock(badNonce), badNonce)
	if want := "account: bad nonce: have 0, tx has 5 (from " + addr(1).Short() + ")"; err.Error() != want {
		t.Fatalf("bad nonce message %q, want %q", err.Error(), want)
	}
	blk := testBlock(badNonce)
	if allocs := testing.AllocsPerRun(100, func() {
		_, _ = p.ApplyTransaction(st, blk, badNonce)
	}); allocs > 1 {
		t.Fatalf("bad nonce path: %.1f allocs, want ≤ 1", allocs)
	}
	lowGas := &Transaction{From: addr(1), To: addr(2), GasLimit: 100}
	if _, err := p.ApplyTransaction(st, testBlock(lowGas), lowGas); !errors.Is(err, ErrIntrinsicGas) {
		t.Fatalf("intrinsic: %v", err)
	}
	poor := &Transaction{From: addr(3), To: addr(2), Value: 1, GasLimit: 30_000, GasPrice: 1}
	if _, err := p.ApplyTransaction(st, testBlock(poor), poor); !errors.Is(err, ErrInsufficientFunds) {
		t.Fatalf("poor: %v", err)
	}
	codeOnCall := &Transaction{From: addr(1), To: addr(2), GasLimit: 30_000, Code: []byte{1}}
	if _, err := p.ApplyTransaction(st, testBlock(codeOnCall), codeOnCall); !errors.Is(err, ErrCodeOnCall) {
		t.Fatalf("code on call: %v", err)
	}
	// Envelope errors must not mutate state.
	if st.GetNonce(addr(1)) != 0 || st.GetBalance(addr(1)) != 1_000_000_000 {
		t.Fatal("failed envelope mutated state")
	}
}

func TestContractCreationAndCall(t *testing.T) {
	var p Processor
	st := fundedState(1)
	// Contract stores its call argument into slot 0.
	code := vm.EncodeContract(vm.Contract{
		Code: vm.NewAsm().Push(0).Op(vm.OpArg, vm.OpSstore, vm.OpStop).Bytes(),
	})
	create := &Transaction{From: addr(1), GasLimit: 10_000_000, GasPrice: 1, Code: code}
	rcpt, err := p.ApplyTransaction(st, testBlock(create), create)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	cAddr := rcpt.To
	if cAddr.IsZero() {
		t.Fatal("creation receipt has zero contract address")
	}
	if len(st.GetCode(cAddr)) == 0 {
		t.Fatal("code not installed")
	}
	if rcpt.GasUsed < GasTx+GasTxCreate {
		t.Fatalf("creation gas %d below intrinsic", rcpt.GasUsed)
	}

	call := &Transaction{From: addr(1), To: cAddr, Nonce: 1, GasLimit: 1_000_000, GasPrice: 1, Arg: 77}
	rcpt, err = p.ApplyTransaction(st, testBlock(call), call)
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	if rcpt.Status != 1 {
		t.Fatalf("call failed: %s", rcpt.ExecErr)
	}
	if st.GetStorage(cAddr, 0) != 77 {
		t.Fatalf("slot0 = %d, want 77", st.GetStorage(cAddr, 0))
	}
}

func TestContractAddressDeterministic(t *testing.T) {
	a1 := ContractAddress(addr(1), 0)
	a2 := ContractAddress(addr(1), 0)
	if a1 != a2 {
		t.Fatal("not deterministic")
	}
	if ContractAddress(addr(1), 1) == a1 {
		t.Fatal("nonce must change address")
	}
	if ContractAddress(addr(2), 0) == a1 {
		t.Fatal("sender must change address")
	}
}

func TestFailedExecutionConsumesGas(t *testing.T) {
	var p Processor
	st := fundedState(1)
	code := vm.EncodeContract(vm.Contract{
		Code: vm.NewAsm().Sstore(0, 1).Op(vm.OpRevert).Bytes(),
	})
	create := &Transaction{From: addr(1), GasLimit: 10_000_000, GasPrice: 1, Code: code}
	rcpt, err := p.ApplyTransaction(st, testBlock(create), create)
	if err != nil {
		t.Fatal(err)
	}
	cAddr := rcpt.To

	balBefore := st.GetBalance(addr(1))
	call := &Transaction{From: addr(1), To: cAddr, Nonce: 1, GasLimit: 50_000, GasPrice: 1}
	rcpt, err = p.ApplyTransaction(st, testBlock(call), call)
	if err != nil {
		t.Fatalf("failed execution should still produce a receipt: %v", err)
	}
	if rcpt.Status != 0 || rcpt.ExecErr == "" {
		t.Fatalf("receipt = %+v, want status 0 with error", rcpt)
	}
	if rcpt.GasUsed != 50_000 {
		t.Fatalf("failed call should forfeit all gas, used %d", rcpt.GasUsed)
	}
	if st.GetStorage(cAddr, 0) != 0 {
		t.Fatal("reverted write survived")
	}
	if st.GetNonce(addr(1)) != 2 {
		t.Fatal("nonce bump must survive failure")
	}
	if st.GetBalance(addr(1)) != balBefore-50_000 {
		t.Fatalf("sender balance = %d, want %d", st.GetBalance(addr(1)), balBefore-50_000)
	}
}

func TestApplyBlockAndChain(t *testing.T) {
	ch := NewChain()
	ch.State().AddBalance(addr(1), 1_000_000_000)
	ch.State().AddBalance(addr(2), 1_000_000_000)

	b1 := &Block{
		Height: 0, Time: 10, Coinbase: addr(99), GasLimit: 10_000_000,
		Txs: []*Transaction{
			{From: addr(1), To: addr(3), Value: 100, GasLimit: 30_000, GasPrice: 1},
			{From: addr(2), To: addr(3), Value: 200, GasLimit: 30_000, GasPrice: 1},
			{From: addr(1), To: addr(2), Value: 50, Nonce: 1, GasLimit: 30_000, GasPrice: 1},
		},
	}
	receipts, err := ch.Append(b1)
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if len(receipts) != 3 {
		t.Fatalf("receipts = %d, want 3", len(receipts))
	}
	if ch.State().GetBalance(addr(3)) != 300 {
		t.Fatalf("addr3 = %d, want 300", ch.State().GetBalance(addr(3)))
	}
	wantCoinbase := BlockReward + Amount(3*GasTx)
	if got := ch.State().GetBalance(addr(99)); got != wantCoinbase {
		t.Fatalf("coinbase = %d, want %d", got, wantCoinbase)
	}
	if ch.Height() != 1 {
		t.Fatal("height not bumped")
	}
	if got := ch.Receipts(0); len(got) != 3 {
		t.Fatal("receipts not stored")
	}

	// A block with a bad transaction is rejected atomically.
	rootBefore := ch.State().Root()
	bad := &Block{
		Height: 1, PrevHash: ch.TipHash(), Coinbase: addr(99), GasLimit: 10_000_000,
		Txs: []*Transaction{
			{From: addr(2), To: addr(1), Value: 1, Nonce: 1, GasLimit: 30_000, GasPrice: 1},
			{From: addr(2), To: addr(1), Value: 1, Nonce: 7, GasLimit: 30_000, GasPrice: 1}, // bad nonce
		},
	}
	if _, err := ch.Append(bad); !errors.Is(err, ErrNonce) {
		t.Fatalf("bad block: %v", err)
	}
	if ch.State().Root() != rootBefore {
		t.Fatal("rejected block mutated state")
	}
	if ch.Height() != 1 {
		t.Fatal("rejected block extended chain")
	}
}

func TestBlockGasLimit(t *testing.T) {
	var p Processor
	st := fundedState(1)
	blk := &Block{
		Height: 0, Coinbase: addr(99), GasLimit: GasTx + 10, // room for one tx only
		Txs: []*Transaction{
			{From: addr(1), To: addr(2), GasLimit: 21_000, GasPrice: 1},
			{From: addr(1), To: addr(2), Nonce: 1, GasLimit: 21_000, GasPrice: 1},
		},
	}
	if _, err := p.ApplyBlock(st, blk); !errors.Is(err, ErrBlockGasExceeded) {
		t.Fatalf("err = %v, want ErrBlockGasExceeded", err)
	}
}

func TestChainLinkErrors(t *testing.T) {
	ch := NewChain()
	b := &Block{Height: 5, Coinbase: addr(9)}
	if _, err := ch.Append(b); err == nil {
		t.Fatal("wrong height accepted")
	}
	b0 := &Block{Height: 0, Coinbase: addr(9)}
	if _, err := ch.Append(b0); err != nil {
		t.Fatal(err)
	}
	wrong := &Block{Height: 1, PrevHash: types.HashUint64("x", 1), Coinbase: addr(9)}
	if _, err := ch.Append(wrong); err == nil {
		t.Fatal("wrong prev hash accepted")
	}
}

func TestInternalTxsInReceipt(t *testing.T) {
	var p Processor
	st := fundedState(1)

	// Leaf contract: writes arg to slot 0.
	leafCode := vm.EncodeContract(vm.Contract{
		Code: vm.NewAsm().Push(0).Op(vm.OpArg, vm.OpSstore, vm.OpStop).Bytes(),
	})
	createLeaf := &Transaction{From: addr(1), GasLimit: 10_000_000, GasPrice: 1, Code: leafCode}
	rcpt, err := p.ApplyTransaction(st, testBlock(createLeaf), createLeaf)
	if err != nil {
		t.Fatal(err)
	}
	leaf := rcpt.To

	// Router contract: calls the leaf.
	routerCode := vm.EncodeContract(vm.Contract{
		Code:      vm.NewAsm().Call(0, 0, 5).Op(vm.OpPop, vm.OpStop).Bytes(),
		AddrTable: []types.Address{leaf},
	})
	createRouter := &Transaction{From: addr(1), Nonce: 1, GasLimit: 10_000_000, GasPrice: 1, Code: routerCode}
	rcpt, err = p.ApplyTransaction(st, testBlock(createRouter), createRouter)
	if err != nil {
		t.Fatal(err)
	}
	router := rcpt.To

	call := &Transaction{From: addr(1), To: router, Nonce: 2, GasLimit: 1_000_000, GasPrice: 1}
	rcpt, err = p.ApplyTransaction(st, testBlock(call), call)
	if err != nil {
		t.Fatal(err)
	}
	if rcpt.Status != 1 {
		t.Fatalf("call failed: %s", rcpt.ExecErr)
	}
	if len(rcpt.Internal) != 1 {
		t.Fatalf("internal txs = %d, want 1", len(rcpt.Internal))
	}
	if rcpt.Internal[0].From != router || rcpt.Internal[0].To != leaf {
		t.Fatalf("internal = %+v", rcpt.Internal[0])
	}
	if st.GetStorage(leaf, 0) != 5 {
		t.Fatal("leaf write lost")
	}
}

func TestTxHashStability(t *testing.T) {
	tx1 := &Transaction{From: addr(1), To: addr(2), Value: 5, Nonce: 1, GasLimit: 100, GasPrice: 1}
	tx2 := &Transaction{From: addr(1), To: addr(2), Value: 5, Nonce: 1, GasLimit: 100, GasPrice: 1}
	if tx1.Hash() != tx2.Hash() {
		t.Fatal("identical txs must share a hash")
	}
	tx3 := &Transaction{From: addr(1), To: addr(2), Value: 6, Nonce: 1, GasLimit: 100, GasPrice: 1}
	if tx1.Hash() == tx3.Hash() {
		t.Fatal("different value must change hash")
	}
}

func TestValueTransferOnCreation(t *testing.T) {
	var p Processor
	st := fundedState(1)
	code := vm.EncodeContract(vm.Contract{Code: vm.NewAsm().Op(vm.OpStop).Bytes()})
	create := &Transaction{From: addr(1), Value: 1234, GasLimit: 10_000_000, GasPrice: 1, Code: code}
	rcpt, err := p.ApplyTransaction(st, testBlock(create), create)
	if err != nil {
		t.Fatal(err)
	}
	if st.GetBalance(rcpt.To) != 1234 {
		t.Fatalf("contract balance = %d, want 1234", st.GetBalance(rcpt.To))
	}
}

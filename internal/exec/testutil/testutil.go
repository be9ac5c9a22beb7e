// Package testutil centralises the serial-equivalence oracle every engine
// suite checks against: a sequential replay of a block sequence and the
// root/receipt comparisons. The same helper verifies the per-block engines,
// the pipelined chains and the streaming builder, so "serial equivalence"
// means one thing across the repo.
//
// The replay reproduces exec.Sequential exactly — deferred coinbase fees
// credited in one batch after the block, then the block reward — but is
// implemented against internal/account alone so that in-package exec test
// files can import this package without an import cycle.
package testutil

import (
	"testing"

	"txconcur/internal/account"
	"txconcur/internal/types"
	"txconcur/internal/vm"
)

// procDeferred mirrors exec's shared processor configuration: fees are
// credited in one batch so the replay's intermediate states (which the VM
// can observe via balance reads) match what every parallel engine sees.
var procDeferred = account.Processor{DeferCoinbase: true}

// Chain is the sequential replay of a block sequence: the oracle for state
// roots and receipts.
type Chain struct {
	// Receipts holds the per-block, per-transaction receipts in order.
	Receipts [][]*account.Receipt
	// Roots holds the state root after each block.
	Roots []types.Hash
	// Final is the state database after the last block.
	Final *account.StateDB
}

// ReplaySequential replays blocks in order from a copy of pre (pre itself is
// never mutated), failing the test on any envelope error — a sequential
// replay that rejects a transaction means the fixture itself is broken.
func ReplaySequential(tb testing.TB, pre *account.StateDB, blocks []*account.Block) *Chain {
	tb.Helper()
	c := &Chain{Final: pre.Copy()}
	for i, blk := range blocks {
		receipts := make([]*account.Receipt, 0, len(blk.Txs))
		for j, tx := range blk.Txs {
			rcpt, err := procDeferred.ApplyTransaction(c.Final, blk, tx)
			if err != nil {
				tb.Fatalf("sequential replay block %d tx %d: %v", i, j, err)
			}
			receipts = append(receipts, rcpt)
		}
		c.Final.AddBalance(blk.Coinbase, account.Fees(blk.Txs, receipts))
		c.Final.AddBalance(blk.Coinbase, account.BlockReward)
		c.Final.DiscardJournal()
		c.Receipts = append(c.Receipts, receipts)
		c.Roots = append(c.Roots, c.Final.Root())
	}
	return c
}

// Root returns the chain root after the last block.
func (c *Chain) Root() types.Hash { return c.Final.Root() }

// RequireChain asserts that an engine's chain root and per-block receipts
// match the sequential oracle.
func (c *Chain) RequireChain(tb testing.TB, name string, root types.Hash, receipts [][]*account.Receipt) {
	tb.Helper()
	if root != c.Root() {
		tb.Fatalf("%s: chain root %s, sequential replay has %s", name, root.Short(), c.Root().Short())
	}
	if len(receipts) != len(c.Receipts) {
		tb.Fatalf("%s: %d receipt blocks, want %d", name, len(receipts), len(c.Receipts))
	}
	for b := range receipts {
		RequireReceipts(tb, name, b, receipts[b], c.Receipts[b])
	}
}

// RequireReceipts asserts that one block's receipts match the oracle's:
// status, gas, transaction hash and internal-call count — the fields every
// engine must agree on regardless of schedule.
func RequireReceipts(tb testing.TB, name string, block int, got, want []*account.Receipt) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("%s block %d: %d receipts, want %d", name, block, len(got), len(want))
	}
	for i := range got {
		a, w := got[i], want[i]
		if a == nil || w == nil {
			tb.Fatalf("%s block %d receipt %d missing", name, block, i)
		}
		if a.Status != w.Status || a.GasUsed != w.GasUsed || a.TxHash != w.TxHash ||
			len(a.Internal) != len(w.Internal) {
			tb.Fatalf("%s block %d receipt %d differs: %+v vs %+v", name, block, i, a, w)
		}
	}
}

// ClearedSlotChain is a four-block fixture in which a token holder sends
// its whole balance away: storage slot `slot` of contract `token` is zero
// in pre, non-zero after blocks 0 and 1, and cleared back to zero by block
// 2. A durable state format that drops zero-valued storage words would
// resurrect the stale balance, so checkpoint and recovery suites use it to
// pin the tombstone of a cleared slot; a checkpoint interval of 2 puts the
// non-zero and the cleared value in consecutive checkpoints.
func ClearedSlotChain() (pre *account.StateDB, blocks []*account.Block, token types.Address, slot uint64) {
	holder := func(i uint64) types.Address { return types.AddressFromUint64("cleared-slot", i) }
	token = types.AddressFromUint64("cleared-slot/token", 0)
	// transfer-all: storage[arg] += storage[caller]; storage[caller] = 0.
	code := vm.NewAsm().
		Op(vm.OpArg).
		Op(vm.OpArg, vm.OpSload).
		Op(vm.OpCaller, vm.OpSload).
		Op(vm.OpAdd, vm.OpSstore).
		Op(vm.OpCaller).Push(0).Op(vm.OpSstore, vm.OpStop).
		Bytes()
	pre = account.NewStateDB()
	for i := uint64(0); i < 6; i++ {
		pre.AddBalance(holder(i), 1_000_000_000)
	}
	pre.SetCode(token, vm.EncodeContract(vm.Contract{Code: code}))
	pre.SetStorage(token, vm.AddressFingerprint(holder(0)), 500)
	pre.SetStorage(token, vm.AddressFingerprint(holder(1)), 300)
	pre.DiscardJournal()

	nonces := make(map[types.Address]uint64)
	send := func(from types.Address, to types.Address, value int64, arg uint64) *account.Transaction {
		tx := &account.Transaction{From: from, To: to, Value: value, Nonce: nonces[from],
			GasLimit: 1_000_000, GasPrice: 1, Arg: arg}
		nonces[from]++
		return tx
	}
	sendAll := func(from, to types.Address) *account.Transaction {
		return send(from, token, 0, vm.AddressFingerprint(to))
	}
	txs := [][]*account.Transaction{
		{sendAll(holder(0), holder(2)), send(holder(3), holder(4), 10, 0)},
		{sendAll(holder(1), holder(2)), send(holder(4), holder(5), 5, 0)},
		{sendAll(holder(2), holder(3)), send(holder(5), holder(0), 1, 0)},
		{send(holder(3), holder(5), 7, 0), sendAll(holder(4), holder(5))},
	}
	for h, b := range txs {
		blocks = append(blocks, &account.Block{Height: uint64(h + 1), Time: int64(100 + h),
			Coinbase: types.AddressFromUint64("cleared-slot/miner", 0), Txs: b})
	}
	return pre, blocks, token, vm.AddressFingerprint(holder(2))
}

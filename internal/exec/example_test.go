package exec_test

import (
	"fmt"

	"txconcur/internal/account"
	"txconcur/internal/exec"
	"txconcur/internal/heat"
	"txconcur/internal/types"
)

// exampleState endows four externally owned accounts so the example blocks
// below pass the envelope checks.
func exampleState() *account.StateDB {
	st := account.NewStateDB()
	for i := uint64(1); i <= 4; i++ {
		st.AddBalance(types.AddressFromUint64("example", i), 1_000_000_000)
	}
	st.DiscardJournal()
	return st
}

// ExampleSequential executes a two-transfer block with the baseline engine.
func ExampleSequential() {
	st := exampleState()
	alice := types.AddressFromUint64("example", 1)
	bob := types.AddressFromUint64("example", 2)
	sink := types.AddressFromUint64("example", 9)
	blk := &account.Block{
		Coinbase: types.AddressFromUint64("example", 99),
		Txs: []*account.Transaction{
			{From: alice, To: sink, Value: 100, Nonce: 0, GasLimit: 21000, GasPrice: 1},
			{From: bob, To: sink, Value: 200, Nonce: 0, GasLimit: 21000, GasPrice: 1},
		},
	}
	res, err := exec.Sequential(st, blk)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("receipts:", len(res.Receipts))
	fmt.Println("sink balance:", st.GetBalance(sink))
	// Output:
	// receipts: 2
	// sink balance: 300
}

// ExampleSharded_Execute runs one block through the one-shard engine — the
// pipelined two-phase engine — and checks serial equivalence against the
// baseline: independent transfers validate on their phase-1 results, so
// nothing is re-executed.
func ExampleSharded_Execute() {
	st := exampleState()
	alice := types.AddressFromUint64("example", 1)
	bob := types.AddressFromUint64("example", 2)
	blk := &account.Block{
		Coinbase: types.AddressFromUint64("example", 99),
		Txs: []*account.Transaction{
			{From: alice, To: types.AddressFromUint64("example", 3), Value: 7, Nonce: 0, GasLimit: 21000, GasPrice: 1},
			{From: bob, To: types.AddressFromUint64("example", 4), Value: 9, Nonce: 0, GasLimit: 21000, GasPrice: 1},
		},
	}
	seq, err := exec.Sequential(exampleState(), blk)
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := exec.Sharded{Workers: 4, Shards: 1}.Execute(st, blk)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("root matches sequential:", res.Root == seq.Root)
	fmt.Println("re-executed:", res.Stats.Retries)
	// Output:
	// root matches sequential: true
	// re-executed: 0
}

// ExampleSharded partitions state across four committees and executes a
// block whose transfers cross shard boundaries — the traffic Zilliqa-style
// sharding forfeits. The deterministic cross-shard commit validates the
// staged results, so the root still equals the sequential baseline and no
// whole-block fallback is needed.
func ExampleSharded() {
	st := exampleState()
	blk := &account.Block{
		Coinbase: types.AddressFromUint64("example", 99),
		Txs: []*account.Transaction{
			{From: types.AddressFromUint64("example", 1), To: types.AddressFromUint64("example", 2),
				Value: 100, Nonce: 0, GasLimit: 21000, GasPrice: 1},
			{From: types.AddressFromUint64("example", 3), To: types.AddressFromUint64("example", 4),
				Value: 200, Nonce: 0, GasLimit: 21000, GasPrice: 1},
		},
	}
	seq, err := exec.Sequential(exampleState(), blk)
	if err != nil {
		fmt.Println(err)
		return
	}
	cr, css, err := exec.Sharded{Workers: 4, Shards: 4}.ExecuteChain(st, []*account.Block{blk})
	if err != nil {
		fmt.Println(err)
		return
	}
	ss := css.Blocks[0]
	fmt.Println("root matches sequential:", cr.Root == seq.Root)
	fmt.Println("classified:", ss.Intra+ss.Cross, "txs across", ss.Shards, "shards")
	fmt.Println("fallback:", ss.Fallback)
	// Output:
	// root matches sequential: true
	// classified: 2 txs across 4 shards
	// fallback: false
}

// ExampleSharded_ExecuteChain pipelines two dependent blocks through the
// sharded engine: the per-shard speculative phase 1 of block 1 overlaps the
// cross-shard commit of block 0. The second block spends from the same
// sender, so its phase-1 run (against a lagged per-shard snapshot) goes
// stale and is transparently re-executed — the result still equals the
// sequential chain.
func ExampleSharded_ExecuteChain() {
	alice := types.AddressFromUint64("example", 1)
	sink := types.AddressFromUint64("example", 9)
	coinbase := types.AddressFromUint64("example", 99)
	blocks := []*account.Block{
		{Height: 0, Coinbase: coinbase, Txs: []*account.Transaction{
			{From: alice, To: sink, Value: 10, Nonce: 0, GasLimit: 21000, GasPrice: 1},
		}},
		{Height: 1, Coinbase: coinbase, Txs: []*account.Transaction{
			{From: alice, To: sink, Value: 20, Nonce: 1, GasLimit: 21000, GasPrice: 1},
		}},
	}

	seqSt := exampleState()
	for _, blk := range blocks {
		if _, err := exec.Sequential(seqSt, blk); err != nil {
			fmt.Println(err)
			return
		}
	}

	shardSt := exampleState()
	res, css, err := exec.Sharded{Workers: 4, Shards: 2, Depth: 2}.ExecuteChain(shardSt, blocks)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("blocks:", len(res.Receipts))
	fmt.Println("root matches sequential:", res.Root == seqSt.Root())
	fmt.Println("sink balance:", shardSt.GetBalance(sink))
	fmt.Println("fallback blocks:", css.FallbackBlocks)
	// Output:
	// blocks: 2
	// root matches sequential: true
	// sink balance: 30
	// fallback blocks: 0
}

// ExampleSharded_adaptiveMap runs a sweep-bot chain — one sender paying the
// same collector on every block — through the sharded chain engine with an
// adaptive shard map. The map observes the pair being serialised together,
// co-locates it at the first epoch boundary (migrating the moved state
// between the per-shard stores), and the result still equals the
// sequential chain.
func ExampleSharded_adaptiveMap() {
	bot := types.AddressFromUint64("example", 1)
	collector := types.AddressFromUint64("example", 9)
	coinbase := types.AddressFromUint64("example", 99)
	var blocks []*account.Block
	nonce := uint64(0)
	for h := 0; h < 6; h++ {
		var txs []*account.Transaction
		for i := 0; i < 4; i++ {
			txs = append(txs, &account.Transaction{
				From: bot, To: collector, Value: 5, Nonce: nonce, GasLimit: 21000, GasPrice: 1,
			})
			nonce++
		}
		blocks = append(blocks, &account.Block{Height: uint64(h), Coinbase: coinbase, Txs: txs})
	}

	seqSt := exampleState()
	for _, blk := range blocks {
		if _, err := exec.Sequential(seqSt, blk); err != nil {
			fmt.Println(err)
			return
		}
	}

	m := heat.NewAdaptiveMap(4, nil)
	e := exec.Sharded{Workers: 4, Depth: 2, Map: m, RebalanceEvery: 2}
	res, css, err := e.ExecuteChain(exampleState(), blocks)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("root matches sequential:", res.Root == seqSt.Root())
	fmt.Println("bot and collector co-located:", m.Shard(bot) == m.Shard(collector))
	fmt.Println("rebalance epochs:", css.RebalanceEpochs)
	fmt.Println("migrated keys:", css.Migrations > 0)
	// Output:
	// root matches sequential: true
	// bot and collector co-located: true
	// rebalance epochs: 2
	// migrated keys: true
}

// ExampleSharded_ExecuteChain_oneShard pipelines two dependent blocks
// through the one-shard engine: the second block spends from the same
// sender, so its phase-1 run (against a stale snapshot) fails the nonce
// check and is transparently re-executed in phase 2 — the result still
// equals the sequential chain.
func ExampleSharded_ExecuteChain_oneShard() {
	alice := types.AddressFromUint64("example", 1)
	sink := types.AddressFromUint64("example", 9)
	coinbase := types.AddressFromUint64("example", 99)
	blocks := []*account.Block{
		{Height: 0, Coinbase: coinbase, Txs: []*account.Transaction{
			{From: alice, To: sink, Value: 10, Nonce: 0, GasLimit: 21000, GasPrice: 1},
		}},
		{Height: 1, Coinbase: coinbase, Txs: []*account.Transaction{
			{From: alice, To: sink, Value: 20, Nonce: 1, GasLimit: 21000, GasPrice: 1},
		}},
	}

	seqSt := exampleState()
	for _, blk := range blocks {
		if _, err := exec.Sequential(seqSt, blk); err != nil {
			fmt.Println(err)
			return
		}
	}

	pipeSt := exampleState()
	res, _, err := exec.Sharded{Workers: 4, Shards: 1, Depth: 2}.ExecuteChain(pipeSt, blocks)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("blocks:", len(res.Receipts))
	fmt.Println("root matches sequential:", res.Root == seqSt.Root())
	fmt.Println("sink balance:", pipeSt.GetBalance(sink))
	// Output:
	// blocks: 2
	// root matches sequential: true
	// sink balance: 30
}

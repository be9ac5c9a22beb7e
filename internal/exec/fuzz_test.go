package exec

import (
	"math/rand"
	"testing"

	"txconcur/internal/account"
	"txconcur/internal/dataset"
	"txconcur/internal/heat"
	"txconcur/internal/types"
	"txconcur/internal/vm"
)

// fuzzChain deterministically derives a funded state and a short chain of
// envelope-valid blocks from the fuzz arguments: a mix of plain transfers
// (skewed toward a few hot, credit-only receivers — the delta-heavy
// pattern), calls to a caller-keyed token, calls to a shared-slot counter
// contract (real read–write conflicts), and same-sender nonce chains.
func fuzzChain(seed int64, users, hotN, txn, hotPct, split uint8) (*account.StateDB, []*account.Block) {
	rng := rand.New(rand.NewSource(seed))
	nUsers := 2 + int(users)%30
	nHot := int(hotN) % 4
	nTxs := int(txn) % 80
	hp := int(hotPct) % 101
	nBlocks := 1 + int(split)%3

	st := account.NewStateDB()
	user := func(i int) types.Address { return types.AddressFromUint64("fuzz/user", uint64(i)) }
	hot := func(i int) types.Address { return types.AddressFromUint64("fuzz/hot", uint64(i)) }
	for i := 0; i < nUsers; i++ {
		st.AddBalance(user(i), 1_000_000_000)
	}
	token := types.AddressFromUint64("fuzz/contract", 0)
	st.SetCode(token, vm.EncodeContract(vm.Contract{
		Code: vm.NewAsm().Op(vm.OpCaller, vm.OpArg, vm.OpSstore, vm.OpStop).Bytes(),
	}))
	counter := types.AddressFromUint64("fuzz/contract", 1)
	st.SetCode(counter, vm.EncodeContract(vm.Contract{
		// storage[0]++ : every call reads and writes the same slot.
		Code: vm.NewAsm().Push(0).Op(vm.OpSload).Push(1).Op(vm.OpAdd).
			Push(0).Op(vm.OpSwap, vm.OpSstore, vm.OpStop).Bytes(),
	}))
	gate := types.AddressFromUint64("fuzz/contract", 2)
	st.SetCode(gate, vm.EncodeContract(vm.Contract{
		// Arg != 0: blind-write storage[0] = Arg. Arg == 0: record
		// storage[caller] = storage[0] — a pure reader whose result depends
		// on where in the block it ran (the phase-2 ordering hazard).
		Code: vm.NewAsm().
			Op(vm.OpArg).PushLabel("write").Op(vm.OpJumpI).
			Op(vm.OpCaller).Push(0).Op(vm.OpSload, vm.OpSstore, vm.OpStop).
			Label("write").
			Push(0).Op(vm.OpArg, vm.OpSstore, vm.OpStop).Bytes(),
	}))
	st.DiscardJournal()

	nonces := make([]uint64, nUsers)
	mkTx := func() *account.Transaction {
		s := rng.Intn(nUsers)
		tx := &account.Transaction{From: user(s), Nonce: nonces[s], GasPrice: 1 + account.Amount(rng.Intn(3))}
		nonces[s]++
		switch roll := rng.Intn(100); {
		case roll < 70: // transfer, hot-skewed
			tx.Value = account.Amount(1 + rng.Intn(50_000))
			tx.GasLimit = account.GasTx
			if nHot > 0 && rng.Intn(100) < hp {
				tx.To = hot(rng.Intn(nHot))
			} else {
				tx.To = user(rng.Intn(nUsers))
			}
		case roll < 82: // caller-keyed token call
			tx.To = token
			tx.Arg = rng.Uint64() % 1000
			tx.GasLimit = 100_000
		case roll < 91: // shared-counter call: guaranteed storage conflicts
			tx.To = counter
			tx.GasLimit = 100_000
		default: // gate call: blind writers and pure readers of one slot
			tx.To = gate
			tx.Arg = uint64(rng.Intn(3)) // 0 = reader, else blind writer
			tx.GasLimit = 100_000
		}
		return tx
	}

	blocks := make([]*account.Block, nBlocks)
	per := nTxs / nBlocks
	for b := range blocks {
		n := per
		if b == nBlocks-1 {
			n = nTxs - per*(nBlocks-1)
		}
		txs := make([]*account.Transaction, 0, n)
		for i := 0; i < n; i++ {
			txs = append(txs, mkTx())
		}
		blocks[b] = &account.Block{
			Height:   uint64(b),
			Time:     1_600_000_000 + int64(b)*15,
			Coinbase: types.AddressFromUint64("fuzz/miner", uint64(b%2)),
			Txs:      txs,
		}
	}
	return st, blocks
}

// FuzzEngineSerialEquivalence asserts, for every engine in both key-level
// and operation-level mode, receipt and state-root equality with the
// sequential engine on randomized (delta-heavy, hot-key-skewed) chains.
// The sharded engine runs at two shard counts per input — a fixed 2 and a
// seed-derived count in [1, 8] — so the fuzzer also explores one-shard
// degeneration, non-power-of-two committees, and wide sharding; the
// pipelined sharded chain additionally runs with a seed-derived depth, so
// cross-block snapshot staleness feeds the merge and repair paths, and a
// second chain run uses an adaptive shard map with a fuzz-chosen rebalance
// cadence, so epoch-boundary migration, heat-ordered merge waves, and the
// filtered final fold are hammered on every input.
func FuzzEngineSerialEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(2), uint8(40), uint8(80), uint8(1))
	f.Add(int64(2), uint8(3), uint8(1), uint8(60), uint8(100), uint8(2))
	f.Add(int64(3), uint8(20), uint8(3), uint8(79), uint8(50), uint8(0))
	f.Add(int64(4), uint8(2), uint8(0), uint8(30), uint8(0), uint8(2))
	f.Add(int64(5), uint8(12), uint8(1), uint8(70), uint8(95), uint8(1))
	// Sharded-engine seeds: nonce chains that straddle the intra/cross
	// boundary, hot-key skew across committees, conflict-heavy contract
	// traffic on few users, and a no-hot-key control.
	f.Add(int64(6), uint8(25), uint8(2), uint8(77), uint8(60), uint8(2))
	f.Add(int64(7), uint8(4), uint8(1), uint8(55), uint8(90), uint8(1))
	f.Add(int64(8), uint8(15), uint8(3), uint8(66), uint8(35), uint8(0))
	f.Add(int64(9), uint8(9), uint8(0), uint8(48), uint8(0), uint8(2))
	// Merge-parallelism and fallback-repair seeds: many independent
	// cross-shard transfers (re-execution waves), few-user nonce chains
	// with gate-contract readers (ordering overlaps → suffix repair), a
	// multi-block contract tangle (chain staleness feeding the merge), and
	// a wide-sharding hot-key burst (batched delta groups).
	f.Add(int64(10), uint8(26), uint8(0), uint8(74), uint8(0), uint8(2))
	f.Add(int64(11), uint8(3), uint8(2), uint8(72), uint8(88), uint8(2))
	f.Add(int64(12), uint8(14), uint8(0), uint8(69), uint8(0), uint8(1))
	f.Add(int64(13), uint8(6), uint8(3), uint8(58), uint8(100), uint8(0))
	// Adaptive-map seeds: few-user nonce chains over three blocks (the
	// sweep-bot shape — persistent sender/receiver pairs whose heat builds
	// across epochs and migrates), a hot-key chain with per-block
	// rebalancing (maximal migration churn between every pair of blocks),
	// and a contract tangle whose conflict groups exceed the pair shape.
	f.Add(int64(14), uint8(2), uint8(1), uint8(75), uint8(90), uint8(2))
	f.Add(int64(15), uint8(5), uint8(3), uint8(70), uint8(100), uint8(1))
	f.Add(int64(16), uint8(4), uint8(0), uint8(66), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, users, hotN, txn, hotPct, split uint8) {
		pre, blocks := fuzzChain(seed, users, hotN, txn, hotPct, split)

		// Ground truth: sequential replay, block by block.
		work := pre.Copy()
		pres := make([]*account.StateDB, len(blocks))
		seqs := make([]*Result, len(blocks))
		for i, blk := range blocks {
			pres[i] = work.Copy()
			seq, err := Sequential(work, blk)
			if err != nil {
				t.Fatalf("fuzzChain generated an invalid block: %v", err)
			}
			seqs[i] = seq
		}
		chainRoot := work.Root()

		checkReceipts := func(name string, got, want []*account.Receipt) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s: %d receipts, want %d", name, len(got), len(want))
			}
			for i := range got {
				a, b := got[i], want[i]
				if a.Status != b.Status || a.GasUsed != b.GasUsed || a.TxHash != b.TxHash ||
					len(a.Internal) != len(b.Internal) {
					t.Fatalf("%s: receipt %d differs: %+v vs %+v", name, i, a, b)
				}
			}
		}

		for _, op := range []bool{false, true} {
			mode := map[bool]string{false: "key", true: "op"}[op]
			// Per-block engines against each block's exact pre-state.
			for i, blk := range blocks {
				spec, err := Speculative{Workers: 4, OpLevel: op}.Execute(pres[i].Copy(), blk)
				if err != nil {
					t.Fatalf("speculative/%s block %d: %v", mode, i, err)
				}
				if spec.Root != seqs[i].Root {
					t.Fatalf("speculative/%s block %d: root mismatch", mode, i)
				}
				checkReceipts("speculative/"+mode, spec.Receipts, seqs[i].Receipts)

				stm, err := STMExec{Workers: 4, OpLevel: op}.Execute(pres[i].Copy(), blk)
				if err != nil {
					t.Fatalf("stm/%s block %d: %v", mode, i, err)
				}
				if stm.Root != seqs[i].Root {
					t.Fatalf("stm/%s block %d: root mismatch", mode, i)
				}
				checkReceipts("stm/"+mode, stm.Receipts, seqs[i].Receipts)

				grp, err := Grouped{Workers: 4, Refined: op, Receipts: seqs[i].Receipts}.Execute(pres[i].Copy(), blk)
				if err != nil {
					t.Fatalf("grouped/%s block %d: %v", mode, i, err)
				}
				if grp.Root != seqs[i].Root {
					t.Fatalf("grouped/%s block %d: root mismatch", mode, i)
				}
				checkReceipts("grouped/"+mode, grp.Receipts, seqs[i].Receipts)

				for _, shards := range []int{2, 1 + int(uint64(seed)%8)} {
					shd, err := Sharded{Workers: 4, Shards: shards, OpLevel: op}.Execute(pres[i].Copy(), blk)
					if err != nil {
						t.Fatalf("sharded-%d/%s block %d: %v", shards, mode, i, err)
					}
					if shd.Root != seqs[i].Root {
						t.Fatalf("sharded-%d/%s block %d: root mismatch", shards, mode, i)
					}
					checkReceipts("sharded/"+mode, shd.Receipts, seqs[i].Receipts)
				}
			}
			// The one-shard pipeline over the whole chain.
			cr, _, err := Sharded{Workers: 4, Shards: 1, Depth: 2, OpLevel: op}.ExecuteChain(pre.Copy(), blocks)
			if err != nil {
				t.Fatalf("pipeline/%s: %v", mode, err)
			}
			if cr.Root != chainRoot {
				t.Fatalf("pipeline/%s: chain root mismatch", mode)
			}
			for i := range blocks {
				checkReceipts("pipeline/"+mode, cr.Receipts[i], seqs[i].Receipts)
			}

			// The pipelined sharded chain, fuzz-chosen shard count and
			// depth (chain length is fuzz-chosen via split).
			shards := 1 + int(uint64(seed)%8)
			depth := 1 + int(users)%3
			scr, scss, err := Sharded{Workers: 4, Shards: shards, OpLevel: op, Depth: depth}.
				ExecuteChain(pre.Copy(), blocks)
			if err != nil {
				t.Fatalf("shardedchain-%d/%s: %v", shards, mode, err)
			}
			if scr.Root != chainRoot {
				t.Fatalf("shardedchain-%d/%s: chain root mismatch", shards, mode)
			}
			for i := range blocks {
				checkReceipts("shardedchain/"+mode, scr.Receipts[i], seqs[i].Receipts)
			}
			for bi := range scss.Blocks {
				ss := &scss.Blocks[bi]
				x := len(blocks[bi].Txs)
				if ss.Intra+ss.Cross != x || ss.CrossAborts > ss.Cross ||
					ss.Fallback != (x > 0 && ss.Repairs == x) {
					t.Fatalf("shardedchain-%d/%s block %d: inconsistent stats %+v", shards, mode, bi, ss)
				}
			}

			// The same chain under an adaptive shard map: fuzz-chosen
			// rebalance cadence, fresh map per run (the profile must come
			// from this chain alone).
			every := 1 + int(hotPct)%3
			acr, acss, err := Sharded{Workers: 4, OpLevel: op, Depth: depth,
				Map: heat.NewAdaptiveMap(shards, nil), RebalanceEvery: every}.
				ExecuteChain(pre.Copy(), blocks)
			if err != nil {
				t.Fatalf("adaptivechain-%d/%s every=%d: %v", shards, mode, every, err)
			}
			if acr.Root != chainRoot {
				t.Fatalf("adaptivechain-%d/%s every=%d: chain root mismatch", shards, mode, every)
			}
			for i := range blocks {
				checkReceipts("adaptivechain/"+mode, acr.Receipts[i], seqs[i].Receipts)
			}
			if want := (len(blocks) - 1) / every; acss.RebalanceEpochs != want {
				t.Fatalf("adaptivechain-%d/%s: %d rebalance epochs, want %d",
					shards, mode, acss.RebalanceEpochs, want)
			}
			if shards == 1 && acss.Migrations != 0 {
				t.Fatalf("adaptivechain/%s: single shard migrated %d keys", mode, acss.Migrations)
			}
		}

		fuzzTraceReplay(t, seed, txn)
	})
}

// fuzzTraceReplay derives a small ERC20-shaped rwset trace from the fuzz
// arguments, compiles it to replay blocks (internal/dataset), and runs the
// engines over it with the trace's measured costs as the CostModel — the
// fuzz-driven variant of the E12 replay, checking root and receipt
// equality with the sequential engine in both conflict modes.
func fuzzTraceReplay(t *testing.T, seed int64, txn uint8) {
	tr, err := dataset.GenerateERC20Trace(dataset.ERC20TraceConfig{
		Blocks: 2, TxPerBlock: 4 + int(txn)%12, Seed: seed,
	})
	if err != nil {
		t.Fatalf("trace generator: %v", err)
	}
	rc, err := dataset.BuildReplayChain(tr)
	if err != nil {
		t.Fatalf("trace replay build: %v", err)
	}

	work := rc.Pre.Copy()
	pres := make([]*account.StateDB, len(rc.Blocks))
	seqs := make([]*Result, len(rc.Blocks))
	var costSeq uint64
	for i, blk := range rc.Blocks {
		pres[i] = work.Copy()
		seq, err := Sequential(work, blk)
		if err != nil {
			t.Fatalf("trace sequential block %d: %v", i, err)
		}
		seqs[i] = seq
		for j, rcpt := range seq.Receipts {
			if rcpt.Status != 1 {
				t.Fatalf("trace block %d tx %d: status %d (%s)", i, j, rcpt.Status, rcpt.ExecErr)
			}
			costSeq += rc.TxCost(blk.Txs[j], rcpt)
		}
	}
	chainRoot := work.Root()

	for _, op := range []bool{false, true} {
		mode := map[bool]string{false: "key", true: "op"}[op]
		var specGas, stmGas uint64
		for i, blk := range rc.Blocks {
			spec, err := Speculative{Workers: 4, OpLevel: op, Cost: rc.TxCost}.Execute(pres[i].Copy(), blk)
			if err != nil {
				t.Fatalf("trace speculative/%s block %d: %v", mode, i, err)
			}
			if spec.Root != seqs[i].Root {
				t.Fatalf("trace speculative/%s block %d: root mismatch", mode, i)
			}
			specGas += spec.Stats.GasSeq

			stm, err := STMExec{Workers: 4, OpLevel: op, Cost: rc.TxCost}.Execute(pres[i].Copy(), blk)
			if err != nil {
				t.Fatalf("trace stm/%s block %d: %v", mode, i, err)
			}
			if stm.Root != seqs[i].Root {
				t.Fatalf("trace stm/%s block %d: root mismatch", mode, i)
			}
			stmGas += stm.Stats.GasSeq
		}
		// The CostModel plumbing is loss-free: engines charge exactly the
		// trace's total measured cost sequentially.
		if specGas != costSeq || stmGas != costSeq {
			t.Fatalf("trace %s: GasSeq spec=%d stm=%d, want %d", mode, specGas, stmGas, costSeq)
		}

		cr, _, err := Sharded{Workers: 4, Shards: 1 + int(uint64(seed)%4), OpLevel: op, Depth: 2,
			Cost: rc.TxCost}.ExecuteChain(rc.Pre.Copy(), rc.Blocks)
		if err != nil {
			t.Fatalf("trace shardedchain/%s: %v", mode, err)
		}
		if cr.Root != chainRoot {
			t.Fatalf("trace shardedchain/%s: chain root mismatch", mode)
		}
		for i := range rc.Blocks {
			for j, r := range cr.Receipts[i] {
				w := seqs[i].Receipts[j]
				if r.Status != w.Status || r.GasUsed != w.GasUsed || r.TxHash != w.TxHash {
					t.Fatalf("trace shardedchain/%s block %d: receipt %d differs", mode, i, j)
				}
			}
		}
	}
}

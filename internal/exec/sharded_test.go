package exec

import (
	"fmt"
	"sync"
	"testing"

	"txconcur/internal/account"
	"txconcur/internal/chainsim"
	"txconcur/internal/core"
	"txconcur/internal/exec/testutil"
	"txconcur/internal/types"
	"txconcur/internal/vm"
)

// shardedEquivalenceProfiles is the profile set the acceptance criterion
// names: every account-model chainsim profile, including the three
// cross-shard stress profiles.
func shardedEquivalenceProfiles() []chainsim.Profile {
	var ps []chainsim.Profile
	for _, p := range chainsim.AllProfiles() {
		if p.Model == chainsim.Account {
			ps = append(ps, p)
		}
	}
	ps = append(ps, chainsim.HotKeyProfiles()...)
	ps = append(ps, chainsim.ShardProfiles()...)
	ps = append(ps, chainsim.AdaptiveShardProfiles()...)
	return ps
}

// executeBlock runs blk as a one-block chain, as Execute does, and returns
// the block's result together with its sharding counters.
func executeBlock(e Sharded, st *account.StateDB, blk *account.Block) (*Result, *ShardStats, error) {
	cr, css, err := e.ExecuteChain(st, []*account.Block{blk})
	if err != nil {
		return nil, nil, err
	}
	return &Result{Receipts: cr.Receipts[0], Root: cr.Root, Stats: cr.Stats}, &css.Blocks[0], nil
}

// TestShardedSerialEquivalenceAllProfiles is the engine-equivalence
// matrix: on every profile of shardedEquivalenceProfiles, every engine row
// must reproduce the sequential oracle — state root and receipts — and
// every sharded run must keep the ShardStats invariants (checkShardStats)
// on every block. Each profile subtest generates its chain and oracles
// once and runs every row over them as a parallel subtest:
//
//   - block: one-block chains, shard counts {1, 2, 4, 8} x both
//     conflict modes, from the generator's own per-block pre-states;
//   - chain: the pipelined batch chain, shard counts {1, 2, 4, 8} x both
//     modes (the E10 acceptance criterion);
//   - stream: the same chain fed block by block through
//     ExecuteChainStream, shard counts {2, 8} x both modes (batch and
//     stream share the sharded core; TestStreamChainMatchesBatch pins
//     the rest);
//   - bounded: batch and streamed chains under a 4-key cache
//     budget over a basestore backend, shard counts {1, 2, 4} x both
//     modes; the batch runs must evict, so equivalence is exercised
//     through evict-then-read-through, not vacuously;
//   - pipeline: the one-shard chain at depths 1 and 3.
//
// The rows share the fixture's blocks, and Transaction.Hash caches its
// value without synchronisation. The oracles compute every hash in the
// profile subtest's body, and parallel rows start only once that body has
// returned, so the rows' engines only ever read cached hashes; keep the
// oracles in the body.
func TestShardedSerialEquivalenceAllProfiles(t *testing.T) {
	t.Parallel()
	for _, p := range shardedEquivalenceProfiles() {
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			// The generator injects each era's contracts into its state
			// between blocks, so its per-block pre-states differ from the
			// chain replay's post-states: the block row keeps the former
			// and its own Sequential oracle, the chain rows the latter.
			g, err := chainsim.NewAcctGen(p, 6, 11)
			if err != nil {
				t.Fatal(err)
			}
			var pres []*account.StateDB
			var blocks []*account.Block
			var blockSeq []*Result
			for {
				st := g.Chain().State().Copy()
				blk, _, ok, err := g.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				res, err := Sequential(st.Copy(), blk)
				if err != nil {
					t.Fatal(err)
				}
				pres, blocks, blockSeq = append(pres, st), append(blocks, blk), append(blockSeq, res)
			}
			pre := pres[0]
			seq := testutil.ReplaySequential(t, pre, blocks)

			checkChain := func(t *testing.T, label string, cr *ChainResult, css *ChainShardStats) {
				t.Helper()
				seq.RequireChain(t, label, cr.Root, cr.Receipts)
				if len(css.Blocks) != len(blocks) {
					t.Fatalf("%s: %d block stats, want %d", label, len(css.Blocks), len(blocks))
				}
				for bi := range css.Blocks {
					checkShardStats(t, fmt.Sprintf("%s block %d", label, bi), len(blocks[bi].Txs), &css.Blocks[bi], nil)
				}
				if cr.Stats.Retries < cr.Stats.Conflicted {
					t.Fatalf("%s: Retries %d < Conflicted %d", label, cr.Stats.Retries, cr.Stats.Conflicted)
				}
			}
			modes := []bool{false, true}
			rows := []struct {
				name string
				run  func(t *testing.T)
			}{
				{"block", func(t *testing.T) {
					for bi, blk := range blocks {
						for _, shards := range []int{1, 2, 4, 8} {
							for _, op := range modes {
								label := fmt.Sprintf("shards=%d op=%v", shards, op)
								res, ss, err := executeBlock(Sharded{Workers: 8, Shards: shards, OpLevel: op}, pres[bi].Copy(), blk)
								if err != nil {
									t.Fatalf("%s block %d: %v", label, bi, err)
								}
								if res.Root != blockSeq[bi].Root {
									t.Fatalf("%s block %d: root mismatch (stats %+v)", label, bi, ss)
								}
								testutil.RequireReceipts(t, label, bi, res.Receipts, blockSeq[bi].Receipts)
								checkShardStats(t, fmt.Sprintf("%s block %d", label, bi), len(blk.Txs), ss, &res.Stats)
							}
						}
					}
				}},
				{"chain", func(t *testing.T) {
					for _, shards := range []int{1, 2, 4, 8} {
						for _, op := range modes {
							cr, css, err := Sharded{Workers: 8, Shards: shards, OpLevel: op, Depth: 2}.
								ExecuteChain(pre.Copy(), blocks)
							if err != nil {
								t.Fatalf("shards=%d op=%v: %v", shards, op, err)
							}
							checkChain(t, fmt.Sprintf("shards=%d op=%v", shards, op), cr, css)
						}
					}
				}},
				{"stream", func(t *testing.T) {
					for _, shards := range []int{2, 8} {
						for _, op := range modes {
							cr, css, err := Sharded{Workers: 8, Shards: shards, OpLevel: op, Depth: 2}.
								ExecuteChainStream(pre.Copy(), feed(blocks), nil)
							if err != nil {
								t.Fatalf("shards=%d op=%v: %v", shards, op, err)
							}
							checkChain(t, fmt.Sprintf("shards=%d op=%v", shards, op), cr, css)
						}
					}
				}},
				{"bounded", func(t *testing.T) {
					evicted := 0
					for _, shards := range []int{1, 2, 4} {
						for _, op := range modes {
							label := fmt.Sprintf("shards=%d op=%v", shards, op)
							e := Sharded{Workers: 8, Shards: shards, OpLevel: op, Depth: 2, CacheBudget: 4}
							chains := []struct {
								name string
								run  func(StateBackend) (*ChainResult, *ChainShardStats, error)
							}{
								{"batch", func(bs StateBackend) (*ChainResult, *ChainShardStats, error) {
									return e.withBackend(bs).ExecuteChain(pre.Copy(), blocks)
								}},
								{"stream", func(bs StateBackend) (*ChainResult, *ChainShardStats, error) {
									return e.withBackend(bs).ExecuteChainStream(pre.Copy(), feed(blocks), nil)
								}},
							}
							for _, d := range chains {
								bs := boundedStore(t)
								cr, css, err := d.run(bs)
								if err != nil {
									t.Fatalf("%s %s: %v", d.name, label, err)
								}
								checkChain(t, d.name+" "+label, cr, css)
								if d.name == "batch" {
									evicted += css.Evicted
								}
								bs.Close()
							}
						}
					}
					if evicted == 0 {
						t.Fatal("no batch run evicted a single key — the bound is not binding")
					}
				}},
				{"pipeline", func(t *testing.T) {
					for _, depth := range []int{1, 3} {
						res, _, err := Sharded{Workers: 8, Shards: 1, Depth: depth}.ExecuteChain(pre.Copy(), blocks)
						if err != nil {
							t.Fatalf("depth %d: %v", depth, err)
						}
						seq.RequireChain(t, fmt.Sprintf("depth %d", depth), res.Root, res.Receipts)
						if res.Stats.Txs > 0 && res.Stats.ParUnits <= 0 {
							t.Fatalf("depth %d: non-positive ParUnits %d", depth, res.Stats.ParUnits)
						}
					}
				}},
			}
			for _, r := range rows {
				t.Run(r.name, func(t *testing.T) {
					t.Parallel()
					r.run(t)
				})
			}
		})
	}
}

// TestShardedSingleShardMatchesUnsharded: with one shard nothing is ever
// cross-shard, and the engine must agree with Sequential on a nonce-chained,
// conflict-heavy fixture.
func TestShardedSingleShard(t *testing.T) {
	pre, blocks := fuzzChain(42, 9, 2, 60, 70, 1)
	work := pre.Copy()
	for _, blk := range blocks {
		seq, err := Sequential(work.Copy(), blk)
		if err != nil {
			t.Fatal(err)
		}
		res, ss, err := executeBlock(Sharded{Workers: 4, Shards: 1}, work.Copy(), blk)
		if err != nil {
			t.Fatal(err)
		}
		if res.Root != seq.Root {
			t.Fatal("single-shard root mismatch")
		}
		if ss.Cross != 0 {
			t.Fatalf("single shard reported %d cross-shard txs", ss.Cross)
		}
		if _, err := Sequential(work, blk); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedCrossShardTransfer drives one deliberate cross-shard transfer
// and checks classification plus result.
func TestShardedCrossShardTransfer(t *testing.T) {
	const shards = 4
	// Find a sender and a receiver on different shards.
	var from, to types.Address
	for i := uint64(0); ; i++ {
		from = types.AddressFromUint64("xshard/sender", i)
		if core.ShardOf(from, shards) == 0 {
			break
		}
	}
	for i := uint64(0); ; i++ {
		to = types.AddressFromUint64("xshard/receiver", i)
		if core.ShardOf(to, shards) == 1 {
			break
		}
	}
	st := account.NewStateDB()
	st.AddBalance(from, 1_000_000)
	st.DiscardJournal()
	blk := &account.Block{
		Height:   1,
		Time:     1_600_000_000,
		Coinbase: types.AddressFromUint64("xshard/miner", 0),
		Txs: []*account.Transaction{
			{From: from, To: to, Value: 500, Nonce: 0, GasLimit: account.GasTx, GasPrice: 1},
		},
	}
	seq, err := Sequential(st.Copy(), blk)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []bool{false, true} {
		res, ss, err := executeBlock(Sharded{Workers: 4, Shards: shards, OpLevel: op}, st.Copy(), blk)
		if err != nil {
			t.Fatalf("op=%v: %v", op, err)
		}
		if res.Root != seq.Root {
			t.Fatalf("op=%v: root mismatch", op)
		}
		if ss.Cross != 1 || ss.Intra != 0 {
			t.Fatalf("op=%v: classification = %+v, want 1 cross", op, ss)
		}
		if ss.Fallback {
			t.Fatalf("op=%v: unexpected fallback", op)
		}
		// A single staged transfer validates cleanly: no abort.
		if ss.CrossAborts != 0 {
			t.Fatalf("op=%v: aborts = %d, want 0", op, ss.CrossAborts)
		}
	}
}

// TestShardedHotKeyDeltasCommute: a block of transfers from senders on many
// shards into one hot address. Key-level, the staged results all read the
// hot balance, so all but the first cross transaction abort and re-execute;
// operation-level the credits are blind deltas that merge commutatively —
// zero aborts, no fallback, and the speed-up survives the skew.
func TestShardedHotKeyDeltasCommute(t *testing.T) {
	const shards = 4
	hot := types.AddressFromUint64("hotshard/sink", 3)
	st := account.NewStateDB()
	var txs []*account.Transaction
	for i := uint64(0); i < 48; i++ {
		from := types.AddressFromUint64("hotshard/payer", i)
		st.AddBalance(from, 1_000_000)
		txs = append(txs, &account.Transaction{
			From: from, To: hot, Value: 100 + account.Amount(i),
			Nonce: 0, GasLimit: account.GasTx, GasPrice: 1,
		})
	}
	st.DiscardJournal()
	blk := &account.Block{
		Height: 1, Time: 1_600_000_000,
		Coinbase: types.AddressFromUint64("hotshard/miner", 0),
		Txs:      txs,
	}
	seq, err := Sequential(st.Copy(), blk)
	if err != nil {
		t.Fatal(err)
	}

	key, ssKey, err := executeBlock(Sharded{Workers: 8, Shards: shards}, st.Copy(), blk)
	if err != nil {
		t.Fatal(err)
	}
	op, ssOp, err := executeBlock(Sharded{Workers: 8, Shards: shards, OpLevel: true}, st.Copy(), blk)
	if err != nil {
		t.Fatal(err)
	}
	if key.Root != seq.Root || op.Root != seq.Root {
		t.Fatal("hot-key root mismatch")
	}
	if ssOp.Fallback || ssKey.Fallback {
		t.Fatalf("unexpected fallback: key=%+v op=%+v", ssKey, ssOp)
	}
	if ssOp.CrossAborts != 0 {
		t.Fatalf("op-level aborts = %d, want 0 (deltas commute)", ssOp.CrossAborts)
	}
	if ssKey.CrossAborts <= ssOp.CrossAborts {
		t.Fatalf("key-level aborts (%d) not above op-level (%d) on a hot key",
			ssKey.CrossAborts, ssOp.CrossAborts)
	}
	if op.Stats.Speedup <= key.Stats.Speedup {
		t.Fatalf("op-level speed-up %.2f not above key-level %.2f", op.Stats.Speedup, key.Stats.Speedup)
	}
}

// TestShardedWorkerValidation: worker counts below one are rejected before
// any scheduling arithmetic runs.
func TestShardedWorkerValidation(t *testing.T) {
	st := account.NewStateDB()
	blk := &account.Block{Coinbase: types.AddressFromUint64("sv/miner", 0)}
	if _, err := (Sharded{Workers: 0, Shards: 4}).Execute(st, blk); err == nil {
		t.Fatal("zero workers accepted")
	}
	// Shards <= 0 normalises to one shard rather than failing.
	res, ss, err := executeBlock(Sharded{Workers: 2, Shards: -3}, st, blk)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Shards != 1 {
		t.Fatalf("normalised shards = %d, want 1", ss.Shards)
	}
	if res.Stats.ParUnits != 0 {
		t.Fatalf("empty block ParUnits = %d", res.Stats.ParUnits)
	}
}

// TestShardedChainReplay replays a multi-block fuzz chain block by block,
// feeding each block's exact pre-state — the pattern E9 uses.
func TestShardedChainReplay(t *testing.T) {
	pre, blocks := fuzzChain(7, 24, 3, 75, 85, 2)
	work := pre.Copy()
	for bi, blk := range blocks {
		seq, err := Sequential(work.Copy(), blk)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 3, 8} {
			for _, op := range []bool{false, true} {
				res, err := Sharded{Workers: 6, Shards: shards, OpLevel: op}.Execute(work.Copy(), blk)
				if err != nil {
					t.Fatalf("block %d shards=%d op=%v: %v", bi, shards, op, err)
				}
				if res.Root != seq.Root {
					t.Fatalf("block %d shards=%d op=%v: root mismatch", bi, shards, op)
				}
			}
		}
		if _, err := Sequential(work, blk); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedGasAccountsForBins: GasPar must include the shard-local
// re-executions' sequential gas — an earlier version charged only the
// phase-1 spread and overstated gas speed-ups on conflicted workloads.
func TestShardedGasAccountsForBins(t *testing.T) {
	hot := types.AddressFromUint64("gasbin/sink", 0)
	st := account.NewStateDB()
	var txs []*account.Transaction
	for i := uint64(0); i < 16; i++ {
		from := types.AddressFromUint64("gasbin/payer", i)
		st.AddBalance(from, 1_000_000)
		txs = append(txs, &account.Transaction{
			From: from, To: hot, Value: 100,
			Nonce: 0, GasLimit: account.GasTx, GasPrice: 1,
		})
	}
	st.DiscardJournal()
	blk := &account.Block{
		Height: 1, Time: 1_600_000_000,
		Coinbase: types.AddressFromUint64("gasbin/miner", 0),
		Txs:      txs,
	}
	// Key-level, one shard: every transaction reads the hot balance, so the
	// first keeps its phase-1 result and each later one reads the previous
	// commit's write and re-executes in order.
	res, ss, err := executeBlock(Sharded{Workers: 8, Shards: 1}, st.Copy(), blk)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Fallback {
		t.Fatalf("unexpected fallback: %+v", ss)
	}
	spread := (res.Stats.GasSeq + 7) / 8
	if res.Stats.GasPar <= spread {
		t.Fatalf("GasPar %d not above phase-1 spread %d despite %d binned txs",
			res.Stats.GasPar, spread, res.Stats.Conflicted)
	}
	// ⌈16·21000/8⌉ for phase 1, then 15 sequential re-executions.
	if res.Stats.Conflicted != 15 || res.Stats.GasPar != (16*21000+7)/8+15*21000 {
		t.Fatalf("Conflicted %d, GasPar %d; want 15, %d",
			res.Stats.Conflicted, res.Stats.GasPar, (16*21000+7)/8+15*21000)
	}
}

// pointerCode is a contract whose storage write follows a pointer: Arg 0
// writes storage[storage[0]] = caller; 0 < Arg < 1000 rewrites the pointer,
// storage[0] = Arg; Arg ≥ 1000 copies storage[Arg−1000] into
// storage[caller].
func pointerCode() []byte {
	asm := vm.NewAsm().
		Op(vm.OpArg, vm.OpIsZero).PushLabel("follow").Op(vm.OpJumpI).
		Op(vm.OpArg).Push(1000).Op(vm.OpLT).PushLabel("point").Op(vm.OpJumpI).
		Op(vm.OpCaller, vm.OpArg).Push(1000).Op(vm.OpSub, vm.OpSload, vm.OpSstore, vm.OpStop).
		Label("point").
		Push(0).Op(vm.OpArg, vm.OpSstore, vm.OpStop).
		Label("follow").
		Push(0).Op(vm.OpSload, vm.OpCaller, vm.OpSstore, vm.OpStop)
	return vm.EncodeContract(vm.Contract{Code: asm.Bytes()})
}

// TestShardedReexecWritesUnpredictedSlot: a re-execution may write a key
// its phase-1 run never touched, and a later transaction that read that key
// must not keep its phase-1 result. tx 0 moves the pointer from slot 10 to
// slot 20; tx 1 follows it, so phase 1 predicts a write to slot 10 but its
// re-execution writes slot 20; tx 2 reads slot 20. Every sender shares the
// contract's shard, so all three are intra-shard at one and two shards.
func TestShardedReexecWritesUnpredictedSlot(t *testing.T) {
	ptr := addr(700)
	var senders []uint64
	for i := uint64(0); len(senders) < 3; i++ {
		if core.ShardOf(addr(i), 2) == core.ShardOf(ptr, 2) {
			senders = append(senders, i)
		}
	}
	st := fundedState(int(senders[2]) + 1)
	st.SetCode(ptr, pointerCode())
	st.SetStorage(ptr, 0, 10)
	st.DiscardJournal()
	call := func(from, arg uint64) *account.Transaction {
		return &account.Transaction{From: addr(from), To: ptr, Arg: arg, GasLimit: 1_000_000, GasPrice: 1}
	}
	blk := testBlock(call(senders[0], 20), call(senders[1], 0), call(senders[2], 1020))
	seq, err := Sequential(st.Copy(), blk)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		for _, op := range []bool{false, true} {
			e := Sharded{Workers: 4, Shards: shards, OpLevel: op}
			res, ss, err := executeBlock(e, st.Copy(), blk)
			if err != nil {
				t.Fatal(err)
			}
			cr, _, err := e.ExecuteChain(st.Copy(), []*account.Block{blk})
			if err != nil {
				t.Fatal(err)
			}
			for _, got := range []struct {
				name     string
				root     types.Hash
				receipts []*account.Receipt
				stats    Stats
			}{
				{"block", res.Root, res.Receipts, res.Stats},
				{"chain", cr.Root, cr.Receipts[0], cr.Stats},
			} {
				if got.root != seq.Root {
					t.Fatalf("shards=%d op=%v %s: root differs from sequential", shards, op, got.name)
				}
				for i, want := range seq.Receipts {
					if r := got.receipts[i]; r.GasUsed != want.GasUsed || r.Status != want.Status {
						t.Fatalf("shards=%d op=%v %s: tx %d receipt mismatch", shards, op, got.name, i)
					}
				}
				// tx 0 keeps its result; tx 1 read the pointer tx 0 wrote,
				// tx 2 the slot tx 1's re-execution wrote.
				if got.stats.Conflicted != 2 {
					t.Fatalf("shards=%d op=%v %s: Conflicted %d, want 2", shards, op, got.name, got.stats.Conflicted)
				}
			}
			if ss.Cross != 0 || ss.Repairs != 0 {
				t.Fatalf("shards=%d op=%v: %+v, want every tx intra and no repair", shards, op, ss)
			}
		}
	}
}

// TestShardedClassificationFixpoint: an intra-shard transaction ordered
// after a cross-shard write it reads joins the cross set, so the merge
// orders it instead of the repair pass. s→r crosses from shard 0 into
// shard 1; r→d then stays inside shard 1 but reads the balance s credits.
func TestShardedClassificationFixpoint(t *testing.T) {
	pick := func(prefix string, shard int) types.Address {
		for i := uint64(0); ; i++ {
			if a := types.AddressFromUint64(prefix, i); core.ShardOf(a, 2) == shard {
				return a
			}
		}
	}
	s, r, d := pick("fixpoint/s", 0), pick("fixpoint/r", 1), pick("fixpoint/d", 1)
	st := account.NewStateDB()
	st.AddBalance(s, 1_000_000)
	st.AddBalance(r, 1_000_000)
	st.DiscardJournal()
	blk := &account.Block{
		Height: 1, Time: 1_600_000_000,
		Coinbase: types.AddressFromUint64("fixpoint/miner", 0),
		Txs: []*account.Transaction{
			{From: s, To: r, Value: 500, GasLimit: account.GasTx, GasPrice: 1},
			{From: r, To: d, Value: 700, GasLimit: account.GasTx, GasPrice: 1},
		},
	}
	seq, err := Sequential(st.Copy(), blk)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []bool{false, true} {
		res, ss, err := executeBlock(Sharded{Workers: 4, Shards: 2, OpLevel: op}, st.Copy(), blk)
		if err != nil {
			t.Fatal(err)
		}
		if res.Root != seq.Root {
			t.Fatalf("op=%v: root differs from sequential", op)
		}
		if ss.Cross != 2 || ss.Repairs != 0 {
			t.Fatalf("op=%v: Cross %d, Repairs %d; want 2, 0", op, ss.Cross, ss.Repairs)
		}
	}
}

// TestShardedSpeedupBoundedByWorkers: with ⌈n/s⌉ workers credited per
// shard, s·⌈n/s⌉ exceeds n for non-dividing configurations; the core-budget
// floor must keep the reported speed-up within the configured core count.
func TestShardedSpeedupBoundedByWorkers(t *testing.T) {
	st := account.NewStateDB()
	var txs []*account.Transaction
	for i := uint64(0); i < 80; i++ {
		// Self-payments: each transaction touches only its own account, so
		// every one is intra-shard and conflict-free at any shard count.
		a := types.AddressFromUint64("budget/self", i)
		st.AddBalance(a, 1_000_000)
		txs = append(txs, &account.Transaction{
			From: a, To: a, Value: 1, Nonce: 0, GasLimit: account.GasTx, GasPrice: 1,
		})
	}
	st.DiscardJournal()
	blk := &account.Block{
		Height: 1, Time: 1_600_000_000,
		Coinbase: types.AddressFromUint64("budget/miner", 0),
		Txs:      txs,
	}
	res, ss, err := executeBlock(Sharded{Workers: 2, Shards: 8}, st.Copy(), blk)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Fallback || ss.Cross != 0 {
		t.Fatalf("unexpected sharding outcome: %+v", ss)
	}
	if res.Stats.Speedup > 2+1e-9 {
		t.Fatalf("speed-up %.2f exceeds the 2-worker budget (ParUnits %d for %d txs)",
			res.Stats.Speedup, res.Stats.ParUnits, res.Stats.Txs)
	}
	if res.Stats.GasSpeedup > 2+1e-9 {
		t.Fatalf("gas speed-up %.2f exceeds the 2-worker budget", res.Stats.GasSpeedup)
	}
}

// TestShardedAccumulatorPoolConcurrent: block accumulators are pooled and
// released at fixed points, so concurrent engines recycle each other's
// accumulators. Four goroutines run ExecuteChain, ExecuteChainStream and
// per-block Execute at once over Shard Uniform, Shard Skew and Shard
// Cross-Heavy (whose merge repairs exercise the prefix accumulator); every
// root and receipt must match Sequential, and an accumulator drawn from
// the pool afterwards must hold no entries and no index keys.
func TestShardedAccumulatorPoolConcurrent(t *testing.T) {
	type fixture struct {
		name   string
		pre    *account.StateDB
		blocks []*account.Block
		seq    *testutil.Chain
	}
	var fixtures []fixture
	for _, p := range []chainsim.Profile{chainsim.ShardUniformProfile(), chainsim.ShardSkewProfile(), chainsim.ShardCrossHeavyProfile()} {
		pre, blocks, err := chainsim.GenerateAccountChain(p, 4, 17)
		if err != nil {
			t.Fatal(err)
		}
		fixtures = append(fixtures, fixture{p.Name, pre, blocks, testutil.ReplaySequential(t, pre, blocks)})
	}
	perBlock := func(e Sharded, pre *account.StateDB, blocks []*account.Block) (*ChainResult, error) {
		work := pre.Copy()
		cr := &ChainResult{}
		for _, blk := range blocks {
			res, err := e.Execute(work, blk)
			if err != nil {
				return nil, err
			}
			cr.Receipts = append(cr.Receipts, res.Receipts)
			cr.Root = res.Root
		}
		return cr, nil
	}
	runners := []struct {
		name string
		run  func(f fixture) (*ChainResult, error)
	}{
		{"chain/key", func(f fixture) (*ChainResult, error) {
			cr, _, err := Sharded{Workers: 4, Shards: 4, Depth: 2}.ExecuteChain(f.pre.Copy(), f.blocks)
			return cr, err
		}},
		{"stream/op", func(f fixture) (*ChainResult, error) {
			cr, _, err := Sharded{Workers: 4, Shards: 4, OpLevel: true}.ExecuteChainStream(f.pre.Copy(), feed(f.blocks), nil)
			return cr, err
		}},
		{"per-block/op", func(f fixture) (*ChainResult, error) {
			return perBlock(Sharded{Workers: 4, Shards: 2, OpLevel: true}, f.pre, f.blocks)
		}},
		{"per-block/key", func(f fixture) (*ChainResult, error) {
			return perBlock(Sharded{Workers: 2, Shards: 3}, f.pre, f.blocks)
		}},
	}
	results := make([][]*ChainResult, len(runners))
	errs := make([]error, len(runners))
	var wg sync.WaitGroup
	for r := range runners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, f := range fixtures {
				cr, err := runners[r].run(f)
				if err != nil {
					errs[r] = err
					return
				}
				results[r] = append(results[r], cr)
			}
		}()
	}
	wg.Wait()
	for r := range runners {
		if errs[r] != nil {
			t.Fatalf("%s: %v", runners[r].name, errs[r])
		}
		for i, f := range fixtures {
			f.seq.RequireChain(t, runners[r].name+" "+f.name, results[r][i].Root, results[r][i].Receipts)
		}
	}

	var drawn []*overlay
	for i := 0; i < 8; i++ {
		acc := newAccumulator(nil, false, 0)
		if len(acc.entries) != 0 || len(acc.index) != 0 || acc.base != nil {
			t.Fatalf("pooled accumulator %d holds %d entries, %d index keys", i, len(acc.entries), len(acc.index))
		}
		drawn = append(drawn, acc)
	}
	for _, acc := range drawn {
		acc.release()
	}
}

package exec

import (
	"fmt"
	"sync"
	"testing"

	"txconcur/internal/account"
	"txconcur/internal/chainsim"
	"txconcur/internal/core"
	"txconcur/internal/exec/testutil"
	"txconcur/internal/heat"
	"txconcur/internal/types"
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

// TestShardedSerialEquivalenceAllProfiles is the engine-equivalence
// matrix: on every profile of shardedEquivalenceProfiles, every engine row
// must reproduce the sequential oracle — state root and receipts — and
// every sharded run must keep the ShardStats invariants (checkShardStats)
// on every block. Each profile subtest generates its chain and oracles
// once and runs every row over them as a parallel subtest:
//
//   - block: the per-block engine, shard counts {1, 2, 4, 8} x both
//     conflict modes, from the generator's own per-block pre-states;
//   - chain: the pipelined batch chain, shard counts {1, 2, 4, 8} x both
//     modes (the E10 acceptance criterion);
//   - stream: the same chain fed block by block through
//     ExecuteChainStream, shard counts {2, 8} x both modes (batch and
//     stream share the sharded core; TestStreamChainMatchesBatch pins
//     the rest);
//   - adaptive: fresh adaptive maps rebalancing every block — migration
//     between every pair of blocks — and every third block;
//   - bounded: batch, streamed and adaptive chains under a 4-key cache
//     budget over a basestore backend, shard counts {1, 2, 4} x both
//     modes; the batch runs must evict, so equivalence is exercised
//     through evict-then-read-through, not vacuously;
//   - pipeline: the Pipeline chain at depths 1 and 3.
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
								res, ss, err := Sharded{Workers: 8, Shards: shards, OpLevel: op}.ExecuteSharded(pres[bi].Copy(), blk)
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
				{"adaptive", func(t *testing.T) {
					for _, shards := range []int{1, 2, 4, 8} {
						for _, op := range modes {
							for _, every := range []int{1, 3} {
								label := fmt.Sprintf("shards=%d op=%v every=%d", shards, op, every)
								cr, css, err := adaptiveEngine(shards, op, every).ExecuteChain(pre.Copy(), blocks)
								if err != nil {
									t.Fatalf("%s: %v", label, err)
								}
								checkChain(t, label, cr, css)
								if want := (len(blocks) - 1) / every; css.RebalanceEpochs != want {
									t.Fatalf("%s: %d rebalance epochs, want %d", label, css.RebalanceEpochs, want)
								}
								if shards == 1 && css.Migrations != 0 {
									t.Fatalf("%s: single shard migrated %d keys", label, css.Migrations)
								}
							}
						}
					}
				}},
				{"bounded", func(t *testing.T) {
					evicted := 0
					for _, shards := range []int{1, 2, 4} {
						for _, op := range modes {
							label := fmt.Sprintf("shards=%d op=%v", shards, op)
							e := Sharded{Workers: 8, Shards: shards, OpLevel: op, Depth: 2, CacheBudget: 4}
							ae := Sharded{Workers: 8, OpLevel: op, Depth: 2, CacheBudget: 4,
								Map: heat.NewAdaptiveMap(shards, nil), RebalanceEvery: 2}
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
								{"adaptive", func(bs StateBackend) (*ChainResult, *ChainShardStats, error) {
									return ae.withBackend(bs).ExecuteChain(pre.Copy(), blocks)
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
						res, err := Pipeline{Workers: 8, Depth: depth}.ExecuteChain(pre.Copy(), blocks)
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
		res, ss, err := Sharded{Workers: 4, Shards: 1}.ExecuteSharded(work.Copy(), blk)
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
		res, ss, err := Sharded{Workers: 4, Shards: shards, OpLevel: op}.ExecuteSharded(st.Copy(), blk)
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

	key, ssKey, err := Sharded{Workers: 8, Shards: shards}.ExecuteSharded(st.Copy(), blk)
	if err != nil {
		t.Fatal(err)
	}
	op, ssOp, err := Sharded{Workers: 8, Shards: shards, OpLevel: true}.ExecuteSharded(st.Copy(), blk)
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
	if _, _, err := (Sharded{Workers: 0, Shards: 4}).ExecuteSharded(st, blk); err == nil {
		t.Fatal("zero workers accepted")
	}
	// Shards <= 0 normalises to one shard rather than failing.
	res, ss, err := (Sharded{Workers: 2, Shards: -3}).ExecuteSharded(st, blk)
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
				res, _, err := Sharded{Workers: 6, Shards: shards, OpLevel: op}.ExecuteSharded(work.Copy(), blk)
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

// TestShardedGasAccountsForBins: GasPar must include the shard-local bin's
// sequential gas, matching the speculative engine's gas model — an earlier
// version charged only the phase-1 spread and overstated gas speed-ups on
// conflicted workloads.
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
	// Key-level, one shard: every transaction collides on the hot balance
	// and re-executes in the shard bin, so the sequential gas term must
	// push GasPar past the pure phase-1 spread.
	res, ss, err := Sharded{Workers: 8, Shards: 1}.ExecuteSharded(st.Copy(), blk)
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
	// Same schedule as the speculative engine: gas models must agree.
	spec, err := Speculative{Workers: 8}.Execute(st.Copy(), blk)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.GasPar != spec.Stats.GasPar {
		t.Fatalf("single-shard GasPar %d != speculative GasPar %d", res.Stats.GasPar, spec.Stats.GasPar)
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
	res, ss, err := Sharded{Workers: 2, Shards: 8}.ExecuteSharded(st.Copy(), blk)
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
// ExecuteSharded at once over Shard Uniform, Shard Skew and Shard
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
			res, _, err := e.ExecuteSharded(work, blk)
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

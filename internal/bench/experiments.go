package bench

import (
	"fmt"

	"txconcur/internal/account"
	"txconcur/internal/chainsim"
	"txconcur/internal/core"
	"txconcur/internal/exec"
	"txconcur/internal/sched"
	"txconcur/internal/types"
	"txconcur/internal/utxo"
)

// acctBlocks generates `blocks` Ethereum-like blocks with their pre-states
// and receipts, for the executor experiments.
type preparedBlock struct {
	pre      *account.StateDB
	blk      *account.Block
	receipts []*account.Receipt
}

func prepareAccountBlocks(profile string, blocks int, seed int64) ([]preparedBlock, error) {
	p, ok := chainsim.ProfileByName(profile)
	if !ok {
		return nil, fmt.Errorf("bench: unknown chain %q", profile)
	}
	g, err := chainsim.NewAcctGen(p, blocks, seed)
	if err != nil {
		return nil, err
	}
	var out []preparedBlock
	for {
		pre := g.Chain().State().Copy()
		blk, receipts, ok, err := g.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		out = append(out, preparedBlock{pre: pre, blk: blk, receipts: receipts})
	}
	return out, nil
}

// ExecutorComparison is experiment E1: run the real execution engines on
// generated Ethereum-like blocks and compare the measured unit-cost
// speed-ups against the paper's analytical predictions, per core count.
// This is the validation of §V that the paper's §VII names as future work.
func ExecutorComparison(blocks int, seed int64, cores []int) (Table, error) {
	prepared, err := prepareAccountBlocks("Ethereum", blocks, seed)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Name:  "exec",
		Title: "E1: measured executor speed-ups vs analytical model (Ethereum workload, unit-cost)",
		Headers: []string{
			"Cores", "Spec measured", "Eq.(1) predicted", "Perfect measured", "Perfect predicted",
			"Group measured", "Eq.(2) predicted", "STM measured", "Spec binned", "STM retries",
		},
	}
	for _, n := range cores {
		var specSum, perfSum, grpSum, stmSum, eq1Sum, eqPerfSum, eq2Sum float64
		var binned, retries, counted int
		for bi, pb := range prepared {
			if len(pb.blk.Txs) == 0 {
				continue
			}
			m := core.MeasureAccountBlock(pb.blk, pb.receipts)
			seq, err := exec.Sequential(pb.pre.Copy(), pb.blk)
			if err != nil {
				return t, fmt.Errorf("sequential replay block %d: %w", bi, err)
			}

			spec, err := exec.Speculative{Workers: n}.Execute(pb.pre.Copy(), pb.blk)
			if err != nil {
				return t, fmt.Errorf("speculative n=%d: %w", n, err)
			}
			perf, err := exec.PerfectSpeculative{Workers: n, Receipts: pb.receipts}.Execute(pb.pre.Copy(), pb.blk)
			if err != nil {
				return t, fmt.Errorf("perfect n=%d: %w", n, err)
			}
			grp, err := exec.Grouped{Workers: n, Receipts: pb.receipts}.Execute(pb.pre.Copy(), pb.blk)
			if err != nil {
				return t, fmt.Errorf("grouped n=%d: %w", n, err)
			}
			stm, err := exec.STMExec{Workers: n}.Execute(pb.pre.Copy(), pb.blk)
			if err != nil {
				return t, fmt.Errorf("stm n=%d: %w", n, err)
			}
			for _, er := range []struct {
				name string
				res  *exec.Result
			}{{"speculative", spec}, {"perfect", perf}, {"grouped", grp}, {"stm", stm}} {
				if err := verifyBlockRoot(fmt.Sprintf("%s n=%d", er.name, n), bi, er.res.Root, seq.Root); err != nil {
					return t, err
				}
			}
			eq1, err := core.SpeculativeSpeedupExact(m.NumTxs, m.SingleRate(), n)
			if err != nil {
				return t, err
			}
			eqPerf, err := core.PerfectInfoSpeedup(m.NumTxs, m.SingleRate(), n, 0)
			if err != nil {
				return t, err
			}
			eq2, err := core.GroupSpeedup(n, m.GroupRate())
			if err != nil {
				return t, err
			}

			specSum += spec.Stats.Speedup
			perfSum += perf.Stats.Speedup
			grpSum += grp.Stats.Speedup
			stmSum += stm.Stats.Speedup
			eq1Sum += eq1
			eqPerfSum += eqPerf
			eq2Sum += eq2
			binned += spec.Stats.Conflicted
			retries += stm.Stats.Retries
			counted++
		}
		if counted == 0 {
			continue
		}
		c := float64(counted)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.2fx", specSum/c),
			fmt.Sprintf("%.2fx", eq1Sum/c),
			fmt.Sprintf("%.2fx", perfSum/c),
			fmt.Sprintf("%.2fx", eqPerfSum/c),
			fmt.Sprintf("%.2fx", grpSum/c),
			fmt.Sprintf("%.2fx", eq2Sum/c),
			fmt.Sprintf("%.2fx", stmSum/c),
			fmt.Sprintf("%d", binned),
			fmt.Sprintf("%d", retries),
		})
	}
	return t, nil
}

// prepareChain generates a history for the profile and returns the state
// before the first block plus the block sequence — the whole-chain inputs
// the pipelined engines consume. Unlike prepareAccountBlocks, the receipts
// and per-block pre-states are *not* taken from the generator: the
// generator injects era contracts directly into state between blocks, so
// chain-level engines use a sequential replay of the blocks themselves as
// ground truth (chainsim.GenerateAccountChain documents the contract).
func prepareChain(profile string, blocks int, seed int64) (*account.StateDB, []*account.Block, error) {
	p, ok := chainsim.ProfileByName(profile)
	if !ok {
		return nil, nil, fmt.Errorf("bench: unknown chain %q", profile)
	}
	return chainsim.GenerateAccountChain(p, blocks, seed)
}

// replayChain runs the sequential ground truth over a prepared chain:
// each block's pre-state, oracle receipts, and post-root, plus the final
// chain root every engine must reproduce.
func replayChain(profile string, pre *account.StateDB, blks []*account.Block) (
	pres []*account.StateDB, oracles [][]*account.Receipt, roots []types.Hash, seqRoot types.Hash, err error) {
	work := pre.Copy()
	pres = make([]*account.StateDB, len(blks))
	oracles = make([][]*account.Receipt, len(blks))
	roots = make([]types.Hash, len(blks))
	for i, blk := range blks {
		pres[i] = work.Copy()
		res, rerr := exec.Sequential(work, blk)
		if rerr != nil {
			return nil, nil, nil, seqRoot, fmt.Errorf("%s replay block %d: %w", profile, i, rerr)
		}
		oracles[i] = res.Receipts
		roots[i] = res.Root
	}
	return pres, oracles, roots, work.Root(), nil
}

// PipelineComparison is experiment E7: chain-level speed-ups of the four
// execution engines — serial baseline, ordered STM, oracle-TDG groups, and
// the mvstore-backed two-phase pipeline — over whole generated histories.
// The per-block engines cannot overlap consecutive blocks, so their chain
// speed-up is ΣT / ΣT′ over blocks; the pipeline's is ΣT over its
// two-stage flow-shop makespan, which overlaps validation of block b with
// execution of block b+1. This is the experiment where the speed-up is no
// longer bounded by a barrier at every block; every engine's final root is
// checked against the sequential replay.
func PipelineComparison(blocks int, seed int64, profiles []string, cores []int) (Table, error) {
	t := Table{
		Name:  "pipeline",
		Title: "E7: chain-level engine speed-ups (serial baseline = 1.00x, unit-cost and gas)",
		Headers: []string{
			"Chain", "Cores", "STM", "Oracle TDG", "Pipeline", "Pipeline (gas)", "Reexec",
		},
	}
	for _, profile := range profiles {
		pre, blks, err := prepareChain(profile, blocks, seed)
		if err != nil {
			return t, err
		}
		// Sequential replay: ground truth root, per-block pre-states and
		// receipts for the per-block engines.
		pres, oracles, roots, seqRoot, err := replayChain(profile, pre, blks)
		if err != nil {
			return t, err
		}

		for _, n := range cores {
			var stmSeq, stmPar, grpSeq, grpPar int
			for i, blk := range blks {
				stm, err := exec.STMExec{Workers: n}.Execute(pres[i].Copy(), blk)
				if err != nil {
					return t, fmt.Errorf("%s stm n=%d: %w", profile, n, err)
				}
				if err := verifyBlockRoot(fmt.Sprintf("%s stm n=%d", profile, n), i, stm.Root, roots[i]); err != nil {
					return t, err
				}
				grp, err := exec.Grouped{Workers: n, Receipts: oracles[i]}.Execute(pres[i].Copy(), blk)
				if err != nil {
					return t, fmt.Errorf("%s grouped n=%d: %w", profile, n, err)
				}
				if err := verifyBlockRoot(fmt.Sprintf("%s grouped n=%d", profile, n), i, grp.Root, roots[i]); err != nil {
					return t, err
				}
				stmSeq += stm.Stats.SeqUnits
				stmPar += stm.Stats.ParUnits
				grpSeq += grp.Stats.SeqUnits
				grpPar += grp.Stats.ParUnits
			}
			pipe, _, err := exec.Sharded{Workers: n, Shards: 1, Depth: 2}.ExecuteChain(pre.Copy(), blks)
			if err != nil {
				return t, fmt.Errorf("%s pipeline n=%d: %w", profile, n, err)
			}
			if err := verifyChainRoot(fmt.Sprintf("%s pipeline n=%d", profile, n), pipe.Root, seqRoot); err != nil {
				return t, err
			}
			ratio := func(seq, par int) float64 {
				if par <= 0 {
					return 1
				}
				return float64(seq) / float64(par)
			}
			t.Rows = append(t.Rows, []string{
				profile,
				fmt.Sprintf("%d", n),
				fmt.Sprintf("%.2fx", ratio(stmSeq, stmPar)),
				fmt.Sprintf("%.2fx", ratio(grpSeq, grpPar)),
				fmt.Sprintf("%.2fx", pipe.Stats.Speedup),
				fmt.Sprintf("%.2fx", pipe.Stats.GasSpeedup),
				fmt.Sprintf("%.1f%%", 100*float64(pipe.Stats.Retries)/float64(max(pipe.Stats.Txs, 1))),
			})
		}
	}
	return t, nil
}

// OpLevelComparison is experiment E8: key-level vs operation-level conflict
// analysis and execution on hot-key workloads. The paper's TDG treats any
// two transactions sharing an address as conflicting, so a block of
// deposits to one exchange wallet collapses into a single component and the
// measured speed-up pins at ~1. Operation-level refinement (delta writes;
// Lin et al. 2022, Garamvölgyi et al. 2022) observes that blind balance
// credits commute: the refined TDG drops pure delta–delta edges, and the
// engines record credits as commutative deltas instead of
// read-modify-writes. For each profile the table reports both conflict
// rates and each engine's chain speed-up in "key → op" form; every
// engine run, in both modes, is verified root-for-root against the
// sequential replay. On delta-free workloads (the "Contract Crowd"
// control) the two modes must agree exactly.
func OpLevelComparison(blocks int, seed int64, profiles []string, cores []int) (Table, error) {
	t := Table{
		Name:  "oplevel",
		Title: "E8: key-level vs operation-level (delta-write) conflicts and chain speed-ups",
		Headers: []string{
			"Chain", "Cores", "Single rate", "Group rate", "Spec", "STM", "TDG sched", "Pipeline",
		},
	}
	for _, profile := range profiles {
		pre, blks, err := prepareChain(profile, blocks, seed)
		if err != nil {
			return t, err
		}
		// Sequential replay: ground truth per-block pre-states, receipts and
		// roots.
		pres, oracles, roots, seqRoot, err := replayChain(profile, pre, blks)
		if err != nil {
			return t, err
		}

		// Conflict rates under both TDGs, transaction-weighted across the
		// history.
		var txs, confKey, confOp, lccKey, lccOp float64
		for i, blk := range blks {
			if len(blk.Txs) == 0 {
				continue
			}
			v := core.ViewFromReceipts(blk, oracles[i])
			mk := core.FromTDG(core.BuildAccount(v))
			mo := core.FromTDG(core.BuildAccountRefined(v))
			txs += float64(mk.NumTxs)
			confKey += float64(mk.Conflicted)
			confOp += float64(mo.Conflicted)
			lccKey += float64(mk.LCC)
			lccOp += float64(mo.LCC)
		}
		if txs == 0 {
			continue
		}
		rates := func(key, op float64) string {
			return fmt.Sprintf("%.1f%% -> %.1f%%", 100*key/txs, 100*op/txs)
		}

		for _, n := range cores {
			// Per-block engines, both modes, chain speed-up = ΣT / ΣT'.
			var specPar, stmPar, grpPar [2]int
			var seqUnits int
			for i, blk := range blks {
				seqUnits += len(blk.Txs)
				for mode := 0; mode < 2; mode++ {
					op := mode == 1
					spec, err := exec.Speculative{Workers: n, OpLevel: op}.Execute(pres[i].Copy(), blk)
					if err != nil {
						return t, fmt.Errorf("%s spec op=%v n=%d: %w", profile, op, n, err)
					}
					stm, err := exec.STMExec{Workers: n, OpLevel: op}.Execute(pres[i].Copy(), blk)
					if err != nil {
						return t, fmt.Errorf("%s stm op=%v n=%d: %w", profile, op, n, err)
					}
					grp, err := exec.Grouped{Workers: n, Refined: op, Receipts: oracles[i]}.Execute(pres[i].Copy(), blk)
					if err != nil {
						return t, fmt.Errorf("%s grouped refined=%v n=%d: %w", profile, op, n, err)
					}
					for name, res := range map[string]*exec.Result{"spec": spec, "stm": stm, "grouped": grp} {
						if err := verifyBlockRoot(fmt.Sprintf("%s %s op=%v n=%d", profile, name, op, n), i, res.Root, roots[i]); err != nil {
							return t, err
						}
					}
					specPar[mode] += spec.Stats.ParUnits
					stmPar[mode] += stm.Stats.ParUnits
					grpPar[mode] += grp.Stats.ParUnits
				}
			}
			// The pipelined engine, whole chain, both modes. Its fixed-lag
			// snapshots give the two modes identical schedules, so the
			// comparison is noise-free.
			var pipeSpeed [2]float64
			for mode := 0; mode < 2; mode++ {
				op := mode == 1
				pipe, _, err := exec.Sharded{Workers: n, Shards: 1, Depth: 2, OpLevel: op}.ExecuteChain(pre.Copy(), blks)
				if err != nil {
					return t, fmt.Errorf("%s pipeline op=%v n=%d: %w", profile, op, n, err)
				}
				if err := verifyChainRoot(fmt.Sprintf("%s pipeline op=%v n=%d", profile, op, n), pipe.Root, seqRoot); err != nil {
					return t, err
				}
				pipeSpeed[mode] = pipe.Stats.Speedup
			}
			ratio := func(par int) float64 {
				if par <= 0 {
					return 1
				}
				return float64(seqUnits) / float64(par)
			}
			pair := func(key, op float64) string { return fmt.Sprintf("%.2fx -> %.2fx", key, op) }
			t.Rows = append(t.Rows, []string{
				profile,
				fmt.Sprintf("%d", n),
				rates(confKey, confOp),
				rates(lccKey, lccOp),
				pair(ratio(specPar[0]), ratio(specPar[1])),
				pair(ratio(stmPar[0]), ratio(stmPar[1])),
				pair(ratio(grpPar[0]), ratio(grpPar[1])),
				pair(pipeSpeed[0], pipeSpeed[1]),
			})
		}
	}
	return t, nil
}

// OpLevelProfiles are the workloads E8 runs by default: three hot-key
// stress profiles where operation-level refinement should win, plus the
// delta-free control where it must change nothing.
func OpLevelProfiles() []string {
	return []string{"Token Hot-Key", "Hot Wallet", "Flash Crowd", "Contract Crowd"}
}

// ShardingComparison is experiment E9: the sharded execution engine
// (exec.Sharded) on the cross-shard stress workloads, per shard count. The
// paper's §II-B notes that Zilliqa-style sharding "does not support
// cross-shard transactions"; E6 (ShardingAnalysis) measures how many
// transactions that design forfeits, and E9 measures what *handling* them
// costs: chain speed-up over the sequential baseline (unit-cost, ΣT/ΣT′)
// and the cross-shard abort rate (staged results that failed validation
// and re-executed in the sequential merge), in key-level and
// operation-level mode. Every engine run, in both modes and at every shard
// count, is verified root-for-root against the sequential replay.
func ShardingComparison(blocks int, seed int64, profiles []string, shardCounts []int, workers int) (Table, error) {
	t := Table{
		Name: "shardingexec",
		Title: fmt.Sprintf(
			"E9: sharded execution — speed-up and cross-shard abort rate vs shard count (%d workers, key-level -> op-level)",
			workers),
		Headers: []string{
			"Chain", "Shards", "Cross", "Speed-up", "Abort rate", "Fallback blocks",
		},
	}
	for _, profile := range profiles {
		pre, blks, err := prepareChain(profile, blocks, seed)
		if err != nil {
			return t, err
		}
		pres, _, roots, _, err := replayChain(profile, pre, blks)
		if err != nil {
			return t, err
		}
		for _, shards := range shardCounts {
			// Per mode: ΣT, ΣT′, cross/abort/fallback counters.
			var seqUnits int
			var par, crossTx, aborts, fallbacks [2]int
			for i, blk := range blks {
				seqUnits += len(blk.Txs)
				for mode := 0; mode < 2; mode++ {
					op := mode == 1
					cr, css, err := exec.Sharded{Workers: workers, Shards: shards, OpLevel: op}.
						ExecuteChain(pres[i].Copy(), []*account.Block{blk})
					if err != nil {
						return t, fmt.Errorf("%s sharded s=%d op=%v block %d: %w", profile, shards, op, i, err)
					}
					if err := verifyBlockRoot(fmt.Sprintf("%s sharded s=%d op=%v", profile, shards, op), i, cr.Root, roots[i]); err != nil {
						return t, err
					}
					ss := css.Blocks[0]
					par[mode] += cr.Stats.ParUnits
					crossTx[mode] += ss.Cross
					aborts[mode] += ss.CrossAborts
					if ss.Fallback {
						fallbacks[mode]++
					}
				}
			}
			if seqUnits == 0 {
				continue
			}
			ratio := func(p int) float64 {
				if p <= 0 {
					return 1
				}
				return float64(seqUnits) / float64(p)
			}
			rate := func(part, whole int) float64 {
				if whole == 0 {
					return 0
				}
				return 100 * float64(part) / float64(whole)
			}
			t.Rows = append(t.Rows, []string{
				profile,
				fmt.Sprintf("%d", shards),
				fmt.Sprintf("%.1f%% -> %.1f%%", rate(crossTx[0], seqUnits), rate(crossTx[1], seqUnits)),
				fmt.Sprintf("%.2fx -> %.2fx", ratio(par[0]), ratio(par[1])),
				fmt.Sprintf("%.1f%% -> %.1f%%", rate(aborts[0], max(crossTx[0], 1)), rate(aborts[1], max(crossTx[1], 1))),
				fmt.Sprintf("%d -> %d", fallbacks[0], fallbacks[1]),
			})
		}
	}
	return t, nil
}

// ShardProfileNames are the workloads E9 runs by default: uniform
// cross-shard traffic, a skewed hot shard, and contract-heavy cross-shard
// tangles.
func ShardProfileNames() []string {
	return []string{"Shard Uniform", "Shard Hot-Shard", "Shard Cross-Heavy"}
}

// ShardedPipelineComparison is experiment E10: per-block sharded execution
// vs the pipelined sharded chain (exec.Sharded.ExecuteChain), per shard
// count, on the cross-shard stress workloads. The per-block engine ends
// every block on the cross-shard merge barrier; the pipelined engine
// overlaps the per-shard speculative phase 1 of block b+1 with the merge of
// block b, batches commuting staged groups, re-executes aborted cross-shard
// transactions in parallel waves, and repairs ordering overlaps per
// transaction instead of falling back to a sequential whole-block re-run —
// E10 measures what each of those buys. Speed-ups are chain-level over the
// sequential baseline (unit-cost), reported as "key-level -> op-level";
// every run, in both modes and at every shard count, is verified
// root-for-root (and receipt-for-receipt for the chain engine) against the
// sequential replay.
func ShardedPipelineComparison(blocks int, seed int64, profiles []string, shardCounts []int, workers int) (Table, error) {
	t := Table{
		Name: "shardedpipeline",
		Title: fmt.Sprintf(
			"E10: pipelined sharded execution — per-block vs pipelined chain (%d workers, key-level -> op-level)",
			workers),
		Headers: []string{
			"Chain", "Shards", "Per-block", "Pipelined", "Abort rate", "Merge units", "Repairs", "Fallback blocks",
		},
	}
	for _, profile := range profiles {
		pre, blks, err := prepareChain(profile, blocks, seed)
		if err != nil {
			return t, err
		}
		pres, oracles, roots, seqRoot, err := replayChain(profile, pre, blks)
		if err != nil {
			return t, err
		}
		for _, shards := range shardCounts {
			var seqUnits int
			var blockPar, chainPar, crossTx, aborts, mergeUnits, repairs, fallbacks [2]int
			for mode := 0; mode < 2; mode++ {
				op := mode == 1
				for i, blk := range blks {
					if mode == 0 {
						seqUnits += len(blk.Txs)
					}
					res, err := exec.Sharded{Workers: workers, Shards: shards, OpLevel: op}.
						Execute(pres[i].Copy(), blk)
					if err != nil {
						return t, fmt.Errorf("%s sharded s=%d op=%v block %d: %w", profile, shards, op, i, err)
					}
					if err := verifyBlockRoot(fmt.Sprintf("%s sharded s=%d op=%v", profile, shards, op), i, res.Root, roots[i]); err != nil {
						return t, err
					}
					blockPar[mode] += res.Stats.ParUnits
				}
				cr, css, err := exec.Sharded{Workers: workers, Shards: shards, OpLevel: op, Depth: 2}.
					ExecuteChain(pre.Copy(), blks)
				if err != nil {
					return t, fmt.Errorf("%s sharded chain s=%d op=%v: %w", profile, shards, op, err)
				}
				ctx := fmt.Sprintf("%s sharded chain s=%d op=%v", profile, shards, op)
				if err := verifyChainRoot(ctx, cr.Root, seqRoot); err != nil {
					return t, err
				}
				if err := verifyChainReceipts(ctx, cr.Receipts, oracles); err != nil {
					return t, err
				}
				chainPar[mode] += cr.Stats.ParUnits
				crossTx[mode] += css.Cross
				aborts[mode] += css.CrossAborts
				mergeUnits[mode] += css.MergeUnits
				repairs[mode] += css.Repairs
				fallbacks[mode] += css.FallbackBlocks
			}
			if seqUnits == 0 {
				continue
			}
			ratio := func(p int) float64 {
				if p <= 0 {
					return 1
				}
				return float64(seqUnits) / float64(p)
			}
			rate := func(part, whole int) float64 {
				if whole == 0 {
					return 0
				}
				return 100 * float64(part) / float64(whole)
			}
			t.Rows = append(t.Rows, []string{
				profile,
				fmt.Sprintf("%d", shards),
				fmt.Sprintf("%.2fx -> %.2fx", ratio(blockPar[0]), ratio(blockPar[1])),
				fmt.Sprintf("%.2fx -> %.2fx", ratio(chainPar[0]), ratio(chainPar[1])),
				fmt.Sprintf("%.1f%% -> %.1f%%", rate(aborts[0], max(crossTx[0], 1)), rate(aborts[1], max(crossTx[1], 1))),
				// Merge units vs aborts: the strictly sequential merge costs
				// one unit per abort; the wave'd merge costs the left number.
				fmt.Sprintf("%d/%d -> %d/%d", mergeUnits[0], aborts[0], mergeUnits[1], aborts[1]),
				fmt.Sprintf("%d -> %d", repairs[0], repairs[1]),
				fmt.Sprintf("%d -> %d", fallbacks[0], fallbacks[1]),
			})
		}
	}
	return t, nil
}

// InterBlockConcurrency is experiment E4: the paper's §VII lists
// inter-block concurrency as an unexplored source. Windows of w consecutive
// blocks are analysed as one batch; the table reports how both conflict
// rates and the eq. (2) speed-up bound evolve with the window size, for an
// account chain and a UTXO chain.
func InterBlockConcurrency(blocks int, seed int64, windows []int, cores int) (Table, error) {
	t := Table{
		Name:  "interblock",
		Title: fmt.Sprintf("E4: inter-block windows (batched analysis, %d cores)", cores),
		Headers: []string{
			"Chain", "Window", "Txs/batch", "Single rate", "Group rate", "Eq.(2) bound",
		},
	}

	// Ethereum-like account views.
	prepared, err := prepareAccountBlocks("Ethereum", blocks, seed)
	if err != nil {
		return t, err
	}
	views := make([]*core.AccountBlockView, 0, len(prepared))
	for _, pb := range prepared {
		views = append(views, core.ViewFromReceipts(pb.blk, pb.receipts))
	}
	for _, w := range windows {
		ms := core.WindowMetrics(views, w)
		row, err := interBlockRow("Ethereum", w, ms, cores)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, row)
	}

	// Bitcoin-like UTXO blocks.
	p, _ := chainsim.ProfileByName("Bitcoin")
	g, err := chainsim.NewUTXOGen(p, blocks, seed)
	if err != nil {
		return t, err
	}
	var ublocks []*utxo.Block
	for {
		blk, ok, err := g.Next()
		if err != nil {
			return t, err
		}
		if !ok {
			break
		}
		ublocks = append(ublocks, blk)
	}
	for _, w := range windows {
		ms := core.WindowMetricsUTXO(ublocks, w)
		row, err := interBlockRow("Bitcoin", w, ms, cores)
		if err != nil {
			return t, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// interBlockRow aggregates window metrics (tx-weighted) into one table row.
func interBlockRow(chain string, w int, ms []core.Metrics, cores int) ([]string, error) {
	var txs, conflicted, lcc float64
	var batches int
	var boundSum float64
	for _, m := range ms {
		if m.NumTxs == 0 {
			continue
		}
		txs += float64(m.NumTxs)
		conflicted += float64(m.Conflicted)
		lcc += float64(m.LCC)
		bound, err := core.GroupSpeedup(cores, m.GroupRate())
		if err != nil {
			return nil, err
		}
		boundSum += bound
		batches++
	}
	if batches == 0 {
		return nil, fmt.Errorf("bench: no batches for %s window %d", chain, w)
	}
	return []string{
		chain,
		fmt.Sprintf("%d", w),
		fmt.Sprintf("%.0f", txs/float64(batches)),
		fmt.Sprintf("%.1f%%", 100*conflicted/txs),
		fmt.Sprintf("%.2f%%", 100*lcc/txs),
		fmt.Sprintf("%.2fx", boundSum/float64(batches)),
	}, nil
}

// CensusTable reports the component-size census of generated workloads —
// the decomposition behind the paper's §IV-B observation that group
// concurrency far exceeds single-transaction concurrency: most conflicted
// transactions sit in *small* components that can still run concurrently
// with each other, and only the largest component serialises.
func CensusTable(blocks int, seed int64) (Table, error) {
	t := Table{
		Name:  "census",
		Title: "Component-size census (share of transactions per component class)",
		Headers: []string{
			"Chain", "Singleton", "Small (2-5)", "Medium (6-20)", "Large (>20)",
		},
	}
	addRow := func(chain string, total ComponentTotals) {
		sum := float64(total.TxsSingleton + total.TxsSmall + total.TxsMedium + total.TxsLarge)
		if sum == 0 {
			return
		}
		pct := func(v int) string { return fmt.Sprintf("%.1f%%", 100*float64(v)/sum) }
		t.Rows = append(t.Rows, []string{
			chain, pct(total.TxsSingleton), pct(total.TxsSmall), pct(total.TxsMedium), pct(total.TxsLarge),
		})
	}

	prepared, err := prepareAccountBlocks("Ethereum", blocks, seed)
	if err != nil {
		return t, err
	}
	var ethTotal core.ComponentCensus
	for _, pb := range prepared {
		v := core.ViewFromReceipts(pb.blk, pb.receipts)
		c := core.BuildAccount(v).Census()
		ethTotal.Add(c)
	}
	addRow("Ethereum", ComponentTotals(ethTotal))

	p, _ := chainsim.ProfileByName("Bitcoin")
	g, err := chainsim.NewUTXOGen(p, blocks, seed)
	if err != nil {
		return t, err
	}
	var btcTotal core.ComponentCensus
	for {
		blk, ok, err := g.Next()
		if err != nil {
			return t, err
		}
		if !ok {
			break
		}
		btcTotal.Add(core.BuildUTXO(blk).Census())
	}
	addRow("Bitcoin", ComponentTotals(btcTotal))
	return t, nil
}

// ComponentTotals aliases the census for table rendering.
type ComponentTotals = core.ComponentCensus

// ShardingAnalysis is experiment E6: Zilliqa-style sender-based sharding
// applied to the generated workloads (paper §II-B). For each committee
// count it reports the cross-shard transaction fraction — the transactions
// Zilliqa's design cannot process ("a major limitation ... is that it does
// not support cross-shard transactions") — and the intra-shard conflict
// rates of the remainder.
func ShardingAnalysis(blocks int, seed int64, shardCounts []int) (Table, error) {
	t := Table{
		Name:  "sharding",
		Title: "E6: Zilliqa-style sender sharding (cross-shard loss vs intra-shard concurrency)",
		Headers: []string{
			"Chain", "Shards", "Cross-shard", "Intra single rate", "Intra group rate",
		},
	}
	for _, chain := range []string{"Zilliqa", "Ethereum"} {
		prepared, err := prepareAccountBlocks(chain, blocks, seed)
		if err != nil {
			return t, err
		}
		for _, n := range shardCounts {
			var txs, cross, conflicted, lcc float64
			for _, pb := range prepared {
				v := core.ViewFromReceipts(pb.blk, pb.receipts)
				rep := core.ShardAccountView(v, core.InternalEdgesByTx(pb.receipts), n)
				txs += float64(rep.Txs)
				cross += float64(rep.CrossShard)
				intra := rep.IntraShardMetrics()
				conflicted += float64(intra.Conflicted)
				lcc += float64(intra.LCC)
			}
			if txs == 0 {
				continue
			}
			intraTxs := txs - cross
			singleRate, groupRate := 0.0, 0.0
			if intraTxs > 0 {
				singleRate = conflicted / intraTxs
				groupRate = lcc / intraTxs
			}
			t.Rows = append(t.Rows, []string{
				chain,
				fmt.Sprintf("%d", n),
				fmt.Sprintf("%.1f%%", 100*cross/txs),
				fmt.Sprintf("%.1f%%", 100*singleRate),
				fmt.Sprintf("%.2f%%", 100*groupRate),
			})
		}
	}
	return t, nil
}

// UTXOValidation is experiment E5: the UTXO-side counterpart of E1. The
// paper's Bitcoin finding — group conflict rate around 1% — implies
// near-linear parallel validation speed-ups; this experiment measures them
// with the GroupedUTXO engine and compares against eq. (2).
func UTXOValidation(blocks int, seed int64, cores []int) (Table, error) {
	p, _ := chainsim.ProfileByName("Bitcoin")
	g, err := chainsim.NewUTXOGen(p, blocks, seed)
	if err != nil {
		return Table{}, err
	}
	type prepared struct {
		pre *utxo.Set
		blk *utxo.Block
	}
	var items []prepared
	for {
		pre := g.Chain().UTXOSet().Clone()
		blk, ok, err := g.Next()
		if err != nil {
			return Table{}, err
		}
		if !ok {
			break
		}
		items = append(items, prepared{pre: pre, blk: blk})
	}

	t := Table{
		Name:  "utxoexec",
		Title: "E5: parallel UTXO block validation vs eq. (2) (Bitcoin workload, unit-cost)",
		Headers: []string{
			"Cores", "Measured", "Eq.(2) predicted", "Mean txs/block", "Mean conflicted",
		},
	}
	for _, n := range cores {
		var measured, predicted, txs, conflicted float64
		counted := 0
		for _, it := range items {
			m := core.MeasureUTXOBlock(it.blk)
			if m.NumTxs == 0 {
				continue
			}
			set := it.pre.Clone()
			res, err := (exec.GroupedUTXO{Workers: n, Subsidy: 1 << 50}).Execute(set, it.blk)
			if err != nil {
				return t, fmt.Errorf("utxo n=%d: %w", n, err)
			}
			eq2, err := core.GroupSpeedup(n, m.GroupRate())
			if err != nil {
				return t, err
			}
			measured += res.Stats.Speedup
			predicted += eq2
			txs += float64(m.NumTxs)
			conflicted += float64(m.Conflicted)
			counted++
		}
		if counted == 0 {
			continue
		}
		c := float64(counted)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.2fx", measured/c),
			fmt.Sprintf("%.2fx", predicted/c),
			fmt.Sprintf("%.0f", txs/c),
			fmt.Sprintf("%.0f", conflicted/c),
		})
	}
	return t, nil
}

// SchedulingQuality is experiment E2: how close LPT list scheduling gets to
// the paper's min(n, 1/l) approximation (equation (2)) on the component-size
// distributions of generated blocks — the paper's §V-B calls exact
// scheduling NP-hard and "leaves the evaluation of this in practice to
// future work".
func SchedulingQuality(blocks int, seed int64, cores []int) (Table, error) {
	prepared, err := prepareAccountBlocks("Ethereum", blocks, seed)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Name:  "sched",
		Title: "E2: LPT schedule quality vs the min(n, 1/l) bound (Ethereum workload)",
		Headers: []string{
			"Cores", "Mean LPT speed-up", "Mean bound", "LPT/bound", "Worst ratio",
		},
	}
	for _, n := range cores {
		var lptSum, boundSum float64
		worst := 1.0
		counted := 0
		for _, pb := range prepared {
			v := core.ViewFromReceipts(pb.blk, pb.receipts)
			groups := core.BuildAccount(v).TxGroups()
			if len(groups) == 0 {
				continue
			}
			jobs := make([]int, len(groups))
			for i, g := range groups {
				jobs[i] = len(g)
			}
			schedule, err := sched.LPT(jobs, n)
			if err != nil {
				return t, err
			}
			bound := sched.ModelSpeedup(jobs, n)
			lpt := schedule.Speedup()
			lptSum += lpt
			boundSum += bound
			if ratio := lpt / bound; ratio < worst {
				worst = ratio
			}
			counted++
		}
		if counted == 0 {
			continue
		}
		c := float64(counted)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.3fx", lptSum/c),
			fmt.Sprintf("%.3fx", boundSum/c),
			fmt.Sprintf("%.4f", (lptSum/c)/(boundSum/c)),
			fmt.Sprintf("%.4f", worst),
		})
	}
	return t, nil
}

// ApproxTDGEffectiveness is experiment E3: the paper's §V-C proposes
// building an approximate TDG from regular transactions only (internal
// transactions are unknown a priori) and leaves quantifying it to future
// work. This experiment measures (a) how closely the approximate TDG's
// conflict metrics track the full TDG's, and (b) how often hidden conflicts
// force the grouped executor's sequential fallback, with the resulting
// speed-up cost.
func ApproxTDGEffectiveness(blocks int, seed int64, workers int) (Table, error) {
	prepared, err := prepareAccountBlocks("Ethereum", blocks, seed)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Name:  "approxtdg",
		Title: fmt.Sprintf("E3: approximate-TDG effectiveness (%d workers)", workers),
		Headers: []string{
			"Metric", "Value",
		},
	}
	var fullSingle, apxSingle, fullGroup, apxGroup float64
	var oracleSpeed, apxSpeed float64
	fallbacks, counted := 0, 0
	for _, pb := range prepared {
		if len(pb.blk.Txs) == 0 {
			continue
		}
		v := core.ViewFromReceipts(pb.blk, pb.receipts)
		full := core.FromTDG(core.BuildAccount(v))
		apx := core.FromTDG(core.BuildAccountApprox(v))
		fullSingle += full.SingleRate()
		apxSingle += apx.SingleRate()
		fullGroup += full.GroupRate()
		apxGroup += apx.GroupRate()

		oracle, err := exec.Grouped{Workers: workers, Receipts: pb.receipts}.Execute(pb.pre.Copy(), pb.blk)
		if err != nil {
			return t, err
		}
		approx, err := exec.Grouped{Workers: workers, Approx: true, Receipts: pb.receipts}.Execute(pb.pre.Copy(), pb.blk)
		if err != nil {
			return t, err
		}
		oracleSpeed += oracle.Stats.Speedup
		apxSpeed += approx.Stats.Speedup
		if approx.Stats.Retries > 0 {
			fallbacks++
		}
		counted++
	}
	if counted == 0 {
		return t, fmt.Errorf("bench: no blocks generated")
	}
	c := float64(counted)
	t.Rows = [][]string{
		{"Blocks", fmt.Sprintf("%d", counted)},
		{"Mean single rate (full TDG)", fmt.Sprintf("%.3f", fullSingle/c)},
		{"Mean single rate (approx TDG)", fmt.Sprintf("%.3f", apxSingle/c)},
		{"Mean group rate (full TDG)", fmt.Sprintf("%.3f", fullGroup/c)},
		{"Mean group rate (approx TDG)", fmt.Sprintf("%.3f", apxGroup/c)},
		{"Mean speed-up (oracle TDG)", fmt.Sprintf("%.2fx", oracleSpeed/c)},
		{"Mean speed-up (approx TDG, incl. fallbacks)", fmt.Sprintf("%.2fx", apxSpeed/c)},
		{"Blocks hitting sequential fallback", fmt.Sprintf("%d (%.1f%%)", fallbacks, 100*float64(fallbacks)/c)},
	}
	return t, nil
}

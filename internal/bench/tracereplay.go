package bench

import (
	"fmt"

	"txconcur/internal/account"
	"txconcur/internal/dataset"
	"txconcur/internal/exec"
)

// traceRun accumulates one engine's schedule accounting across a replayed
// chain, in one conflict mode.
type traceRun struct {
	par        int
	gasSeq     uint64
	gasPar     uint64
	conflicted int
}

func (r *traceRun) add(s exec.Stats) {
	r.par += s.ParUnits
	r.gasSeq += s.GasSeq
	r.gasPar += s.GasPar
	r.conflicted += s.Conflicted
}

// traceReceiptsMatch compares an engine's receipts against the sequential
// oracle for one block.
func traceReceiptsMatch(got, want []*account.Receipt) error {
	if len(got) != len(want) {
		return fmt.Errorf("receipt count %d != %d", len(got), len(want))
	}
	for j, r := range got {
		w := want[j]
		if r == nil || w == nil {
			return fmt.Errorf("receipt %d missing", j)
		}
		if r.Status != w.Status || r.GasUsed != w.GasUsed || r.TxHash != w.TxHash {
			return fmt.Errorf("receipt %d diverged", j)
		}
	}
	return nil
}

// TraceReplayComparison is experiment E12: real-conflict trace replay.
// Where E7–E10 measure the engines on synthetic chain-simulator
// workloads, E12 feeds them recorded read/write sets — the committed
// golden fixture plus a deterministic ERC20-shaped trace (hot-token
// transfers, airdrop fan-outs, DEX pool contention, cold payments) from
// dataset.GenerateERC20Trace. Each trace is compiled by
// dataset.BuildReplayChain into VM-executable blocks whose storage
// accesses reproduce the trace's conflict structure exactly, and replayed
// through every engine: per-block Speculative, STM and Sharded, plus the
// chain-level one-shard pipeline and Sharded chain. Every run, in both
// key-level and op-level mode, is verified root-for-root and
// receipt-for-receipt against the sequential replay.
//
// The trace's measured per-transaction costs drive the engines' gas
// accounting through the CostModel hook (exec.Speculative.Cost et al.), so
// the cost-weighted speed-up column prices schedules by what the
// transactions cost on the source chain rather than by the toy VM's gas;
// the driver cross-checks that every engine's GasSeq equals the trace's
// total measured cost.
func TraceReplayComparison(seed int64, workers, shards, depth int) (Table, error) {
	t := Table{
		Name: "tracereplay",
		Title: fmt.Sprintf(
			"E12: rwset trace replay through every engine — key -> op (%d workers, %d shards)",
			workers, shards),
		Headers: []string{
			"Trace", "Engine", "Txs", "Speed-up", "Speed-up (cost)", "Conflicted",
		},
	}

	golden, err := dataset.GoldenTrace()
	if err != nil {
		return t, err
	}
	gen, err := dataset.GenerateERC20Trace(dataset.ERC20TraceConfig{Seed: seed})
	if err != nil {
		return t, err
	}
	traces := []struct {
		name string
		tr   *dataset.Trace
	}{
		{"golden", golden},
		{"erc20-gen", gen},
	}

	engines := []string{"Speculative", "STM", "Sharded/block", "Pipeline", "Sharded chain"}
	for _, tc := range traces {
		rc, err := dataset.BuildReplayChain(tc.tr)
		if err != nil {
			return t, fmt.Errorf("%s: %w", tc.name, err)
		}
		pres, oracles, roots, seqRoot, err := replayChain(tc.name, rc.Pre, rc.Blocks)
		if err != nil {
			return t, err
		}
		var seqUnits int
		var costSeq uint64
		for i, blk := range rc.Blocks {
			seqUnits += len(blk.Txs)
			for j, tx := range blk.Txs {
				costSeq += rc.TxCost(tx, oracles[i][j])
			}
		}

		// runs[engine][mode], mode 0 = key-level, 1 = op-level.
		var runs [5][2]traceRun
		for mode := 0; mode < 2; mode++ {
			op := mode == 1
			perBlock := []struct {
				idx int
				run func(st *account.StateDB, blk *account.Block) (*exec.Result, error)
			}{
				{0, exec.Speculative{Workers: workers, OpLevel: op, Cost: rc.TxCost}.Execute},
				{1, exec.STMExec{Workers: workers, OpLevel: op, Cost: rc.TxCost}.Execute},
				{2, exec.Sharded{Workers: workers, Shards: shards, OpLevel: op, Depth: depth, Cost: rc.TxCost}.Execute},
			}
			for _, pb := range perBlock {
				for i, blk := range rc.Blocks {
					res, err := pb.run(pres[i].Copy(), blk)
					if err != nil {
						return t, fmt.Errorf("%s %s op=%v block %d: %w", tc.name, engines[pb.idx], op, i, err)
					}
					if err := verifyBlockRoot(fmt.Sprintf("%s %s op=%v", tc.name, engines[pb.idx], op), i, res.Root, roots[i]); err != nil {
						return t, err
					}
					if err := traceReceiptsMatch(res.Receipts, oracles[i]); err != nil {
						return t, fmt.Errorf("%s %s op=%v block %d: %w", tc.name, engines[pb.idx], op, i, err)
					}
					runs[pb.idx][mode].add(res.Stats)
				}
			}

			chain := []struct {
				idx int
				run func() (*exec.ChainResult, error)
			}{
				{3, func() (*exec.ChainResult, error) {
					cr, _, err := exec.Sharded{Workers: workers, Shards: 1, Depth: depth, OpLevel: op,
						Cost: rc.TxCost}.ExecuteChain(rc.Pre.Copy(), rc.Blocks)
					return cr, err
				}},
				{4, func() (*exec.ChainResult, error) {
					cr, _, err := exec.Sharded{Workers: workers, Shards: shards, OpLevel: op, Depth: depth,
						Cost: rc.TxCost}.ExecuteChain(rc.Pre.Copy(), rc.Blocks)
					return cr, err
				}},
			}
			for _, ce := range chain {
				cr, err := ce.run()
				if err != nil {
					return t, fmt.Errorf("%s %s op=%v: %w", tc.name, engines[ce.idx], op, err)
				}
				if err := verifyChainRoot(fmt.Sprintf("%s %s op=%v", tc.name, engines[ce.idx], op), cr.Root, seqRoot); err != nil {
					return t, err
				}
				for i := range rc.Blocks {
					if err := traceReceiptsMatch(cr.Receipts[i], oracles[i]); err != nil {
						return t, fmt.Errorf("%s %s op=%v block %d: %w", tc.name, engines[ce.idx], op, i, err)
					}
				}
				runs[ce.idx][mode].add(cr.Stats)
			}
		}

		// The measured-cost plumbing must be loss-free: every engine charges
		// exactly the trace's total cost sequentially, whatever its schedule.
		for ei := range runs {
			for mode := range runs[ei] {
				if got := runs[ei][mode].gasSeq; got != costSeq {
					return t, fmt.Errorf("%s %s op=%v: GasSeq %d != trace cost %d",
						tc.name, engines[ei], mode == 1, got, costSeq)
				}
			}
		}

		ratio := func(num, den float64) float64 {
			if den <= 0 {
				return 1
			}
			return num / den
		}
		for ei, name := range engines {
			key, opr := runs[ei][0], runs[ei][1]
			t.Rows = append(t.Rows, []string{
				tc.name,
				name,
				fmt.Sprintf("%d", seqUnits),
				fmt.Sprintf("%.2fx -> %.2fx",
					ratio(float64(seqUnits), float64(key.par)),
					ratio(float64(seqUnits), float64(opr.par))),
				fmt.Sprintf("%.2fx -> %.2fx",
					ratio(float64(costSeq), float64(key.gasPar)),
					ratio(float64(costSeq), float64(opr.gasPar))),
				fmt.Sprintf("%d -> %d", key.conflicted, opr.conflicted),
			})
		}
	}
	return t, nil
}

package txconcur_test

// One benchmark per table and figure of the paper's evaluation, plus the
// extension experiments and micro-benchmarks of the core pipeline. Each
// table/figure benchmark regenerates the experiment end to end (workload
// generation -> execution/measurement -> bucketed series), so -bench=. is a
// complete reproduction run; b.N repetitions use distinct seeds to exercise
// workload variance.

import (
	"fmt"
	"io"
	"testing"

	"txconcur/internal/account"
	"txconcur/internal/bench"
	"txconcur/internal/chainsim"
	"txconcur/internal/core"
	"txconcur/internal/exec"
	"txconcur/internal/mvstore"
	"txconcur/internal/sched"
)

// benchScale keeps the full -bench=. run in the minutes range; raise for
// higher-fidelity series.
const (
	benchBlocks  = 60
	benchBuckets = 20
	benchExecBlk = 10
)

func renderAll(b *testing.B, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.TableI()
		if len(t.Rows) != 7 {
			b.Fatal("table I must list seven chains")
		}
	}
}

func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Fig1()
		if t.Rows[0][5] != "40.00%" || t.Rows[1][6] != "56.25%" {
			b.Fatal("figure 1 rates drifted from the paper")
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.NewRunner(benchBlocks, benchBuckets, int64(2020+i))
		fig, err := r.Fig4()
		renderAll(b, err)
		renderAll(b, bench.RenderFigure(io.Discard, fig))
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.NewRunner(benchBlocks, benchBuckets, int64(2020+i))
		fig, err := r.Fig5()
		renderAll(b, err)
		renderAll(b, bench.RenderFigure(io.Discard, fig))
	}
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.NewRunner(benchBlocks, benchBuckets, int64(2020+i))
		tbl, err := r.Fig6()
		renderAll(b, err)
		renderAll(b, bench.RenderTable(io.Discard, tbl))
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.NewRunner(benchBlocks, benchBuckets, int64(2020+i))
		fig, err := r.Fig7()
		renderAll(b, err)
		renderAll(b, bench.RenderFigure(io.Discard, fig))
	}
}

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.NewRunner(benchBlocks, benchBuckets, int64(2020+i))
		fig, err := r.Fig8()
		renderAll(b, err)
		renderAll(b, bench.RenderFigure(io.Discard, fig))
	}
}

func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.NewRunner(benchBlocks, benchBuckets, int64(2020+i))
		fig, err := r.Fig9()
		renderAll(b, err)
		renderAll(b, bench.RenderFigure(io.Discard, fig))
	}
}

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.NewRunner(benchBlocks, benchBuckets, int64(2020+i))
		fig, err := r.Fig10()
		renderAll(b, err)
		renderAll(b, bench.RenderFigure(io.Discard, fig))
	}
}

func BenchmarkExecutors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := bench.ExecutorComparison(benchExecBlk, int64(2020+i), []int{2, 4, 8, 64})
		renderAll(b, err)
		renderAll(b, bench.RenderTable(io.Discard, tbl))
	}
}

func BenchmarkScheduling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := bench.SchedulingQuality(benchExecBlk, int64(2020+i), []int{2, 4, 8, 64})
		renderAll(b, err)
		renderAll(b, bench.RenderTable(io.Discard, tbl))
	}
}

func BenchmarkApproxTDG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := bench.ApproxTDGEffectiveness(benchExecBlk, int64(2020+i), 8)
		renderAll(b, err)
		renderAll(b, bench.RenderTable(io.Discard, tbl))
	}
}

func BenchmarkInterBlock(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := bench.InterBlockConcurrency(benchExecBlk, int64(2020+i), []int{1, 2, 4, 8}, 8)
		renderAll(b, err)
		renderAll(b, bench.RenderTable(io.Discard, tbl))
	}
}

func BenchmarkUTXOValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := bench.UTXOValidation(benchExecBlk, int64(2020+i), []int{2, 4, 8, 64})
		renderAll(b, err)
		renderAll(b, bench.RenderTable(io.Discard, tbl))
	}
}

func BenchmarkOpLevelComparison(b *testing.B) {
	// E8 at benchmark scale; the recorded baseline lives in
	// docs/bench/E8-baseline.json (regenerate with
	// `go run ./cmd/experiments -run oplevel -json`).
	for i := 0; i < b.N; i++ {
		tbl, err := bench.OpLevelComparison(benchExecBlk, int64(2020+i), bench.OpLevelProfiles(), []int{8})
		renderAll(b, err)
		renderAll(b, bench.RenderTable(io.Discard, tbl))
	}
}

func BenchmarkShardingComparison(b *testing.B) {
	// E9 at benchmark scale; the recorded baseline lives in
	// docs/bench/E9-baseline.json (regenerate with
	// `go run ./cmd/experiments -run shardingexec -json`).
	for i := 0; i < b.N; i++ {
		tbl, err := bench.ShardingComparison(benchExecBlk, int64(2020+i), bench.ShardProfileNames(), []int{2, 8}, 8)
		renderAll(b, err)
		renderAll(b, bench.RenderTable(io.Discard, tbl))
	}
}

func BenchmarkShardedPipelineComparison(b *testing.B) {
	// E10 at benchmark scale; the recorded baseline lives in
	// docs/bench/E10-baseline.json (regenerate with
	// `go run ./cmd/experiments -run shardedpipeline -json`).
	for i := 0; i < b.N; i++ {
		tbl, err := bench.ShardedPipelineComparison(benchExecBlk, int64(2020+i), bench.ShardProfileNames(), []int{2, 8}, 8)
		renderAll(b, err)
		renderAll(b, bench.RenderTable(io.Discard, tbl))
	}
}

func BenchmarkTraceReplayComparison(b *testing.B) {
	// E12 at benchmark scale; the recorded baseline lives in
	// docs/bench/E12-baseline.json (regenerate with
	// `go run ./cmd/experiments -run tracereplay -json`).
	for i := 0; i < b.N; i++ {
		tbl, err := bench.TraceReplayComparison(int64(2020+i), 8, 4, 2)
		renderAll(b, err)
		renderAll(b, bench.RenderTable(io.Discard, tbl))
	}
}

// Micro-benchmarks of the pipeline stages.

func BenchmarkTDGBuildAccount(b *testing.B) {
	g, err := chainsim.NewAcctGen(chainsim.EthereumProfile(), 3, 1)
	if err != nil {
		b.Fatal(err)
	}
	var blk *account.Block
	var receipts []*account.Receipt
	for {
		bb, rr, ok, err := g.Next()
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			break
		}
		blk, receipts = bb, rr
	}
	view := core.ViewFromReceipts(blk, receipts)
	b.ReportMetric(float64(len(blk.Txs)), "txs/block")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.BuildAccount(view)
	}
}

func BenchmarkTDGBuildAccountRefined(b *testing.B) {
	// The operation-level refinement hot path on a hot-key block, where
	// most edges are droppable delta–delta credits.
	g, err := chainsim.NewAcctGen(chainsim.HotWalletProfile(), 3, 1)
	if err != nil {
		b.Fatal(err)
	}
	var blk *account.Block
	var receipts []*account.Receipt
	for {
		bb, rr, ok, err := g.Next()
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			break
		}
		blk, receipts = bb, rr
	}
	view := core.ViewFromReceipts(blk, receipts)
	b.ReportMetric(float64(len(blk.Txs)), "txs/block")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.BuildAccountRefined(view)
	}
}

func BenchmarkMVStoreResolveDeltas(b *testing.B) {
	// Snapshot read of a hot key whose chain carries pending deltas from
	// several committed blocks — the read path operation-level pipelining
	// leans on. The chain is GC-compacted to the pipeline-depth shape.
	store := mvstore.NewStoreDelta[string, int64](func(a, d int64) int64 { return a + d })
	const depth = 4
	for ts := uint64(1); ts <= 64; ts++ {
		err := store.CommitWrites(ts, map[string]mvstore.Write[int64]{
			"hot":                  {Kind: mvstore.DeltaAdd, Val: int64(ts)},
			fmt.Sprintf("k%d", ts): {Kind: mvstore.Put, Val: int64(ts)},
		})
		if err != nil {
			b.Fatal(err)
		}
		if ts > depth {
			store.TruncateBelow(ts - depth)
		}
	}
	snap := store.PinLatest()
	defer snap.Release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := snap.Resolve("hot", 0); v == 0 {
			b.Fatal("delta chain lost")
		}
	}
}

func BenchmarkMeasureUTXOBlock(b *testing.B) {
	g, err := chainsim.NewUTXOGen(chainsim.BitcoinProfile(), 40, 1)
	if err != nil {
		b.Fatal(err)
	}
	var last interface{ NumTxs() int }
	var blocks []func() core.Metrics
	for {
		blk, ok, err := g.Next()
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			break
		}
		last = blk
		bb := blk
		blocks = append(blocks, func() core.Metrics { return core.MeasureUTXOBlock(bb) })
	}
	b.ReportMetric(float64(last.NumTxs()), "txs/lastblock")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blocks[len(blocks)-1]()
	}
}

func BenchmarkSequentialExecution(b *testing.B) {
	pre, blk := execFixture(b)
	b.ReportMetric(float64(len(blk.Txs)), "txs/block")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Sequential(pre.Copy(), blk); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpeculativeExecution(b *testing.B) {
	pre, blk := execFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (exec.Speculative{Workers: 8}).Execute(pre.Copy(), blk); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGroupedExecution(b *testing.B) {
	pre, blk := execFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (exec.Grouped{Workers: 8}).Execute(pre.Copy(), blk); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSTMExecution(b *testing.B) {
	pre, blk := execFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (exec.STMExec{Workers: 8}).Execute(pre.Copy(), blk); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShardedExecution(b *testing.B) {
	pre, blk := execFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (exec.Sharded{Workers: 8, Shards: 4}).Execute(pre.Copy(), blk); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedChain measures the pipelined sharded chain end to end,
// per-block execution vs ExecuteChain, on the same cross-heavy history.
// one-shard is the pipelined two-phase engine, Sharded{Shards: 1}: every
// transaction is intra-shard and the cross-shard merge never runs.
// Profile the hot path with
// `go run ./cmd/experiments -run shardedpipeline -cpuprofile cpu.out`.
func BenchmarkShardedChain(b *testing.B) {
	pre, blocks := shardedChainFixture(b)
	b.Run("per-block", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			work := pre.Copy()
			for _, blk := range blocks {
				if _, err := (exec.Sharded{Workers: 8, Shards: 4}).Execute(work, blk); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("pipelined", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := (exec.Sharded{Workers: 8, Shards: 4, Depth: 2}).ExecuteChain(pre.Copy(), blocks); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("one-shard", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := (exec.Sharded{Workers: 8, Shards: 1, Depth: 2}).ExecuteChain(pre.Copy(), blocks); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func shardedChainFixture(b *testing.B) (*account.StateDB, []*account.Block) {
	b.Helper()
	pre, blocks, err := chainsim.GenerateAccountChain(chainsim.ShardCrossHeavyProfile(), 6, 1)
	if err != nil {
		b.Fatal(err)
	}
	return pre, blocks
}

func execFixture(b *testing.B) (*account.StateDB, *account.Block) {
	b.Helper()
	g, err := chainsim.NewAcctGen(chainsim.EthereumProfile(), 6, 1)
	if err != nil {
		b.Fatal(err)
	}
	var pre *account.StateDB
	var blk *account.Block
	for {
		p := g.Chain().State().Copy()
		bb, _, ok, err := g.Next()
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			break
		}
		pre, blk = p, bb
	}
	return pre, blk
}

func BenchmarkLPTSchedule(b *testing.B) {
	jobs := make([]int, 500)
	for i := range jobs {
		jobs[i] = 1 + i%7
	}
	jobs[0] = 90 // the LCC
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.LPT(jobs, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpeedupModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for n := 1; n <= 64; n *= 2 {
			if _, err := core.SpeculativeSpeedup(200, 0.6, n); err != nil {
				b.Fatal(err)
			}
			if _, err := core.GroupSpeedup(n, 0.2); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// Example-style sanity check that the benchmark scale reproduces the
// paper's headline: ~6x group speed-up at 8 cores on late-era Ethereum.
func Example() {
	r := bench.NewRunner(60, 10, 2020)
	fig, err := r.Fig10()
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	var maxGroup8 float64
	for _, s := range fig.Panels[1].Series {
		if s.Name == "8 cores" {
			for _, v := range s.Values {
				if v > maxGroup8 {
					maxGroup8 = v
				}
			}
		}
	}
	fmt.Println(maxGroup8 > 4.0)
	// Output: true
}

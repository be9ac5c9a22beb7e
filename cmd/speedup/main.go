// Command speedup evaluates the paper's execution speed-up model (§V) for
// given block parameters: equation (1) for speculative single-transaction
// concurrency, the pipelined two-phase variant (phases overlapped across
// blocks, see internal/exec.Sharded with one shard), and equation (2) for
// group concurrency, across core counts. The optional -groupop flag supplies the
// group conflict rate measured on the operation-level (delta-refined) TDG,
// adding an "Eq.(2) op-level" column that shows what commutativity buys —
// on hot-key workloads the refined rate l' is far below the key-level l.
// The optional -shards flag adds two columns: "Sharded", the per-block
// sharded-engine model (core.ShardedSpeedup) for s committees with
// cross-shard fraction -cross and cross-shard abort rate -abort (a=1 is the
// key-level worst case, a=0 the commutative-delta limit E9 measures at op
// level); "Sharded pipelined", the chain-steady-state model of
// Sharded.ExecuteChain (core.ShardedPipelineSpeedup) where phase 1 of block
// b+1 overlaps the cross-shard commit of block b and the merge re-executes
// aborted transactions in parallel waves — the configuration E10 measures.
//
// Usage:
//
//	speedup -txs 100 -single 0.6 -group 0.2 -cores 4,8,64
//	speedup -txs 100 -single 0.6 -group 0.8 -groupop 0.05 -cores 8,64
//	speedup -txs 100 -single 0.3 -shards 4 -cross 0.8 -abort 0.2 -cores 8,64
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"txconcur/internal/bench"
	"txconcur/internal/core"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "speedup:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("speedup", flag.ContinueOnError)
	txs := fs.Int("txs", 100, "transactions per block (x)")
	single := fs.Float64("single", 0.6, "single-transaction conflict rate (c)")
	group := fs.Float64("group", 0.2, "group conflict rate (l)")
	groupOp := fs.Float64("groupop", -1, "operation-level group conflict rate (l' after delta refinement; -1 disables the column)")
	coresFlag := fs.String("cores", "4,8,64", "comma-separated core counts")
	k := fs.Float64("k", 0, "pre-processing cost K in time units")
	shardsN := fs.Int("shards", 0, "shard count s for the sharded-engine column (0 disables the column)")
	cross := fs.Float64("cross", 0.5, "cross-shard transaction fraction χ (with -shards)")
	abortRate := fs.Float64("abort", 1, "cross-shard abort rate a: share of cross-shard txs re-executed in the merge (with -shards)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var cores []int
	for _, part := range strings.Split(*coresFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return fmt.Errorf("bad -cores: %w", err)
		}
		cores = append(cores, n)
	}

	title := fmt.Sprintf("Speed-up model: x=%d, c=%.2f, l=%.2f, K=%.1f", *txs, *single, *group, *k)
	if *groupOp >= 0 {
		title += fmt.Sprintf(", l'=%.2f (op-level)", *groupOp)
	}
	if *shardsN > 0 {
		title += fmt.Sprintf(", s=%d, χ=%.2f, a=%.2f (sharded)", *shardsN, *cross, *abortRate)
	}
	t := bench.Table{
		Title: title,
		Headers: []string{
			"Cores", "Eq.(1) speculative", "Exact speculative", "Perfect info", "Pipelined", "Eq.(2) group", "Group with K",
		},
	}
	if *groupOp >= 0 {
		t.Headers = append(t.Headers, "Eq.(2) op-level")
	}
	if *shardsN > 0 {
		t.Headers = append(t.Headers, "Sharded", "Sharded pipelined")
	}
	for _, n := range cores {
		eq1, err := core.SpeculativeSpeedup(*txs, *single, n)
		if err != nil {
			return err
		}
		exact, err := core.SpeculativeSpeedupExact(*txs, *single, n)
		if err != nil {
			return err
		}
		perfect, err := core.PerfectInfoSpeedup(*txs, *single, n, *k)
		if err != nil {
			return err
		}
		pipe, err := core.PipelineSpeedup(*txs, *single, n)
		if err != nil {
			return err
		}
		eq2, err := core.GroupSpeedup(n, *group)
		if err != nil {
			return err
		}
		eq2k, err := core.GroupSpeedupWithCost(*txs, *group, n, *k)
		if err != nil {
			return err
		}
		row := []string{
			strconv.Itoa(n),
			fmt.Sprintf("%.2fx", eq1),
			fmt.Sprintf("%.2fx", exact),
			fmt.Sprintf("%.2fx", perfect),
			fmt.Sprintf("%.2fx", pipe),
			fmt.Sprintf("%.2fx", eq2),
			fmt.Sprintf("%.2fx", eq2k),
		}
		if *groupOp >= 0 {
			eq2op, err := core.GroupSpeedup(n, *groupOp)
			if err != nil {
				return err
			}
			row = append(row, fmt.Sprintf("%.2fx", eq2op))
		}
		if *shardsN > 0 {
			sharded, err := core.ShardedSpeedup(*txs, *single, *cross, n, *shardsN, *abortRate)
			if err != nil {
				return err
			}
			piped, err := core.ShardedPipelineSpeedup(*txs, *single, *cross, n, *shardsN, *abortRate)
			if err != nil {
				return err
			}
			row = append(row, fmt.Sprintf("%.2fx", sharded), fmt.Sprintf("%.2fx", piped))
		}
		t.Rows = append(t.Rows, row)
	}
	return bench.RenderTable(os.Stdout, t)
}

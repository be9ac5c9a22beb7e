// Command experiments regenerates every table and figure of the paper's
// evaluation, plus the extension experiments (E1–E3), printing them as text
// tables and sparkline charts.
//
// Usage:
//
//	experiments [-blocks N] [-buckets N] [-seed N] [-run regexp] [-json]
//	            [-cpuprofile file] [-trace file]
//
// The -run filter selects experiments by name (tableI, fig1, fig4, fig5,
// fig6, fig7, fig8, fig9, fig10, summary, exec, sched, approxtdg,
// interblock, utxoexec, sharding, shardingexec, shardedpipeline,
// tracereplay, census, pipeline, oplevel). With -json,
// table experiments emit one JSON object per table (figures stay text) —
// the format of the recorded benchmark baselines. Wall-clock service
// numbers are not an experiment here: they come from the nodebench
// harness under benchmarks/. Note that "-run sharding" matches the
// analytical E6 (sharding), the executable E9 (shardingexec) and the
// pipelined E10 (shardedpipeline); anchor the regexp ("sharding$") to run
// E6 alone.
//
// -cpuprofile and -trace write a pprof CPU profile / runtime execution
// trace covering the selected experiments, so hot-path regressions in the
// executors (the cross-shard merge above all) are diagnosable with `go
// tool pprof` / `go tool trace` against a narrow -run filter.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime/pprof"
	"runtime/trace"

	"txconcur/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	blocks := fs.Int("blocks", 200, "history blocks generated per chain")
	buckets := fs.Int("buckets", 40, "time-series buckets (paper: 20-200)")
	seed := fs.Int64("seed", 2020, "generator seed")
	filter := fs.String("run", "", "regexp of experiment names to run")
	execBlocks := fs.Int("execblocks", 20, "blocks for the executor experiments")
	jsonOut := fs.Bool("json", false, "emit table experiments as JSON")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the selected experiments to this file")
	traceFile := fs.String("trace", "", "write a runtime execution trace of the selected experiments to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		defer trace.Stop()
	}
	var re *regexp.Regexp
	if *filter != "" {
		var err error
		if re, err = regexp.Compile(*filter); err != nil {
			return fmt.Errorf("bad -run: %w", err)
		}
	}
	want := func(name string) bool { return re == nil || re.MatchString(name) }

	r := bench.NewRunner(*blocks, *buckets, *seed)
	renderTable := func(w io.Writer, tbl bench.Table) error {
		if *jsonOut {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(tbl)
		}
		if err := bench.RenderTable(w, tbl); err != nil {
			return err
		}
		_, err := fmt.Fprintln(w)
		return err
	}

	if want("tableI") {
		if err := renderTable(out, bench.TableI()); err != nil {
			return err
		}
	}
	if want("fig1") {
		if err := renderTable(out, bench.Fig1()); err != nil {
			return err
		}
	}

	figures := []struct {
		name string
		fn   func() (bench.Figure, error)
	}{
		{"fig4", r.Fig4},
		{"fig5", r.Fig5},
		{"fig7", r.Fig7},
		{"fig8", r.Fig8},
		{"fig9", r.Fig9},
		{"fig10", r.Fig10},
	}
	for _, f := range figures {
		if !want(f.name) {
			continue
		}
		fig, err := f.fn()
		if err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
		if err := bench.RenderFigure(out, fig); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}

	if want("fig6") {
		tbl, err := r.Fig6()
		if err != nil {
			return fmt.Errorf("fig6: %w", err)
		}
		if err := renderTable(out, tbl); err != nil {
			return err
		}
	}
	if want("summary") {
		tbl, err := r.SummaryTable()
		if err != nil {
			return fmt.Errorf("summary: %w", err)
		}
		if err := renderTable(out, tbl); err != nil {
			return err
		}
	}
	if want("exec") {
		tbl, err := bench.ExecutorComparison(*execBlocks, *seed, []int{2, 4, 8, 64})
		if err != nil {
			return fmt.Errorf("exec: %w", err)
		}
		if err := renderTable(out, tbl); err != nil {
			return err
		}
	}
	if want("sched") {
		tbl, err := bench.SchedulingQuality(*execBlocks, *seed, []int{2, 4, 8, 64})
		if err != nil {
			return fmt.Errorf("sched: %w", err)
		}
		if err := renderTable(out, tbl); err != nil {
			return err
		}
	}
	if want("approxtdg") {
		tbl, err := bench.ApproxTDGEffectiveness(*execBlocks, *seed, 8)
		if err != nil {
			return fmt.Errorf("approxtdg: %w", err)
		}
		if err := renderTable(out, tbl); err != nil {
			return err
		}
	}
	if want("pipeline") {
		tbl, err := bench.PipelineComparison(*execBlocks, *seed,
			[]string{"Ethereum", "Ethereum Classic"}, []int{2, 4, 8, 64})
		if err != nil {
			return fmt.Errorf("pipeline: %w", err)
		}
		if err := renderTable(out, tbl); err != nil {
			return err
		}
	}
	if want("oplevel") {
		tbl, err := bench.OpLevelComparison(*execBlocks, *seed, bench.OpLevelProfiles(), []int{2, 4, 8, 64})
		if err != nil {
			return fmt.Errorf("oplevel: %w", err)
		}
		if err := renderTable(out, tbl); err != nil {
			return err
		}
	}
	if want("interblock") {
		tbl, err := bench.InterBlockConcurrency(*execBlocks, *seed, []int{1, 2, 4, 8}, 8)
		if err != nil {
			return fmt.Errorf("interblock: %w", err)
		}
		if err := renderTable(out, tbl); err != nil {
			return err
		}
	}
	if want("utxoexec") {
		tbl, err := bench.UTXOValidation(*execBlocks, *seed, []int{2, 4, 8, 64})
		if err != nil {
			return fmt.Errorf("utxoexec: %w", err)
		}
		if err := renderTable(out, tbl); err != nil {
			return err
		}
	}
	if want("sharding") {
		tbl, err := bench.ShardingAnalysis(*execBlocks, *seed, []int{2, 4, 8, 16})
		if err != nil {
			return fmt.Errorf("sharding: %w", err)
		}
		if err := renderTable(out, tbl); err != nil {
			return err
		}
	}
	if want("shardingexec") {
		tbl, err := bench.ShardingComparison(*execBlocks, *seed, bench.ShardProfileNames(), []int{1, 2, 4, 8}, 8)
		if err != nil {
			return fmt.Errorf("shardingexec: %w", err)
		}
		if err := renderTable(out, tbl); err != nil {
			return err
		}
	}
	if want("shardedpipeline") {
		tbl, err := bench.ShardedPipelineComparison(*execBlocks, *seed, bench.ShardProfileNames(), []int{1, 2, 4, 8}, 8)
		if err != nil {
			return fmt.Errorf("shardedpipeline: %w", err)
		}
		if err := renderTable(out, tbl); err != nil {
			return err
		}
	}
	if want("tracereplay") {
		tbl, err := bench.TraceReplayComparison(*seed, 8, 4, 2)
		if err != nil {
			return fmt.Errorf("tracereplay: %w", err)
		}
		if err := renderTable(out, tbl); err != nil {
			return err
		}
	}
	if want("census") {
		tbl, err := bench.CensusTable(*execBlocks, *seed)
		if err != nil {
			return fmt.Errorf("census: %w", err)
		}
		if err := renderTable(out, tbl); err != nil {
			return err
		}
	}
	return nil
}

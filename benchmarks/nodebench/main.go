// Command nodebench is the repository's wall-clock benchmark of the
// submit→commit path: it wires the single-node service once (generator →
// mempool.Pool → mempool.Builder (+wal.Log) → exec.Sharded streaming
// executor (+wal.Checkpointer, +basestore.Store)), drives it with one of
// six workloads for a fixed time, checks the run against a sequential
// oracle, and prints every metric by name and unit. See ../README.md.
//
// Usage:
//
//	nodebench -workload sat-uniform -seed 1 -seconds 10 -trace 0
//	nodebench -repeat 5 -out results/base.json     # all workloads, then one traced run each
//	nodebench -compare results/base.json results/new.json
//
// With one workload and -repeat 1 the last line of standard output is the
// benchmark contract's JSON object. Any failed correctness gate exits
// non-zero without printing metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// stderr is where diagnostics go; a variable so the smoke test can keep
// its output quiet.
var stderr io.Writer = os.Stderr

func main() {
	if err := realMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "nodebench: %v\n", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	repeat   int
	out      string
	compare  bool
	dir      string
}

func realMain(args []string, stdout io.Writer) error {
	var o options
	fs := flag.NewFlagSet("nodebench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "all", "workload name, or all for the whole suite")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; repetition i uses seed+i")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed window; the only sizing flag")
	fs.IntVar(&o.trace, "trace", 0, "1 installs the seam decorators and reports the per-layer metrics (single workload)")
	fs.IntVar(&o.repeat, "repeat", 1, "untraced runs per workload; medians and quartiles are reported")
	fs.StringVar(&o.out, "out", "", "write every run's metrics to this JSON file")
	fs.BoolVar(&o.compare, "compare", false, "compare two -out files (base, candidate) and exit non-zero on a regression")
	fs.StringVar(&o.dir, "dir", ".", "directory that receives .work/ (run scratch) and results/ (trace files)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare wants two files: base.json candidate.json")
		}
		regressed, err := compare(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return err
		}
		if regressed {
			return fmt.Errorf("regression beyond bound")
		}
		return nil
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.seconds <= 0 || o.repeat < 1 || (o.trace != 0 && o.trace != 1) {
		return fmt.Errorf("want -seconds > 0, -repeat >= 1, -trace 0 or 1")
	}

	workRoot := filepath.Join(o.dir, ".work")
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return fmt.Errorf("work root: %w", err)
	}
	cfg := runConfig{
		seconds: o.seconds, workRoot: workRoot,
		resultsDir: filepath.Join(o.dir, "results"),
	}
	rf := newResultsFile(o.seed, o.seconds, workRoot)

	if o.workload != "all" {
		cfg.w = workloadByName(o.workload)
		if cfg.w == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		if o.repeat == 1 {
			return contractRun(stdout, cfg, o, rf)
		}
	}
	return suite(stdout, cfg, o, rf)
}

// contractRun is one run of one workload, traced or not, ending in the
// benchmark contract's JSON line.
func contractRun(stdout io.Writer, cfg runConfig, o options, rf *resultsFile) error {
	cfg.seed, cfg.trace = o.seed, o.trace == 1
	m, err := runOnce(cfg)
	if err != nil {
		return err
	}
	kind := endToEnd
	wl := &wlJSON{}
	if cfg.trace {
		kind = perLayer
		wl.Traced = m.values
	} else {
		wl.Runs = []runJSON{{o.seed, m.attempted, m.failed, m.values}}
	}
	rf.Workloads[cfg.w.name] = wl
	if o.out != "" {
		if err := rf.write(o.out); err != nil {
			return err
		}
	}
	printMetrics(stdout, fmt.Sprintf("%s  seed %d  %.3gs  trace %d", cfg.w.name, o.seed, o.seconds, o.trace),
		[]metricKind{endToEnd, perLayer, info},
		func(name string) []float64 {
			if x, ok := m.values[name]; ok {
				return []float64{x}
			}
			return nil
		})

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]value{}}
	for _, d := range metricDefs {
		if d.kind == kind {
			// A per-layer metric this workload never exercises is zero.
			line.Metrics[d.name] = value{m.values[d.name], d.unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("contract line: %w", err)
	}
	fmt.Fprintf(stdout, "\n%s\n", data)
	return nil
}

// suite runs the chosen workloads (all six by default) -repeat times
// untraced, then once traced, and prints medians, quartiles, the per-layer
// numbers and the two figures that need more than one run: the tracing
// overhead and bounded-wide's throughput against its all-RAM control.
func suite(stdout io.Writer, cfg runConfig, o options, rf *resultsFile) error {
	chosen := workloads
	if cfg.w != nil {
		chosen = []*workload{cfg.w}
	}
	for _, w := range chosen {
		cfg.w, cfg.trace = w, false
		wl := &wlJSON{Derived: map[string]float64{}}
		rf.Workloads[w.name] = wl
		for i := 0; i < o.repeat; i++ {
			cfg.seed = o.seed + int64(i)
			m, err := runOnce(cfg)
			if err != nil {
				return err
			}
			wl.Runs = append(wl.Runs, runJSON{cfg.seed, m.attempted, m.failed, m.values})
			fmt.Fprintf(stderr, "nodebench: %s seed %d: %.0f tx/s, %d of %d failed\n",
				w.name, cfg.seed, m.values["commit_tps"], m.failed, m.attempted)
		}
		cfg.seed, cfg.trace = o.seed, true
		m, err := runOnce(cfg)
		if err != nil {
			return err
		}
		wl.Traced = m.values

		_, tps, _ := quartiles(wl.values("commit_tps"))
		wl.Derived["trace.overhead_share"] = 1 - ratio(m.values["trace.commit_tps"], tps)
		if control := rf.Workloads["sat-uniform"]; w.bounded && control != nil {
			_, base, _ := quartiles(control.values("commit_tps"))
			wl.Derived["bounded_ratio"] = ratio(tps, base)
		}

		printMetrics(stdout, fmt.Sprintf("%s  %d untraced run(s), seeds %d..%d, %.3gs each",
			w.name, o.repeat, o.seed, o.seed+int64(o.repeat)-1, o.seconds),
			[]metricKind{endToEnd, info}, func(name string) []float64 {
				if x, ok := wl.Derived[name]; ok {
					return []float64{x}
				}
				return wl.values(name)
			})
		printMetrics(stdout, w.name+"  traced run, per layer", []metricKind{perLayer},
			func(name string) []float64 { return []float64{m.values[name]} })
	}
	if o.out != "" {
		return rf.write(o.out)
	}
	return nil
}

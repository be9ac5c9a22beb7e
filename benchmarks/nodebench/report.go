package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
)

// resultsFile is what -out writes and -compare reads: the machine and
// commit the numbers came from, the fixed configuration, and per workload
// every untraced run plus the one traced run.
type resultsFile struct {
	GitSHA     string             `json:"git_sha"`
	GoVersion  string             `json:"go_version"`
	NumCPU     int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	FSType     string             `json:"fs_type"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Config     map[string]any     `json:"config"`
	Metrics    []metricJSON       `json:"metrics"`
	Workloads  map[string]*wlJSON `json:"workloads"`
}

type metricJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Kind   string  `json:"kind"`
	Bound  float64 `json:"bound,omitempty"`
}

// wlJSON holds one workload's runs. Runs are the untraced repetitions, one
// seed each; Traced is the per-layer run; Derived holds the numbers that
// need more than one run.
type wlJSON struct {
	Runs    []runJSON          `json:"runs"`
	Traced  map[string]float64 `json:"traced,omitempty"`
	Derived map[string]float64 `json:"derived,omitempty"`
}

type runJSON struct {
	Seed      int64              `json:"seed"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

func newResultsFile(seed int64, seconds float64, workRoot string) *resultsFile {
	rf := &resultsFile{
		GitSHA: "unknown", GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		FSType: fsType(workRoot), Seed: seed, Seconds: seconds,
		Config: map[string]any{
			"packer": "conflict-aware", "max_txs": maxTxs, "hot_key_cap": hotKeyCap,
			"pool_capacity": poolCapacity, "flush_ms": ms(flushLull), "built_queue": builtQueue,
			"workers": execWorkers, "shards": execShards, "depth": execDepth, "op_level": true,
			"checkpoint_every": checkpointEvery, "rpc_connections": 1,
			"cache_divisor": cacheDivisor, "setup_repeats": setupRepeats,
		},
		Workloads: map[string]*wlJSON{},
	}
	for _, d := range metricDefs {
		rf.Metrics = append(rf.Metrics, metricJSON{d.name, d.unit, d.better, string(d.kind), d.bound})
	}
	return rf
}

func (rf *resultsFile) write(path string) error {
	if out, err := osexec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		rf.GitSHA = strings.TrimSpace(string(out))
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write results: %w", err)
	}
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return fmt.Errorf("write results: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write results: %w", err)
	}
	return nil
}

func readResultsFile(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read results: %w", err)
	}
	var rf resultsFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("read results %s: %w", path, err)
	}
	return &rf, nil
}

// quartiles returns the first quartile, median and third quartile of xs the
// way Python's statistics.quantiles(xs, n=4) and statistics.median do (the
// "exclusive" method), so a spread printed here is the spread the driver
// computes. A single value is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), (s[(n-1)/2] + s[n/2]) / 2, at(3)
}

// values collects one metric over a workload's untraced runs.
func (w *wlJSON) values(name string) []float64 {
	var xs []float64
	for _, r := range w.Runs {
		if x, ok := r.Metrics[name]; ok {
			xs = append(xs, x)
		}
	}
	return xs
}

// printMetrics writes one row per metric: a single run's value, or the
// median and quartiles of several.
func printMetrics(out io.Writer, title string, kinds []metricKind, get func(name string) []float64) {
	fmt.Fprintf(out, "\n%s\n", title)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	for _, d := range metricDefs {
		if !slices.Contains(kinds, d.kind) {
			continue
		}
		xs := get(d.name)
		if len(xs) == 0 {
			continue
		}
		q1, med, q3 := quartiles(xs)
		row := fmt.Sprintf("  %s\t%.6g\t%s\t%s", d.name, med, d.unit, d.kind)
		if len(xs) > 1 {
			row += fmt.Sprintf("\tq1 %.6g  q3 %.6g  spread %.1f%%  n=%d", q1, q3, 100*ratio(q3-q1, med), len(xs))
		}
		if d.bound > 0 {
			row += fmt.Sprintf("\tbound %.0f%% %s is better", 100*d.bound, d.better)
		}
		fmt.Fprintln(tw, row)
	}
	tw.Flush()
}

// compare applies each end-to-end metric's bound to every workload the two
// files share and prints one row per pair. A pair is unresolved when the
// baseline's own quartile spread is wider than the bound: the runs cannot
// tell a change of that size from noise. It reports whether any resolved
// pair regressed.
func compare(out io.Writer, basePath, candPath string) (regressed bool, err error) {
	base, err := readResultsFile(basePath)
	if err != nil {
		return false, err
	}
	cand, err := readResultsFile(candPath)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tcandidate\tworse by\tbase spread\tbound\tverdict")
	for _, w := range workloads {
		b, c := base.Workloads[w.name], cand.Workloads[w.name]
		if b == nil || c == nil {
			continue
		}
		if fb, fc := failures(b), failures(c); fc > fb {
			fmt.Fprintf(tw, "%s\tfailed\t%d\t%d\t\t\t0\tREGRESSION\n", w.name, fb, fc)
			regressed = true
		}
		for _, d := range metricDefs {
			if d.kind != endToEnd {
				continue
			}
			bx, cx := b.values(d.name), c.values(d.name)
			if len(bx) == 0 || len(cx) == 0 {
				continue
			}
			q1, bm, q3 := quartiles(bx)
			_, cm, _ := quartiles(cx)
			worse := ratio(cm-bm, bm)
			if d.better == "higher" {
				worse = -worse
			}
			spread := ratio(q3-q1, bm)
			verdict := "ok"
			switch {
			case spread > d.bound:
				verdict = "unresolved"
			case worse > d.bound:
				verdict = "REGRESSION"
				regressed = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				w.name, d.name, bm, cm, 100*worse, 100*spread, 100*d.bound, verdict)
		}
	}
	tw.Flush()
	return regressed, nil
}

func failures(w *wlJSON) int {
	n := 0
	for _, r := range w.Runs {
		n += r.Failed
	}
	return n
}

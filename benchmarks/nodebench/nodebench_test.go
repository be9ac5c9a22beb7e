package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeSeconds is 1/100 of BENCHMARK.json's run_seconds: every workload
// runs end to end, gate included, in well under a second.
const smokeSeconds = 0.1

func smokeConfig(t *testing.T, w *workload, trace bool) runConfig {
	t.Helper()
	dir := t.TempDir()
	return runConfig{
		w: w, seed: 7, seconds: smokeSeconds, trace: trace,
		workRoot: dir, resultsDir: filepath.Join(dir, "results"),
	}
}

// TestSmoke runs every workload untraced and traced at 1/100 scale with the
// correctness gate on, so the harness cannot rot unnoticed.
func TestSmoke(t *testing.T) {
	stderr = io.Discard
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := smokeConfig(t, w, trace)
			m, err := runOnce(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if m.failed != 0 || m.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed", w.name, trace, m.failed, m.attempted)
			}
			for _, d := range metricDefs {
				x, ok := m.values[d.name]
				if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
					t.Errorf("%s trace=%v: %s = %v", w.name, trace, d.name, x)
				}
				if d.kind == endToEnd && !ok {
					t.Errorf("%s trace=%v: end-to-end metric %s missing", w.name, trace, d.name)
				}
			}
			if m.values["commit_tps"] <= 0 || m.values["setup_s"] <= 0 {
				t.Errorf("%s trace=%v: commit_tps %v, setup_s %v", w.name, trace, m.values["commit_tps"], m.values["setup_s"])
			}
			if !trace {
				continue
			}
			stages := 0.0
			for _, name := range []string{"admit", "pool_wait", "build", "exec_queue", "exec"} {
				stages += m.values["stage."+name+"_ms"]
			}
			if mean := m.values["commit_mean_ms"]; math.Abs(stages-mean) > 0.02*mean {
				t.Errorf("%s: stage means add up to %.3f ms, mean commit latency is %.3f ms", w.name, stages, mean)
			}
			if x := m.values["stage.misordered_share"]; x != 0 {
				t.Errorf("%s: %.4f of the transactions have a negative stage", w.name, x)
			}
			// Layer isolation: a layer the workload bypasses reports nothing.
			for _, d := range metricDefs {
				layer, _, _ := strings.Cut(d.name, ".")
				bypassed := layer == "wal" && !w.durable ||
					layer == "basestore" && !w.bounded ||
					layer == "client" && w.loop != rpcClosed
				if bypassed && m.values[d.name] != 0 {
					t.Errorf("%s: %s = %v on a workload that bypasses %s", w.name, d.name, m.values[d.name], layer)
				}
			}
			if _, err := os.Stat(filepath.Join(cfg.resultsDir, "trace-"+w.name+".json")); err != nil {
				t.Errorf("%s: trace file: %v", w.name, err)
			}
		}
	}
}

// TestContractLine checks the shape of the last line of a single run.
func TestContractLine(t *testing.T) {
	stderr = io.Discard
	for trace, kind := range map[string]metricKind{"0": endToEnd, "1": perLayer} {
		var out bytes.Buffer
		args := []string{"-workload", "durable-rate", "-seed", "3", "-seconds", "0.1", "-trace", trace, "-dir", t.TempDir()}
		if err := realMain(args, &out); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var line struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("trace %s: last line is not the contract object: %v", trace, err)
		}
		if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted < 1 || line.Failed == nil {
			t.Errorf("trace %s: bad counts in %s", trace, lines[len(lines)-1])
		}
		want := 0
		for _, d := range metricDefs {
			if d.kind != kind {
				continue
			}
			want++
			if got, ok := line.Metrics[d.name]; !ok || got.Value == nil || got.Unit != d.unit {
				t.Errorf("trace %s: metric %s missing or wrong unit", trace, d.name)
			}
		}
		if len(line.Metrics) != want {
			t.Errorf("trace %s: %d metrics, want exactly the %d %s ones", trace, len(line.Metrics), want, kind)
		}
	}
}

// TestManifestMatches keeps BENCHMARK.json and the program's own tables in
// step: the same workloads with the same reasons, the same metrics with the
// same units, directions and bounds.
func TestManifestMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var man struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&man); err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, program has %d", len(man.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := man.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: manifest %q (%q), program %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	check := func(kind metricKind, got []metric) {
		var want []metricDef
		for _, d := range metricDefs {
			if d.kind == kind {
				want = append(want, d)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, program has %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d: manifest %+v, program %+v", kind, i, g, d)
			}
			if kind == endToEnd && (g.Bound == nil || *g.Bound != d.bound) {
				t.Errorf("%s: manifest bound differs from the program's %v", d.name, d.bound)
			}
			if kind == perLayer && g.Bound != nil {
				t.Errorf("%s: a per-layer metric has no bound", d.name)
			}
		}
	}
	check(endToEnd, man.EndToEnd)
	check(perLayer, man.PerLayer)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, med, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
}

func TestHistogramBuckets(t *testing.T) {
	for _, ns := range []int64{0, 1, 3, 4, 5, 7, 100, 1659, 18317, 1 << 20, 1<<40 + 12345} {
		b := histBucket(ns)
		if b < 0 || b >= histBuckets {
			t.Fatalf("bucket(%d) = %d", ns, b)
		}
		if v := histValue(b); ns >= 4 && math.Abs(v-float64(ns))/float64(ns) > 0.13 {
			t.Errorf("bucket value %v is more than 13%% from %d", v, ns)
		}
	}
}

// TestCompare checks the three verdicts: within bound, regression, and a
// baseline too noisy to tell.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, tps ...float64) string {
		rf := newResultsFile(1, 10, dir)
		wl := &wlJSON{}
		for i, x := range tps {
			wl.Runs = append(wl.Runs, runJSON{Seed: int64(i), Attempted: 1, Metrics: map[string]float64{"commit_tps": x}})
		}
		rf.Workloads["sat-uniform"] = wl
		path := filepath.Join(dir, name)
		if err := rf.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 1000, 1010, 990, 1005, 995)
	for _, tc := range []struct {
		name      string
		cand      string
		verdict   string
		regressed bool
	}{
		{"same", write("same.json", 1001, 1000, 999, 1003, 998), "ok", false},
		{"slower", write("slow.json", 700, 705, 695, 701, 699), "REGRESSION", true},
		{"faster", write("fast.json", 1500, 1490, 1510, 1505, 1495), "ok", false},
	} {
		var out bytes.Buffer
		regressed, err := compare(&out, base, tc.cand)
		if err != nil {
			t.Fatal(err)
		}
		if regressed != tc.regressed || !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: regressed=%v, output:\n%s", tc.name, regressed, out.String())
		}
	}
	var out bytes.Buffer
	noisy := write("noisy.json", 1000, 1400, 700, 1200, 800)
	regressed, err := compare(&out, noisy, write("any.json", 600, 600, 600, 600, 600))
	if err != nil {
		t.Fatal(err)
	}
	if regressed || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("noisy baseline: regressed=%v, output:\n%s", regressed, out.String())
	}
}

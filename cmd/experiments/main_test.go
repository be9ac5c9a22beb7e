package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"txconcur/internal/bench"
)

func TestRunStaticExperiments(t *testing.T) {
	// tableI and fig1 need no generation; anchored regexp avoids fig10.
	if err := run([]string{"-run", "tableI|fig1$", "-blocks", "5", "-buckets", "3"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunOneFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a history")
	}
	if err := run([]string{"-run", "fig5", "-blocks", "10", "-buckets", "4"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadFilter(t *testing.T) {
	if err := run([]string{"-run", "("}, io.Discard); err == nil {
		t.Fatal("bad regexp accepted")
	}
}

// TestRunOpLevelJSON runs E8 with -json at one block; its table must carry
// the schema of docs/bench/E8-baseline.json. E8's headline property is
// checked by internal/bench TestOpLevelComparison.
func TestRunOpLevelJSON(t *testing.T) {
	checkRunJSON(t, "oplevel", "E8", "-execblocks", "1")
}

// TestRunShardingExecJSON runs E9 with -json at one block against the
// schema of docs/bench/E9-baseline.json. E9's headline property is checked
// by internal/bench TestShardingComparison.
func TestRunShardingExecJSON(t *testing.T) {
	checkRunJSON(t, "shardingexec", "E9", "-execblocks", "1")
}

// TestRunJSON runs the other recorded-baseline experiments (E1–E7,
// E10–E12) with -json against their docs/bench baselines. adaptiveshard
// keeps 6 blocks so a rebalance epoch still runs.
func TestRunJSON(t *testing.T) {
	for _, tc := range []struct {
		name, baseline string
		args           []string
	}{
		{"exec", "E1", []string{"-execblocks", "1"}},
		{"sched", "E2", []string{"-execblocks", "1"}},
		{"approxtdg", "E3", []string{"-execblocks", "1"}},
		{"interblock", "E4", []string{"-execblocks", "1"}},
		{"utxoexec", "E5", []string{"-execblocks", "1"}},
		{"sharding", "E6", []string{"-execblocks", "1"}},
		{"pipeline", "E7", []string{"-execblocks", "1"}},
		{"shardedpipeline", "E10", []string{"-execblocks", "1"}},
		{"adaptiveshard", "E11", []string{"-execblocks", "6"}},
		{"tracereplay", "E12", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkRunJSON(t, tc.name, tc.baseline, tc.args...)
		})
	}
}

// checkRunJSON runs one experiment with -json and compares its output with
// docs/bench/<baseline>-baseline.json. With no extra args the experiment
// runs at its recorded scale (E12) and must reproduce the baseline byte for
// byte; at a reduced -execblocks it must decode to a table with the
// baseline's name, title and headers.
func checkRunJSON(t *testing.T, name, baseline string, args ...string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("..", "..", "docs", "bench", baseline+"-baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(append([]string{"-run", "^" + name + "$", "-json"}, args...), &got); err != nil {
		t.Fatal(err)
	}
	if args == nil {
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("output differs from %s-baseline.json:\n%s", baseline, got.Bytes())
		}
		return
	}
	var gt, wt bench.Table
	if err := json.Unmarshal(got.Bytes(), &gt); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &wt); err != nil {
		t.Fatal(err)
	}
	if gt.Name != wt.Name || gt.Title != wt.Title || !slices.Equal(gt.Headers, wt.Headers) {
		t.Fatalf("schema %q %q %q, baseline has %q %q %q",
			gt.Name, gt.Title, gt.Headers, wt.Name, wt.Title, wt.Headers)
	}
}

// TestRunProfileFlags: -cpuprofile and -trace must produce non-empty
// artifacts covering the selected experiments.
func TestRunProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	tr := filepath.Join(dir, "trace.out")
	if err := run([]string{"-run", "tableI", "-cpuprofile", cpu, "-trace", tr}, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{cpu, tr} {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", f)
		}
	}
	if err := run([]string{"-run", "tableI", "-cpuprofile", filepath.Join(dir, "missing", "cpu.out")}, io.Discard); err == nil {
		t.Fatal("unwritable cpuprofile path accepted")
	}
}

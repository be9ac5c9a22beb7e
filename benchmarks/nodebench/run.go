package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"
)

// setupRepeats is how many times a run prepares the workload; setup_s is
// the median, which keeps one slow allocation or directory sync out of it.
const setupRepeats = 3

// runConfig is one invocation of one workload.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	// workRoot holds the WAL and base-store directories of a run and is
	// emptied behind it; resultsDir receives trace files.
	workRoot   string
	resultsDir string
}

// runOnce prepares the workload, drives the node for cfg.seconds, passes
// the run through the correctness gate and returns its metrics. An error
// means the run must not be reported.
func runOnce(cfg runConfig) (*measurement, error) {
	var n *node
	var tr *tracer
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if n != nil {
			if err := n.close(); err != nil {
				return nil, fmt.Errorf("%s: discard setup: %w", cfg.w.name, err)
			}
		}
		if cfg.trace {
			tr = &tracer{}
		}
		start := time.Now()
		var err error
		n, err = prepare(cfg.w, cfg.seed, cfg.seconds, cfg.workRoot, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: setup: %w", cfg.w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer n.close()
	sort.Float64s(setups)
	setupS := setups[len(setups)/2]

	// The discarded setups are garbage now; collect it before the window
	// opens rather than inside it.
	runtime.GC()

	// A run that has not finished long after its window is stuck; fail it
	// instead of hanging the caller.
	ctx, cancel := context.WithTimeout(context.Background(),
		time.Duration(cfg.seconds*float64(time.Second))+2*time.Minute)
	defer cancel()

	before := readProc()
	n.start(ctx)
	ld := n.offer(ctx, cfg.seconds)
	stop := time.Now()
	if err := n.drain(); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.w.name, err)
	}
	after := readProc()
	if len(n.blocks) == 0 {
		return nil, fmt.Errorf("%s: no block committed", cfg.w.name)
	}

	v, err := verify(n, ld)
	if err != nil {
		return nil, fmt.Errorf("%s: correctness gate: %w", cfg.w.name, err)
	}
	m := measure(n, ld, v, stop, cfg.seconds, setupS, before, after)
	if tr != nil {
		if err := tr.writeSpans(n, ld.first, cfg.resultsDir); err != nil {
			return nil, err
		}
	}
	if err := n.close(); err != nil {
		return nil, fmt.Errorf("%s: close: %w", cfg.w.name, err)
	}
	return m, nil
}

package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestSpeedupWorkedExampleFig1a reproduces the paper's §V-A worked example
// for the block of Figure 1a: five transactions, conflict rate 40%, n ≥ 5
// cores. "The five transactions would first be executed concurrently, which
// can be done in 1 time unit if n ≥ 5. However, the last two transactions
// would need to be rolled back and executed sequentially, which would take 2
// time units. Hence, the new execution time is given by 3 time units, and
// ... the speed-up equals 5/3 or roughly 1.67."
func TestSpeedupWorkedExampleFig1a(t *testing.T) {
	m := MeasureAccountView(Fig1aView())
	for _, n := range []int{5, 8, 16, 64} {
		got, err := SpeculativeSpeedupExact(m.NumTxs, m.SingleRate(), n)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, 5.0/3.0) {
			t.Fatalf("n=%d: speed-up = %v, want 5/3", n, got)
		}
	}
}

// TestSpeedupWorkedExampleFig1b reproduces the §V-A worked example for the
// block of Figure 1b: sixteen transactions, conflict rate 87.5%.
//   - n ≥ 16: phase one takes 1 unit, the sequential phase 14 units;
//     speed-up 16/15 ≈ 1.07.
//   - 8 ≤ n ≤ 15: phase one takes 2 units; speed-up 16/16 = 1.
//   - n < 8: speed-up below 1 (slower than sequential execution).
func TestSpeedupWorkedExampleFig1b(t *testing.T) {
	m := MeasureAccountView(Fig1bView())
	if m.NumTxs != 16 || !almostEqual(m.SingleRate(), 0.875) {
		t.Fatalf("fixture: %+v", m)
	}
	got, err := SpeculativeSpeedupExact(16, 0.875, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 16.0/15.0) {
		t.Fatalf("n=16: %v, want 16/15", got)
	}
	for _, n := range []int{8, 11, 15} {
		got, err := SpeculativeSpeedupExact(16, 0.875, n)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, 1.0) {
			t.Fatalf("n=%d: %v, want 1.0", n, got)
		}
	}
	for _, n := range []int{1, 2, 4, 7} {
		got, err := SpeculativeSpeedupExact(16, 0.875, n)
		if err != nil {
			t.Fatal(err)
		}
		if got >= 1.0 {
			t.Fatalf("n=%d: %v, want < 1 (worse than sequential)", n, got)
		}
	}
}

func TestEquationOneAsPrinted(t *testing.T) {
	// R = x / (⌊x/n⌋ + 1 + c·x), e.g. x=100, c=0.6, n=8:
	// ⌊100/8⌋=12, T' = 12+1+60 = 73, R = 100/73.
	got, err := SpeculativeSpeedup(100, 0.6, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 100.0/73.0) {
		t.Fatalf("R = %v, want 100/73", got)
	}
}

func TestPerfectInfoSpeedup(t *testing.T) {
	// x=100, c=0.6, n=8, K=0: parallel phase ⌊40/8⌋+1 = 6, T' = 66.
	got, err := PerfectInfoSpeedup(100, 0.6, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 100.0/66.0) {
		t.Fatalf("R = %v, want 100/66", got)
	}
	// Preprocessing cost eats into the gain.
	withK, err := PerfectInfoSpeedup(100, 0.6, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	if withK >= got {
		t.Fatalf("K should reduce the speed-up: %v >= %v", withK, got)
	}
	// Perfect information never loses to blind speculation (same x, c, n,
	// K=0): it executes strictly fewer transactions in phase one.
	blind, err := SpeculativeSpeedup(100, 0.6, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got < blind {
		t.Fatalf("perfect info %v < speculative %v", got, blind)
	}
}

func TestGroupSpeedupEquationTwo(t *testing.T) {
	// Paper §V-C: with the Ethereum group conflict rate around 20%, the
	// model predicts min(n, 5): 4 with 4 cores, 5 with 8, 5 with 64.
	cases := []struct {
		n    int
		l    float64
		want float64
	}{
		{4, 0.2, 4},
		{8, 0.2, 5},
		{64, 0.2, 5},
		{8, 0.5625, 1 / 0.5625}, // Figure 1b block
		{8, 1.0, 1},             // fully sequential block
		{4, 0.0, 4},             // no conflicts: bounded by cores
	}
	for _, tc := range cases {
		got, err := GroupSpeedup(tc.n, tc.l)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, tc.want) {
			t.Fatalf("GroupSpeedup(%d, %v) = %v, want %v", tc.n, tc.l, got, tc.want)
		}
	}
}

func TestGroupSpeedupWithCost(t *testing.T) {
	// K = 0 reduces to min(n, 1/l) for blocks where L ≥ 1.
	got, err := GroupSpeedupWithCost(100, 0.2, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 5.0) {
		t.Fatalf("K=0: %v, want 5", got)
	}
	// The paper: "the difference is negligible if K is small compared to
	// the product of the number of transactions and the execution time per
	// transaction."
	small, err := GroupSpeedupWithCost(10000, 0.2, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(small-5.0) > 0.01 {
		t.Fatalf("small K should be negligible: %v", small)
	}
	// Large K dominates.
	large, err := GroupSpeedupWithCost(100, 0.2, 8, 100)
	if err != nil {
		t.Fatal(err)
	}
	if large > 1 {
		t.Fatalf("large K: %v, want <= 1", large)
	}
}

func TestModelDomainErrors(t *testing.T) {
	if _, err := SpeculativeSpeedup(-1, 0.5, 4); !errors.Is(err, ErrModelDomain) {
		t.Fatalf("negative x: %v", err)
	}
	if _, err := SpeculativeSpeedup(10, 0.5, 0); !errors.Is(err, ErrModelDomain) {
		t.Fatalf("zero cores: %v", err)
	}
	if _, err := SpeculativeSpeedup(10, 1.5, 4); !errors.Is(err, ErrModelDomain) {
		t.Fatalf("rate > 1: %v", err)
	}
	if _, err := SpeculativeSpeedup(10, -0.1, 4); !errors.Is(err, ErrModelDomain) {
		t.Fatalf("rate < 0: %v", err)
	}
	if _, err := PerfectInfoSpeedup(10, 0.5, 4, -1); !errors.Is(err, ErrModelDomain) {
		t.Fatalf("negative K: %v", err)
	}
	if _, err := GroupSpeedup(0, 0.5); !errors.Is(err, ErrModelDomain) {
		t.Fatalf("zero cores group: %v", err)
	}
	if _, err := GroupSpeedupWithCost(10, 0.5, 4, -1); !errors.Is(err, ErrModelDomain) {
		t.Fatalf("negative K group: %v", err)
	}
}

func TestEmptyBlockSpeedups(t *testing.T) {
	for _, f := range []func() (float64, error){
		func() (float64, error) { return SpeculativeSpeedup(0, 0, 4) },
		func() (float64, error) { return SpeculativeSpeedupExact(0, 0, 4) },
		func() (float64, error) { return PerfectInfoSpeedup(0, 0, 4, 1) },
		func() (float64, error) { return GroupSpeedupWithCost(0, 0, 4, 1) },
	} {
		got, err := f()
		if err != nil || got != 1 {
			t.Fatalf("empty block: %v, %v (want 1, nil)", got, err)
		}
	}
}

// TestModelProperties checks structural properties of the model over the
// whole domain:
//   - all estimates are positive;
//   - group speed-up never exceeds n nor 1/l;
//   - the exact speculative estimate is at least the printed equation (1)
//     (⌈x/n⌉ ≤ ⌊x/n⌋+1);
//   - more cores never hurt.
func TestModelProperties(t *testing.T) {
	f := func(xRaw uint16, cRaw uint8, nRaw uint8) bool {
		x := int(xRaw%2000) + 1
		c := float64(cRaw) / 255
		n := int(nRaw%128) + 1

		spec, err := SpeculativeSpeedup(x, c, n)
		if err != nil || spec <= 0 {
			return false
		}
		exact, err := SpeculativeSpeedupExact(x, c, n)
		if err != nil || exact < spec-1e-12 {
			return false
		}
		grp, err := GroupSpeedup(n, c)
		if err != nil || grp <= 0 || grp > float64(n)+1e-12 {
			return false
		}
		if c > 0 && grp > 1/c+1e-12 {
			return false
		}
		// Monotonicity in cores.
		spec2, err := SpeculativeSpeedup(x, c, 2*n)
		if err != nil || spec2 < spec-1e-12 {
			return false
		}
		grp2, err := GroupSpeedup(2*n, c)
		if err != nil || grp2 < grp-1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSpeedupsForBlock(t *testing.T) {
	m := MeasureAccountView(Fig1bView())
	s, err := SpeedupsForBlock(m, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(s.SpeculativeExact, 16.0/15.0) {
		t.Fatalf("exact = %v", s.SpeculativeExact)
	}
	if !almostEqual(s.Group, 16.0/9.0) {
		t.Fatalf("group = %v, want 16/9", s.Group)
	}
	if s.Speculative <= 0 || s.PerfectInfo <= 0 {
		t.Fatalf("speedups = %+v", s)
	}
	if _, err := SpeedupsForBlock(m, 0); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestPipelineSpeedup(t *testing.T) {
	cases := []struct {
		x    int
		c    float64
		n    int
		want float64
	}{
		// Validation hidden behind execution: bound is ⌈x/n⌉.
		{100, 0.1, 8, 100.0 / 13.0},
		// Re-execution dominates: one block per c·x units — better than
		// eq. (1)'s ⌈x/n⌉ + c·x because the phases overlap across blocks.
		{100, 0.5, 8, 2},
		// No conflicts: perfect core scaling.
		{64, 0, 64, 64},
		// Fully conflicted: no worse than sequential.
		{100, 1, 8, 1},
		// Empty block.
		{0, 0.5, 8, 1},
	}
	for _, tc := range cases {
		got, err := PipelineSpeedup(tc.x, tc.c, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, tc.want) {
			t.Fatalf("PipelineSpeedup(%d, %v, %d) = %v, want %v", tc.x, tc.c, tc.n, got, tc.want)
		}
	}
	// The pipeline never loses to the non-overlapped speculative engine.
	for _, c := range []float64{0, 0.1, 0.3, 0.7, 1} {
		for _, n := range []int{2, 8, 64} {
			pipe, err := PipelineSpeedup(200, c, n)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := SpeculativeSpeedupExact(200, c, n)
			if err != nil {
				t.Fatal(err)
			}
			if pipe+1e-9 < spec {
				t.Fatalf("c=%v n=%d: pipeline %v < speculative %v", c, n, pipe, spec)
			}
		}
	}
	if _, err := PipelineSpeedup(10, 1.5, 4); err == nil {
		t.Fatal("rate out of domain accepted")
	}
	if _, err := PipelineSpeedup(10, 0.5, 0); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestShardedSpeedup(t *testing.T) {
	// No cross-shard traffic, one shard: exactly the exact speculative
	// model (phase 2 bin runs on the single shard).
	got, err := ShardedSpeedup(100, 0.3, 0, 8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SpeculativeSpeedupExact(100, 0.3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("s=1 χ=0: %v, want speculative %v", got, want)
	}
	// More shards divide the bin cost: speed-up must be monotonic in s
	// when there is no cross-shard traffic.
	prev := 0.0
	for _, s := range []int{1, 2, 4, 8} {
		r, err := ShardedSpeedup(100, 0.4, 0, 8, s, 1)
		if err != nil {
			t.Fatal(err)
		}
		if r < prev {
			t.Fatalf("s=%d: speed-up %v below s/2 value %v", s, r, prev)
		}
		prev = r
	}
	// A fully aborting cross-shard merge (a=1) is worse than a fully
	// commuting one (a=0).
	abortAll, err := ShardedSpeedup(100, 0.2, 0.8, 8, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	commute, err := ShardedSpeedup(100, 0.2, 0.8, 8, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if abortAll >= commute {
		t.Fatalf("a=1 speed-up %v not below a=0 %v", abortAll, commute)
	}
	// Degenerate and domain cases.
	if r, err := ShardedSpeedup(0, 0.5, 0.5, 8, 4, 1); err != nil || r != 1 {
		t.Fatalf("x=0: %v, %v", r, err)
	}
	for _, bad := range []func() (float64, error){
		func() (float64, error) { return ShardedSpeedup(10, 0.5, -0.1, 8, 4, 1) },
		func() (float64, error) { return ShardedSpeedup(10, 0.5, 1.1, 8, 4, 1) },
		func() (float64, error) { return ShardedSpeedup(10, 0.5, 0.5, 8, 0, 1) },
		func() (float64, error) { return ShardedSpeedup(10, 0.5, 0.5, 8, 4, 2) },
		func() (float64, error) { return ShardedSpeedup(10, 0.5, 0.5, 0, 4, 1) },
	} {
		if _, err := bad(); err == nil {
			t.Fatal("out-of-domain parameters accepted")
		}
	}
}

func TestShardedPipelineSpeedup(t *testing.T) {
	// The pipelined model must dominate the per-block one on every point of
	// a parameter sweep: it hides the cheaper stage and divides the merge
	// tail by the worker count.
	for _, x := range []int{10, 100, 500} {
		for _, c := range []float64{0, 0.2, 0.6} {
			for _, cross := range []float64{0, 0.5, 0.9} {
				for _, a := range []float64{0, 0.3, 1} {
					pipe, err := ShardedPipelineSpeedup(x, c, cross, 8, 4, a)
					if err != nil {
						t.Fatal(err)
					}
					block, err := ShardedSpeedup(x, c, cross, 8, 4, a)
					if err != nil {
						t.Fatal(err)
					}
					if pipe < block-1e-9 {
						t.Fatalf("x=%d c=%v χ=%v a=%v: pipelined %v below per-block %v",
							x, c, cross, a, pipe, block)
					}
					if pipe > 8+1e-9 {
						t.Fatalf("x=%d c=%v χ=%v a=%v: pipelined %v exceeds core count", x, c, cross, a, pipe)
					}
				}
			}
		}
	}
	// Conflict-free steady state saturates the cores.
	if r, err := ShardedPipelineSpeedup(800, 0, 0, 8, 4, 0); err != nil || math.Abs(r-8) > 1e-9 {
		t.Fatalf("conflict-free: %v, %v (want 8)", r, err)
	}
	// With everything aborting (χ=1, a=1) the merge term a·χ·x/n equals the
	// spread, so the pipeline still completes a block every x/n units.
	if r, err := ShardedPipelineSpeedup(800, 0, 1, 8, 4, 1); err != nil || math.Abs(r-8) > 1e-9 {
		t.Fatalf("all-abort parallel merge: %v, %v (want 8)", r, err)
	}
	// Degenerate and domain cases.
	if r, err := ShardedPipelineSpeedup(0, 0.5, 0.5, 8, 4, 1); err != nil || r != 1 {
		t.Fatalf("x=0: %v, %v", r, err)
	}
	for _, bad := range []func() (float64, error){
		func() (float64, error) { return ShardedPipelineSpeedup(10, 0.5, -0.1, 8, 4, 1) },
		func() (float64, error) { return ShardedPipelineSpeedup(10, 0.5, 1.1, 8, 4, 1) },
		func() (float64, error) { return ShardedPipelineSpeedup(10, 0.5, 0.5, 8, 0, 1) },
		func() (float64, error) { return ShardedPipelineSpeedup(10, 0.5, 0.5, 8, 4, 2) },
		func() (float64, error) { return ShardedPipelineSpeedup(10, 0.5, 0.5, 0, 4, 1) },
		func() (float64, error) { return ShardedPipelineSpeedup(10, 1.5, 0.5, 8, 4, 1) },
	} {
		if _, err := bad(); err == nil {
			t.Fatal("out-of-domain parameters accepted")
		}
	}
}

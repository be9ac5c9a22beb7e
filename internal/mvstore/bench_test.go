package mvstore

import "testing"

// BenchmarkMVStoreGCSteady is the epoch collector's steady state under
// operation-level balance deltas: 30k idle delta-headed keys — every
// account a run has ever credited — then per op one block of 1k delta
// writes and one GC pass three blocks behind the tip, the pipeline's lag.
// A pass should cost the block's installs, not the idle keys.
func BenchmarkMVStoreGCSteady(b *testing.B) {
	const idle, block, lag = 30_000, 1_000, 3
	b.ReportAllocs()
	s := NewStoreDelta[uint64, int64](addI64)
	credit := func(ts uint64, keys map[uint64]Write[int64]) {
		if err := s.CommitWrites(ts, keys); err != nil {
			b.Fatal(err)
		}
	}
	all := make(map[uint64]Write[int64], idle)
	for k := uint64(0); k < idle; k++ {
		all[k] = Write[int64]{Kind: DeltaAdd, Val: 1}
	}
	// Two deltas per key: every chain is delta-headed and was superseded.
	credit(1, all)
	credit(2, all)
	s.TruncateBelow(2)

	writes := make(map[uint64]Write[int64], block)
	ts, k := uint64(2), uint64(0)
	for b.Loop() {
		ts++
		clear(writes)
		for i := 0; i < block; i++ {
			writes[k%idle] = Write[int64]{Kind: DeltaAdd, Val: 1}
			k++
		}
		credit(ts, writes)
		s.TruncateBelow(ts - lag)
	}
}

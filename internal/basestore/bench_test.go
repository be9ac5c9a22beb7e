package basestore_test

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"txconcur/internal/basestore"
	"txconcur/internal/wal"
)

// benchKey is a state-key-sized (26-byte) key for id.
func benchKey(id int) []byte {
	k := make([]byte, basestore.KeySize)
	binary.BigEndian.PutUint64(k[basestore.KeySize-8:], uint64(id))
	return k
}

// benchStore opens a store on fsys holding keys 0..n-1 in one generation,
// the shape a long-running bounded chain converges to: one large old
// table under a stack of eviction-sized ones.
func benchStore(b *testing.B, fsys basestore.FS, dir string, n int) *basestore.Store {
	b.Helper()
	s, err := basestore.OpenStore(fsys, dir)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	base := make([]basestore.Entry, n)
	for i := range base {
		base[i] = basestore.Entry{Key: benchKey(i), Val: basestore.EncodeU64(uint64(i))}
	}
	if err := s.Apply(base); err != nil {
		b.Fatal(err)
	}
	return s
}

// benchBatch draws a batch of distinct-ish keys from the store's key space.
func benchBatch(rng *rand.Rand, keys, size int, round uint64) []basestore.Entry {
	batch := make([]basestore.Entry, size)
	for i := range batch {
		batch[i] = basestore.Entry{Key: benchKey(rng.Intn(keys)), Val: basestore.EncodeU64(round)}
	}
	return batch
}

// benchFS runs fn against the syscall-free MemFS (the CPU cost of the
// write path alone) and the real filesystem (what the committer pays).
func benchFS(b *testing.B, fn func(b *testing.B, fsys basestore.FS, dir string)) {
	b.Run("MemFS", func(b *testing.B) { fn(b, wal.NewMemFS(), "base") })
	b.Run("OS", func(b *testing.B) { fn(b, basestore.OS{}, b.TempDir()) })
}

// BenchmarkStoreApplySteadyState is the eviction persist point as
// bounded-wide drives it: 640-entry batches into a 60k-key store, automatic
// merges included, so ns/op is the amortised cost of one durable Apply.
func BenchmarkStoreApplySteadyState(b *testing.B) {
	const keys, batch, warm = 60_000, 640, 64
	benchFS(b, func(b *testing.B, fsys basestore.FS, dir string) {
		s := benchStore(b, fsys, dir, keys)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < warm; i++ { // reach the steady-state generation shape
			if err := s.Apply(benchBatch(rng, keys, batch, uint64(i))); err != nil {
				b.Fatal(err)
			}
		}
		batches := make([][]basestore.Entry, b.N)
		for i := range batches {
			batches[i] = benchBatch(rng, keys, batch, uint64(warm+i))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for _, batch := range batches {
			if err := s.Apply(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStoreCompact is the explicit full fold: a 60k-key table under
// eight 640-entry generations streamed into one.
func BenchmarkStoreCompact(b *testing.B) {
	const keys, batch = 60_000, 640
	benchFS(b, func(b *testing.B, fsys basestore.FS, dir string) {
		s := benchStore(b, fsys, dir, keys)
		rng := rand.New(rand.NewSource(1))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for s.Stats().Generations < 8 {
				if err := s.Apply(benchBatch(rng, keys, batch, uint64(i))); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			if err := s.Compact(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Package micro holds per-primitive microbenchmarks of the layers nodebench
// measures end to end. They go through public APIs only and gate nothing:
// they give later issues an ns/op and allocs/op to cite per primitive.
//
//	go test -run '^$' -bench . -benchmem ./micro
package micro

import (
	"path/filepath"
	"testing"

	"txconcur/internal/account"
	"txconcur/internal/basestore"
	"txconcur/internal/chainsim"
	"txconcur/internal/dataset"
	"txconcur/internal/mempool"
	"txconcur/internal/mvstore"
	"txconcur/internal/types"
	"txconcur/internal/wal"
)

const microSeed = 1

// transfers returns a pre-state and n Shard Uniform transfers in an order
// that applies cleanly.
func transfers(tb testing.TB, n int) (*account.StateDB, []*account.Transaction) {
	tb.Helper()
	g, err := chainsim.NewAcctGen(chainsim.ShardUniformProfile(), n, microSeed)
	if err != nil {
		tb.Fatal(err)
	}
	pre := g.Chain().State().Copy()
	var txs []*account.Transaction
	for len(txs) < n {
		blk, _, ok, err := g.Next()
		if err != nil || !ok {
			tb.Fatalf("generate transfers: ok=%v err=%v", ok, err)
		}
		txs = append(txs, blk.Txs...)
	}
	return pre, txs[:n]
}

// addBalances is the merge function of a delta-capable store of balances.
func addBalances(onto, delta int64) int64 { return onto + delta }

const mvKeys = 4096

// BenchmarkMVStoreCommit commits one 256-key mixed write set per
// iteration, the shape of one block's writes on one shard.
func BenchmarkMVStoreCommit(b *testing.B) {
	b.ReportAllocs()
	s := mvstore.NewStoreDelta[uint64, int64](addBalances)
	writes := make(map[uint64]mvstore.Write[int64], 256)
	for ts := uint64(1); b.Loop(); ts++ {
		clear(writes)
		for k := uint64(0); k < 256; k++ {
			kind := mvstore.Put
			if k%2 == 1 {
				kind = mvstore.DeltaAdd
			}
			writes[(ts*256+k)%mvKeys] = mvstore.Write[int64]{Kind: kind, Val: int64(k)}
		}
		if err := s.CommitWrites(ts, writes); err != nil {
			b.Fatal(err)
		}
		if ts > 4 {
			s.TruncateBelow(ts - 3)
		}
	}
}

// mvFilled returns a store with depth versions on every key, alternating
// absolute and delta writes.
func mvFilled(tb testing.TB, depth uint64) *mvstore.Store[uint64, int64] {
	tb.Helper()
	s := mvstore.NewStoreDelta[uint64, int64](addBalances)
	writes := make(map[uint64]mvstore.Write[int64], mvKeys)
	for ts := uint64(1); ts <= depth; ts++ {
		for k := uint64(0); k < mvKeys; k++ {
			kind := mvstore.DeltaAdd
			if ts == 1 {
				kind = mvstore.Put
			}
			writes[k] = mvstore.Write[int64]{Kind: kind, Val: int64(ts)}
		}
		if err := s.CommitWrites(ts, writes); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

var sinkInt64 int64

// BenchmarkMVStoreResolve reads one key through a chain of one anchor and
// three deltas.
func BenchmarkMVStoreResolve(b *testing.B) {
	b.ReportAllocs()
	s := mvFilled(b, 4)
	k := uint64(0)
	for b.Loop() {
		sinkInt64 = s.Resolve(k%mvKeys, 4, 0)
		k++
	}
}

// BenchmarkMVStoreGC truncates a store of 4096 keys, eight versions deep,
// down to its newest two; refilling is not timed. (A b.N loop, like
// benchApply: with go1.24.0, stopping the timer inside b.Loop never ends.)
func BenchmarkMVStoreGC(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := mvFilled(b, 8)
		b.StartTimer()
		s.TruncateBelow(7)
	}
}

// BenchmarkWALAppendMemFS appends a 256-transfer block to a log on the
// in-memory filesystem: the pure encode-and-frame cost, no device.
func BenchmarkWALAppendMemFS(b *testing.B) {
	b.ReportAllocs()
	_, txs := transfers(b, 256)
	blk := &account.Block{Coinbase: types.AddressFromUint64("micro/miner", 1), Txs: txs}
	log, _, err := wal.OpenLog(wal.NewMemFS(), "wal/"+wal.LogName, wal.SyncEachRecord)
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	for b.Loop() {
		if _, err := log.Append(blk); err != nil {
			b.Fatal(err)
		}
	}
}

// baseEntries returns n balance entries with distinct addresses.
func baseEntries(n, round int) []basestore.Entry {
	out := make([]basestore.Entry, n)
	for i := range out {
		addr := types.AddressFromUint64("micro/acct", uint64(i))
		out[i] = basestore.Entry{
			Key: basestore.EncodeKey(addr, basestore.KindBalance, 0),
			Val: basestore.EncodeU64(uint64(i + round)),
		}
	}
	return out
}

var sinkBytes []byte

// BenchmarkBaseStoreGet reads one of 30000 keys from a single-generation
// store on the real filesystem (the operating system's cache serves it).
func BenchmarkBaseStoreGet(b *testing.B) {
	b.ReportAllocs()
	s, err := basestore.OpenStore(basestore.OS{}, filepath.Join(b.TempDir(), "base"))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	entries := baseEntries(30000, 0)
	if err := s.Apply(entries); err != nil {
		b.Fatal(err)
	}
	i := 0
	for b.Loop() {
		v, ok, err := s.Get(entries[i%len(entries)].Key)
		if err != nil || !ok {
			b.Fatalf("get: ok=%v err=%v", ok, err)
		}
		sinkBytes = v
		i += 7919
	}
}

// BenchmarkBaseStoreApply writes one 300-key eviction batch as a new
// durable generation (temp file, fsync, rename, directory fsync).
func BenchmarkBaseStoreApply(b *testing.B) {
	b.ReportAllocs()
	s, err := basestore.OpenStore(basestore.OS{}, filepath.Join(b.TempDir(), "base"))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	round := 0
	for b.Loop() {
		if err := s.Apply(baseEntries(300, round)); err != nil {
			b.Fatal(err)
		}
		round++
	}
}

var sinkInts []int

func benchPack(b *testing.B, p mempool.Packer) {
	b.ReportAllocs()
	_, txs := transfers(b, 4096)
	pending := make([]*mempool.Pending, len(txs))
	for i, tx := range txs {
		pending[i] = mempool.PredictTransfer(tx)
	}
	cfg := mempool.PackConfig{MaxTxs: 256, HotKeyCap: 32}
	for b.Loop() {
		sinkInts = p.Pack(pending, cfg)
	}
}

// BenchmarkPackFIFO and BenchmarkPackConflictAware pick a 256-transaction
// block out of 4096 pending transfers, a full pool.
func BenchmarkPackFIFO(b *testing.B)          { benchPack(b, mempool.FIFO{}) }
func BenchmarkPackConflictAware(b *testing.B) { benchPack(b, mempool.ConflictAware{}) }

// benchApply applies txs in order on a copy of pre, starting over on a
// fresh copy when they run out; the copy is not timed.
func benchApply(b *testing.B, pre *account.StateDB, blk *account.Block) {
	b.ReportAllocs()
	proc := account.Processor{DeferCoinbase: true}
	st, i := pre.Copy(), 0
	for n := 0; n < b.N; n++ {
		if i == len(blk.Txs) {
			b.StopTimer()
			st, i = pre.Copy(), 0
			b.StartTimer()
		}
		if _, err := proc.ApplyTransaction(st, blk, blk.Txs[i]); err != nil {
			b.Fatal(err)
		}
		i++
	}
}

// BenchmarkApplyTransfer applies one plain value transfer.
func BenchmarkApplyTransfer(b *testing.B) {
	pre, txs := transfers(b, 50000)
	benchApply(b, pre, &account.Block{Coinbase: types.AddressFromUint64("micro/miner", 1), Txs: txs})
}

// BenchmarkApplyERC20Call applies one compiled ERC20-trace script call
// (a few VM calls into cell contracts).
func BenchmarkApplyERC20Call(b *testing.B) {
	tr, err := dataset.GenerateERC20Trace(dataset.ERC20TraceConfig{
		Blocks: 40, TxPerBlock: 256, Tokens: 8, Holders: 4096, Users: 2048, Seed: microSeed,
	})
	if err != nil {
		b.Fatal(err)
	}
	rc, err := dataset.BuildReplayChain(tr)
	if err != nil {
		b.Fatal(err)
	}
	blk := &account.Block{Coinbase: rc.Blocks[0].Coinbase, Time: rc.Blocks[0].Time}
	for _, src := range rc.Blocks {
		blk.Txs = append(blk.Txs, src.Txs...)
	}
	benchApply(b, rc.Pre, blk)
}

package core

import (
	"hash/fnv"
	"testing"

	"txconcur/internal/types"
)

func TestShardOf(t *testing.T) {
	a := addr("shard", 1)
	if ShardOf(a, 1) != 0 || ShardOf(a, 0) != 0 {
		t.Fatal("single shard must map to 0")
	}
	// Deterministic and in range.
	for n := 2; n <= 16; n *= 2 {
		s1 := ShardOf(a, n)
		s2 := ShardOf(a, n)
		if s1 != s2 {
			t.Fatal("not deterministic")
		}
		if s1 < 0 || s1 >= n {
			t.Fatalf("shard %d out of range for n=%d", s1, n)
		}
	}
	// Roughly uniform over many addresses.
	const n = 4
	counts := make([]int, n)
	for i := uint64(0); i < 4000; i++ {
		counts[ShardOf(addr("uniform", i), n)]++
	}
	for s, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("shard %d has %d of 4000 addresses (poor balance)", s, c)
		}
	}
}

// TestStaticShardMapMatchesShardOf pins the static assignment the sharded
// engine partitions its state by: ShardOf is FNV-1a over the full address,
// reduced mod n, for power-of-two and other counts alike, and a
// non-positive count clamps to the single shard 0.
func TestStaticShardMapMatchesShardOf(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 16} {
		for i := uint64(0); i < 500; i++ {
			a := addr("shardmap/static", i)
			h := fnv.New64a()
			h.Write(a[:])
			want := int(h.Sum64() % uint64(n))
			if got := ShardOf(a, n); got != want {
				t.Fatalf("n=%d: ShardOf(%v) = %d, want FNV-1a shard %d", n, a, got, want)
			}
		}
	}
	a := addr("shardmap/static", 1)
	if ShardOf(a, 0) != 0 || ShardOf(a, -3) != 0 {
		t.Fatal("non-positive shard count did not clamp to shard 0")
	}
}

// TestShardOfStructuredAddresses is a regression test for the leading-bits
// assignment bug: ShardOf used to reduce uint64(first 8 bytes) % n, so any
// address family with constant leading bytes — counter-style addresses with
// the index in the low bytes, zero-padded fixture addresses — collapsed
// onto a single shard, and non-power-of-two n inherited whatever bias the
// leading bytes carried. Hashing the full address must spread them.
func TestShardOfStructuredAddresses(t *testing.T) {
	families := map[string]func(i uint64) types.Address{
		// Counter in the trailing bytes, leading 12 bytes all zero: the old
		// code mapped every one of these to shard 0.
		"low-entropy-tail": func(i uint64) types.Address {
			var a types.Address
			a[19] = byte(i)
			a[18] = byte(i >> 8)
			a[17] = byte(i >> 16)
			return a
		},
		// Shared prefix with a small suffix counter (vanity/contract-factory
		// style).
		"shared-prefix": func(i uint64) types.Address {
			a := addr("factory", 7)
			a[19] = byte(i)
			a[18] = byte(i >> 8)
			return a
		},
	}
	for name, mk := range families {
		for _, n := range []int{2, 3, 4, 5, 8, 16} {
			counts := make([]int, n)
			const total = 3000
			for i := uint64(0); i < total; i++ {
				counts[ShardOf(mk(i), n)]++
			}
			want := total / n
			for s, c := range counts {
				if c < want/2 || c > want*2 {
					t.Errorf("%s n=%d: shard %d has %d of %d addresses (want ~%d)",
						name, n, s, c, total, want)
				}
			}
		}
	}
}

// TestShardOfChainsimGenerators checks shard balance over the address
// families the chainsim generators actually mint (types.AddressFromUint64
// with role-tagged domains), including non-power-of-two shard counts.
func TestShardOfChainsimGenerators(t *testing.T) {
	for _, tag := range []string{"user/Ethereum", "exchange/Zilliqa", "contract/Shard Cross-Heavy", "hot/Shard Hot-Shard"} {
		for _, n := range []int{2, 3, 4, 7, 8} {
			counts := make([]int, n)
			const total = 2100
			for i := uint64(0); i < total; i++ {
				counts[ShardOf(types.AddressFromUint64(tag, i), n)]++
			}
			want := total / n
			for s, c := range counts {
				if c < want*2/3 || c > want*3/2 {
					t.Errorf("tag %q n=%d: shard %d has %d of %d (want ~%d)", tag, n, s, c, total, want)
				}
			}
		}
	}
}

// shardFixture builds a view with controlled shard placement: it searches
// for addresses landing on the desired shards.
func addrOnShard(t *testing.T, tag string, want, n int) types.Address {
	t.Helper()
	for i := uint64(0); i < 10_000; i++ {
		a := addr(tag, i)
		if ShardOf(a, n) == want {
			return a
		}
	}
	t.Fatalf("no address found on shard %d/%d", want, n)
	return types.Address{}
}

func TestShardAccountView(t *testing.T) {
	const n = 2
	s0a := addrOnShard(t, "s0a", 0, n)
	s0b := addrOnShard(t, "s0b", 0, n)
	s0c := addrOnShard(t, "s0c", 0, n)
	s1a := addrOnShard(t, "s1a", 1, n)
	s1b := addrOnShard(t, "s1b", 1, n)

	v := &AccountBlockView{
		Regular: []AccountEdge{
			{From: s0a, To: s0b}, // intra shard 0
			{From: s0c, To: s0b}, // intra shard 0, conflicts with tx 0 via s0b
			{From: s1a, To: s1b}, // intra shard 1
			{From: s0a, To: s1b}, // cross-shard
		},
	}
	rep := ShardAccountView(v, nil, n)
	if rep.Txs != 4 {
		t.Fatalf("txs = %d", rep.Txs)
	}
	if rep.CrossShard != 1 {
		t.Fatalf("cross = %d, want 1", rep.CrossShard)
	}
	if rep.CrossRate() != 0.25 {
		t.Fatalf("cross rate = %v", rep.CrossRate())
	}
	intra := rep.IntraShardMetrics()
	if intra.NumTxs != 3 {
		t.Fatalf("intra txs = %d", intra.NumTxs)
	}
	// Shard 0: two txs sharing s0b -> both conflicted; shard 1: one
	// unconflicted tx.
	if intra.Conflicted != 2 {
		t.Fatalf("intra conflicted = %d, want 2", intra.Conflicted)
	}
	if intra.LCC != 2 {
		t.Fatalf("intra LCC = %d, want 2", intra.LCC)
	}
}

func TestShardAccountViewInternalCross(t *testing.T) {
	const n = 2
	sender := addrOnShard(t, "ic-s", 0, n)
	contract := addrOnShard(t, "ic-c", 0, n)
	token := addrOnShard(t, "ic-t", 1, n)

	v := &AccountBlockView{
		Regular: []AccountEdge{{From: sender, To: contract}},
	}
	// The contract internally calls a token on the other shard: the
	// transaction is cross-shard even though the top-level edge is local.
	internal := [][]AccountEdge{{{From: contract, To: token}}}
	rep := ShardAccountView(v, internal, n)
	if rep.CrossShard != 1 {
		t.Fatalf("internal cross-shard call not detected: %+v", rep)
	}
	// Without the internal edge it is intra-shard.
	rep = ShardAccountView(v, nil, n)
	if rep.CrossShard != 0 {
		t.Fatalf("false cross-shard: %+v", rep)
	}
}

func TestShardAccountViewEmpty(t *testing.T) {
	rep := ShardAccountView(&AccountBlockView{}, nil, 4)
	if rep.CrossRate() != 0 || rep.Txs != 0 {
		t.Fatalf("empty report = %+v", rep)
	}
	if m := rep.IntraShardMetrics(); m.NumTxs != 0 {
		t.Fatalf("empty intra metrics = %+v", m)
	}
}

func TestCensus(t *testing.T) {
	// Figure 1a: 3 singletons + 1 component of size 2.
	tdg := BuildAccount(Fig1aView())
	c := tdg.Census()
	if c.Singleton != 3 || c.Small != 1 || c.Medium != 0 || c.Large != 0 {
		t.Fatalf("fig1a census = %+v", c)
	}
	if c.TxsSingleton != 3 || c.TxsSmall != 2 {
		t.Fatalf("fig1a tx census = %+v", c)
	}
	// Figure 1b: components of sizes 1,9,3,2,1 -> 2 singletons, 2 small
	// (3 and 2), 1 medium (9).
	tdg = BuildAccount(Fig1bView())
	c = tdg.Census()
	if c.Singleton != 2 || c.Small != 2 || c.Medium != 1 || c.Large != 0 {
		t.Fatalf("fig1b census = %+v", c)
	}
	if c.TxsMedium != 9 {
		t.Fatalf("fig1b medium txs = %d", c.TxsMedium)
	}
	// Accumulation.
	var total ComponentCensus
	total.Add(BuildAccount(Fig1aView()).Census())
	total.Add(c)
	if total.Singleton != 5 || total.TxsMedium != 9 {
		t.Fatalf("accumulated census = %+v", total)
	}
}

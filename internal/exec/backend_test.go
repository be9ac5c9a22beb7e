package exec

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"txconcur/internal/account"
	"txconcur/internal/basestore"
	"txconcur/internal/chainsim"
	"txconcur/internal/core"
	"txconcur/internal/exec/testutil"
	"txconcur/internal/mvstore"
	"txconcur/internal/types"
	"txconcur/internal/wal"
)

// quickBudget maps a generated byte onto the budget spectrum the property
// must hold across: evict-everything, tiny, moderate, and effectively
// infinite (no eviction ever — the all-RAM control in disguise).
func quickBudget(sel uint8) int {
	switch sel % 4 {
	case 0:
		return 0
	case 1:
		return 2
	case 2:
		return 8
	default:
		return math.MaxInt32
	}
}

// readThrough mirrors snapState's per-kind read path: resolve through the
// version cache at ts, falling back to the base (pre-chain state, or the
// backed read-through view) exactly as the speculative executors do.
func readThrough(mv *mvstore.Store[StateKey, stateVal], bs baseState, k StateKey, ts uint64) string {
	switch k.Kind {
	case kindBalance:
		return fmt.Sprint(mv.Resolve(k, ts, stateVal{i64: bs.GetBalance(k.Addr)}).i64)
	case kindNonce:
		if v, ok := mv.Get(k, ts); ok {
			return fmt.Sprint(v.u64)
		}
		return fmt.Sprint(bs.GetNonce(k.Addr))
	case kindCode:
		if v, ok := mv.Get(k, ts); ok {
			return string(v.bytes)
		}
		return string(bs.GetCode(k.Addr))
	default:
		if v, ok := mv.Get(k, ts); ok {
			return fmt.Sprint(v.u64)
		}
		return fmt.Sprint(bs.GetStorage(k.Addr, k.Slot))
	}
}

// TestBoundedBackendQuickEquivalence is the cache-bounding correctness
// property, checked over random op sequences, cache budgets (including
// budget 0 and budget ∞) and one or two shards: per-shard version caches
// that evict cold keys into a disk backend through the chain drivers'
// evictShards and read through to it must be observationally identical to
// one pure in-RAM cache — same per-key reads at every step, same final
// fold (finishChain's), same root.
func TestBoundedBackendQuickEquivalence(t *testing.T) {
	const nAddr, depth, steps = 10, 2, 24
	addrs := make([]types.Address, nAddr)
	for i := range addrs {
		addrs[i][0] = byte(i + 1)
	}
	pre := account.NewStateDB()
	for i, a := range addrs {
		pre.AddBalance(a, int64(1000+100*i))
		pre.SetNonce(a, uint64(i%3))
		if i%4 == 0 {
			pre.SetCode(a, []byte{byte(i), 0x01})
		}
		pre.SetStorage(a, uint64(i%2), uint64(10*i))
	}
	pre.DiscardJournal()

	property := func(seed int64, budgetSel, shardSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		budget := quickBudget(budgetSel)
		shards := 1 + int(shardSel%2)
		mvC := mvstore.NewStoreDelta[StateKey, stateVal](mergeStateVal)
		store, err := basestore.OpenStore(wal.NewMemFS(), "base")
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		e := Sharded{Workers: 1, Shards: shards, Backend: store, CacheBudget: budget}
		c := e.newShardedChain(pre.Copy())

		randKey := func() StateKey {
			a := addrs[rng.Intn(nAddr)]
			switch rng.Intn(4) {
			case 0:
				return StateKey{Kind: kindBalance, Addr: a}
			case 1:
				return StateKey{Kind: kindNonce, Addr: a}
			case 2:
				return StateKey{Kind: kindCode, Addr: a}
			default:
				return StateKey{Kind: kindStorage, Addr: a, Slot: uint64(rng.Intn(3))}
			}
		}
		for ts := uint64(1); ts <= steps; ts++ {
			writes := make(map[StateKey]mvstore.Write[stateVal])
			for n := rng.Intn(5); n > 0; n-- {
				k := randKey()
				switch k.Kind {
				case kindBalance:
					if rng.Intn(2) == 0 {
						writes[k] = mvstore.Write[stateVal]{Kind: mvstore.DeltaAdd, Val: stateVal{i64: int64(rng.Intn(21) - 10)}}
					} else {
						writes[k] = mvstore.Write[stateVal]{Kind: mvstore.Put, Val: stateVal{i64: int64(rng.Intn(5000))}}
					}
				case kindNonce, kindStorage:
					writes[k] = mvstore.Write[stateVal]{Kind: mvstore.Put, Val: stateVal{u64: uint64(rng.Intn(50))}}
				case kindCode:
					writes[k] = mvstore.Write[stateVal]{Kind: mvstore.Put, Val: stateVal{bytes: []byte{byte(rng.Intn(256))}}}
				}
			}
			if err := mvC.CommitWrites(ts, writes); err != nil {
				t.Fatal(err)
			}
			// Every shard commits at every timestamp, as the chain drivers do.
			parts := make([]map[StateKey]mvstore.Write[stateVal], shards)
			for sh := range parts {
				parts[sh] = make(map[StateKey]mvstore.Write[stateVal])
			}
			for k, w := range writes {
				parts[core.ShardOf(k.Addr, shards)][k] = w
			}
			for sh, mv := range c.mvs {
				if err := mv.CommitWrites(ts, parts[sh]); err != nil {
					t.Fatal(err)
				}
			}
			// Random reads after every commit — these also exercise the
			// clock bits, so eviction interleaves with second chances.
			for n := rng.Intn(6); n > 0; n-- {
				k := randKey()
				if got, want := readThrough(c.mvs[core.ShardOf(k.Addr, shards)], c.bs, k, ts), readThrough(mvC, pre, k, ts); got != want {
					t.Logf("seed %d budget %d shards %d ts %d key %+v: bounded read %q, control %q",
						seed, budget, shards, ts, k, got, want)
					return false
				}
			}
			if ts > depth+1 {
				horizon := ts - depth - 1
				mvC.TruncateBelow(horizon)
				for _, mv := range c.mvs {
					mv.TruncateBelow(horizon)
				}
				if _, err := c.evictShards(horizon); err != nil {
					t.Fatal(err)
				}
			}
		}
		cr, _, err := e.finishChain(c, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		stC := pre.Copy()
		mvC.RangeLatestResolved(foldResolvedInto(stC))
		stC.DiscardJournal()
		if cr.Root != stC.Root() {
			t.Logf("seed %d budget %d shards %d: bounded root %s, control %s",
				seed, budget, shards, cr.Root.Short(), stC.Root().Short())
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// boundedStore opens a fresh MemFS-backed base store for one engine run.
func boundedStore(t *testing.T) *basestore.Store {
	t.Helper()
	s, err := basestore.OpenStore(wal.NewMemFS(), "base")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// withBackend returns a copy of the engine with the backend set — keeps
// the bounded row of TestShardedSerialEquivalenceAllProfiles readable.
func (e Sharded) withBackend(be StateBackend) Sharded {
	e.Backend = be
	return e
}

// TestBoundedChainOnDisk: the bounded sharded chain over a basestore.Store
// on the OS filesystem, on a wide population whose skewed active set keeps
// faulting different cold accounts, with the caches at 1/100 of the
// accounts. Keys must be evicted to disk and read back from it, the store
// must hold them at the end, and the root and receipts must match the
// sequential replay.
func TestBoundedChainOnDisk(t *testing.T) {
	const users, shards = 4000, 4
	p := chainsim.Profile{
		Name: "Memory Bounded", Model: chainsim.Account, Consensus: "PoW",
		DataSource: "Synthetic", LaunchYear: 2020,
		Eras: []chainsim.Era{
			{Name: "wide", Weight: 1, StartTime: 1577836800, BlockInterval: 15,
				TxPerBlock: 150, TxPerBlockJitter: 0.3, Users: users,
				ActiveFrac: 2.5, HotSenderFrac: 0.6, HotSenders: 4},
		},
	}
	pre, blocks, err := chainsim.GenerateAccountChain(p, 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	seq := testutil.ReplaySequential(t, pre, blocks)
	store, err := basestore.OpenStore(basestore.OS{}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	e := Sharded{Workers: 8, Shards: shards, Depth: 2, OpLevel: true, Backend: store, CacheBudget: users / 100 / shards}
	cr, css, err := e.ExecuteChain(pre.Copy(), blocks)
	if err != nil {
		t.Fatal(err)
	}
	seq.RequireChain(t, p.Name, cr.Root, cr.Receipts)
	if css.Evicted == 0 || css.ColdReads == 0 {
		t.Fatalf("evicted %d, cold reads %d: the budget never bound", css.Evicted, css.ColdReads)
	}
	st := store.Stats()
	if st.IndexedKeys == 0 {
		t.Fatalf("base store holds no keys after %d evictions", css.Evicted)
	}
	t.Logf("evicted %d chains, %d cold reads, %d base keys in %d generations",
		css.Evicted, css.ColdReads, st.IndexedKeys, st.Generations)
}

// faultyBackend is an in-memory StateBackend whose Get or Apply can be
// made to fail, for error-propagation tests.
type faultyBackend struct {
	mu        sync.Mutex
	data      map[string][]byte
	failGet   error
	failApply error
}

func newFaultyBackend() *faultyBackend {
	return &faultyBackend{data: make(map[string][]byte)}
}

func (f *faultyBackend) Get(key []byte) ([]byte, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failGet != nil {
		return nil, false, f.failGet
	}
	v, ok := f.data[string(key)]
	return v, ok, nil
}

func (f *faultyBackend) Apply(entries []basestore.Entry) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failApply != nil {
		return f.failApply
	}
	for _, e := range entries {
		f.data[string(e.Key)] = append([]byte(nil), e.Val...)
	}
	return nil
}

func (f *faultyBackend) Range(fn func(key string, val []byte) bool) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for k, v := range f.data {
		if !fn(k, v) {
			return nil
		}
	}
	return nil
}

// TestBoundedChainBackendErrorPropagates: a backend that fails its reads
// or its eviction writes must abort the chain — batch and streamed — with a
// visible error: the latched-read fallback is never allowed to become a
// committed result.
func TestBoundedChainBackendErrorPropagates(t *testing.T) {
	pre, blocks, err := chainsim.GenerateAccountChain(chainsim.ShardUniformProfile(), 6, 11)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("backend boom")
	for _, tc := range []struct {
		name string
		set  func(*faultyBackend)
	}{
		{"get", func(f *faultyBackend) { f.failGet = boom }},
		{"apply", func(f *faultyBackend) { f.failApply = boom }},
	} {
		fb := newFaultyBackend()
		tc.set(fb)
		e := Sharded{Workers: 4, Shards: 2, Depth: 2, Backend: fb, CacheBudget: 0}
		if _, _, err := e.ExecuteChain(pre.Copy(), blocks); !errors.Is(err, boom) {
			t.Fatalf("batch %s fault: err = %v, want the injected failure", tc.name, err)
		}
		fb = newFaultyBackend()
		tc.set(fb)
		e.Backend = fb
		// Buffered and closed up front: the aborted stream stops reading,
		// and no feeder goroutine is left blocked on a send.
		ch := make(chan *account.Block, len(blocks))
		for _, b := range blocks {
			ch <- b
		}
		close(ch)
		if _, _, err := e.ExecuteChainStream(pre.Copy(), ch, nil); !errors.Is(err, boom) {
			t.Fatalf("stream %s fault: err = %v, want the injected failure", tc.name, err)
		}
	}
}

// TestStreamChainBackendErrorWithOpenChannel: a backend fault that hits
// while the block channel is still open — unbuffered, never closed, its
// producer still running — must abort the stream with the injected error
// within a deadline. Two producers: one that keeps offering blocks, and
// one that stalls after the blocks the fault needs (one for a read fault,
// four for an eviction fault at depth 2), so the speculative stage is
// parked on the channel read when the committer aborts and only the
// read's quit arm lets it exit.
func TestStreamChainBackendErrorWithOpenChannel(t *testing.T) {
	pre, blocks, err := chainsim.GenerateAccountChain(chainsim.ShardUniformProfile(), 6, 11)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("backend boom")
	for _, tc := range []struct {
		name  string
		set   func(*faultyBackend)
		stall int // blocks the stalling producer sends before it stops
	}{
		{"get", func(f *faultyBackend) { f.failGet = boom }, 1},
		{"apply", func(f *faultyBackend) { f.failApply = boom }, 4},
	} {
		for _, stalls := range []bool{false, true} {
			fb := newFaultyBackend()
			tc.set(fb)
			e := Sharded{Workers: 4, Shards: 2, Depth: 2, Backend: fb, CacheBudget: 0}
			ch := make(chan *account.Block)
			stop := make(chan struct{})
			t.Cleanup(func() { close(stop) })
			go func() {
				for i := 0; ; i++ {
					if stalls && i == tc.stall {
						<-stop
						return
					}
					// The flooding producer cycles through the chain.
					select {
					case ch <- blocks[i%len(blocks)]:
					case <-stop:
						return
					}
				}
			}()
			errc := make(chan error, 1)
			go func() {
				_, _, err := e.ExecuteChainStream(pre.Copy(), ch, nil)
				errc <- err
			}()
			select {
			case err := <-errc:
				if !errors.Is(err, boom) {
					t.Errorf("%s fault, stalling=%v: err = %v, want the injected failure", tc.name, stalls, err)
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("%s fault, stalling=%v: the stream did not return with its channel open", tc.name, stalls)
			}
		}
	}
}

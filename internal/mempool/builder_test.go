package mempool

import (
	"context"
	"testing"
	"time"

	"txconcur/internal/account"
	"txconcur/internal/exec"
	"txconcur/internal/exec/testutil"
	"txconcur/internal/types"
)

// buildAll drains a fully-loaded, closed pool through the builder and
// returns the emitted blocks. Because every transaction is already pending
// when Run starts, the block boundaries are a pure function of the packer —
// fully deterministic.
func buildAll(t *testing.T, pre *account.StateDB, subs []*Pending, cfg BuilderConfig) []BuiltBlock {
	t.Helper()
	pool := New(len(subs) + 1)
	for _, s := range subs {
		if err := pool.Submit(context.Background(), s); err != nil {
			t.Fatal(err)
		}
	}
	pool.Close()
	builder := NewBuilder(pool, pre, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out := make(chan BuiltBlock)
	var blocks []BuiltBlock
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for bb := range out {
			blocks = append(blocks, bb)
		}
	}()
	leftovers, err := builder.Run(ctx, out)
	<-collected
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Fatalf("%d transactions left unpackable", len(leftovers))
	}
	return blocks
}

// e2eWorkload builds the fixed-seed end-to-end workload: 40 funded users
// with multi-nonce transfer chains (a mix of hot and cold recipients), plus
// a dependency that forces deferral — a fresh account's spend submitted
// before the transfer that funds it.
func e2eWorkload() (*account.StateDB, []*Pending, types.Hash) {
	const users, rounds = 40, 6
	pre := account.NewStateDB()
	for u := uint64(0); u < users; u++ {
		pre.AddBalance(addr(u), 1<<40)
	}
	funder := types.AddressFromUint64("funder", 1)
	pre.AddBalance(funder, 1<<40)
	fresh := types.AddressFromUint64("fresh", 1)

	var subs []*Pending
	// The fresh account's spend arrives first: invalid (no funds) until the
	// funder's transfer — submitted two rounds later — commits.
	spend := &account.Transaction{From: fresh, To: addr(1), Value: 100,
		Nonce: 0, GasLimit: 21_000, GasPrice: 1}
	subs = append(subs, PredictTransfer(spend))
	for r := uint64(0); r < rounds; r++ {
		for u := uint64(0); u < users; u++ {
			to := addr((u + 7*r + 1) % users)
			if (u+r)%5 == 0 {
				to = types.AddressFromUint64("hotshop", 1)
			}
			subs = append(subs, PredictTransfer(transfer(u, 0, r, 3)))
			subs[len(subs)-1].Tx.To = to
			subs[len(subs)-1].Deltas = []string{"b:" + to.String()}
		}
		if r == 2 {
			fund := &account.Transaction{From: funder, To: fresh, Value: 1_000_000,
				Nonce: 0, GasLimit: 21_000, GasPrice: 1}
			subs = append(subs, PredictTransfer(fund))
		}
	}
	return pre, subs, spend.Hash()
}

// TestBuilderDeterministicEndToEnd is the e2e streaming test: fixed-seed
// load → builder (both packers) → ExecuteChainStream, asserting serial
// equivalence (root and receipts vs the sequential replay) and stream ≡
// batch for both conflict modes × shards {1, 4}, plus conservation and
// per-sender nonce order across the built blocks.
func TestBuilderDeterministicEndToEnd(t *testing.T) {
	pre, subs, spendHash := e2eWorkload()
	for _, packer := range packers() {
		t.Run(packer.Name(), func(t *testing.T) {
			built := buildAll(t, pre, subs, BuilderConfig{
				Packer:   packer,
				Pack:     PackConfig{MaxTxs: 25, HotKeyCap: 2},
				Coinbase: types.AddressFromUint64("miner", 1),
			})

			// Conservation + per-sender order + the deferral actually fired.
			emitted, deferred := 0, 0
			nextNonce := make(map[types.Address]uint64)
			blocks := make([]*account.Block, len(built))
			for i, bb := range built {
				blocks[i] = bb.Block
				deferred += bb.Deferred
				if len(bb.Submitted) != len(bb.Block.Txs) {
					t.Fatalf("block %d: %d submit stamps for %d txs", i, len(bb.Submitted), len(bb.Block.Txs))
				}
				for _, tx := range bb.Block.Txs {
					emitted++
					if tx.Nonce != nextNonce[tx.From] {
						t.Fatalf("sender %s reordered: nonce %d after %d", tx.From.Short(), tx.Nonce, nextNonce[tx.From])
					}
					nextNonce[tx.From] = tx.Nonce + 1
				}
			}
			if emitted != len(subs) {
				t.Fatalf("emitted %d of %d submissions", emitted, len(subs))
			}
			if deferred == 0 {
				t.Fatal("the fresh-account spend was never deferred")
			}
			for _, tx := range blocks[0].Txs {
				if tx.Hash() == spendHash {
					t.Fatal("unfunded spend packed into the first block")
				}
			}

			// Serial equivalence of the built chain, then stream ≡ batch
			// across conflict modes and shard counts.
			seq := testutil.ReplaySequential(t, pre, blocks)
			for _, shards := range []int{1, 4} {
				for _, op := range []bool{false, true} {
					e := exec.Sharded{Workers: 8, Shards: shards, OpLevel: op, Depth: 2}
					batch, _, err := e.ExecuteChain(pre.Copy(), blocks)
					if err != nil {
						t.Fatalf("batch shards=%d op=%v: %v", shards, op, err)
					}
					ch := make(chan *account.Block)
					go func() {
						defer close(ch)
						for _, b := range blocks {
							ch <- b
						}
					}()
					stream, _, err := e.ExecuteChainStream(pre.Copy(), ch, nil)
					if err != nil {
						t.Fatalf("stream shards=%d op=%v: %v", shards, op, err)
					}
					seq.RequireChain(t, "stream", stream.Root, stream.Receipts)
					if stream.Root != batch.Root || stream.Root != seq.Root() {
						t.Fatalf("shards=%d op=%v: roots diverged (stream %s, batch %s, seq %s)",
							shards, op, stream.Root.Short(), batch.Root.Short(), seq.Root().Short())
					}
				}
			}
		})
	}
}

// TestBuilderFlushClosesPartialBlocks: with Flush set, an underfull open
// pool still produces a block once its deadline passes instead of waiting
// forever.
func TestBuilderFlushClosesPartialBlocks(t *testing.T) {
	pre := account.NewStateDB()
	pre.AddBalance(addr(1), 1<<30)
	pool := New(64)
	if err := pool.Submit(context.Background(), PredictTransfer(transfer(1, 2, 0, 5))); err != nil {
		t.Fatal(err)
	}
	builder := NewBuilder(pool, pre, BuilderConfig{
		Pack:     PackConfig{MaxTxs: 32, HotKeyCap: 2},
		Coinbase: types.AddressFromUint64("miner", 1),
		Flush:    10 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out := make(chan BuiltBlock, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := builder.Run(ctx, out); err != nil {
			t.Errorf("run: %v", err)
		}
	}()
	select {
	case bb := <-out:
		if len(bb.Block.Txs) != 1 {
			t.Fatalf("flushed block has %d txs, want 1", len(bb.Block.Txs))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("flush never fired")
	}
	pool.Close()
	<-done
}

// The trickle the deadline tests submit: one transaction every
// trickleEvery, trickleN of them, so arrivals never pause for as long as
// the tests' Flush.
const (
	trickleEvery = 4 * time.Millisecond
	trickleN     = 50
)

// stampedBlock is a built block with the time it reached the consumer.
type stampedBlock struct {
	BuiltBlock
	at time.Time
}

// runTrickle runs a builder over pool while calling submit(i) for
// i = 0..trickleN-1, one call per trickleEvery on the calling goroutine,
// then closes the pool. It returns the emitted blocks, Run's leftovers and
// the time the trickle ended (before the pool closed).
func runTrickle(t *testing.T, pre *account.StateDB, pool *Pool, cfg BuilderConfig, submit func(i uint64)) ([]stampedBlock, []*Pending, time.Time) {
	t.Helper()
	builder := NewBuilder(pool, pre, cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out := make(chan BuiltBlock)
	var blocks []stampedBlock
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for bb := range out {
			blocks = append(blocks, stampedBlock{bb, time.Now()})
		}
	}()
	var left []*Pending
	var runErr error
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		left, runErr = builder.Run(ctx, out)
	}()
	tick := time.NewTicker(trickleEvery)
	defer tick.Stop()
	for i := uint64(0); i < trickleN; i++ {
		if i > 0 {
			<-tick.C
		}
		submit(i)
	}
	ended := time.Now()
	pool.Close()
	<-ran
	<-collected
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
	return blocks, left, ended
}

// TestBuilderFlushIsADeadline: under a steady trickle that never pauses
// for Flush, an underfull block still closes Flush after its oldest
// transaction arrived — a lull rule would hold every transaction until
// the pool closes — and durable acks follow the block, not the trickle.
func TestBuilderFlushIsADeadline(t *testing.T) {
	const flush = 20 * time.Millisecond
	pre := account.NewStateDB()
	pre.AddBalance(addr(1), 1<<30)
	pool := New(2 * trickleN)
	var firstAdmit time.Time
	firstAck := make(chan time.Time, 1)
	var acks []<-chan error
	blocks, left, ended := runTrickle(t, pre, pool, BuilderConfig{
		Packer:   FIFO{}, // every pending transaction fits: only the close rule shapes blocks
		Pack:     PackConfig{MaxTxs: 1000},
		Coinbase: types.AddressFromUint64("miner", 1),
		Flush:    flush,
		Log:      newCaptureLog(),
	}, func(i uint64) {
		if i == 0 {
			firstAdmit = time.Now()
		}
		ack, err := pool.SubmitDurable(context.Background(), PredictTransfer(transfer(1, 2, i, 5)))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			go func() {
				if err := <-ack; err != nil {
					t.Errorf("first ack: %v", err)
				}
				firstAck <- time.Now()
			}()
			return
		}
		acks = append(acks, ack)
	})
	if len(left) != 0 {
		t.Fatalf("%d leftovers", len(left))
	}
	if len(blocks) == 0 {
		t.Fatal("no block built")
	}
	for name, at := range map[string]time.Time{"first block": blocks[0].at, "first ack": <-firstAck} {
		if !at.Before(ended) {
			t.Fatalf("%s came %v after the trickle ended: the deadline never fired", name, at.Sub(ended))
		}
		if waited := at.Sub(firstAdmit); waited > flush+30*time.Millisecond {
			t.Fatalf("%s came %v after the first admission, want ≤ Flush + 30ms", name, waited)
		}
	}
	packed, multi := 0, false
	for i, bb := range blocks {
		if len(bb.Block.Txs) == 0 {
			t.Fatalf("block %d is empty", i)
		}
		packed += len(bb.Block.Txs)
		multi = multi || len(bb.Block.Txs) > 1
	}
	if packed != trickleN {
		t.Fatalf("%d of %d transactions packed", packed, trickleN)
	}
	if !multi {
		t.Fatal("every block holds one transaction: the deadline closed a block per arrival")
	}
	for i, ack := range acks {
		if err := <-ack; err != nil {
			t.Fatalf("ack %d: %v", i+1, err)
		}
	}
}

// TestBuilderDeadlineIgnoresStuckHead: a transaction deferred forever at
// the pool head (a nonce gap) does not make every later arrival close a
// block of its own, because the deadline never starts before the previous
// block closed.
func TestBuilderDeadlineIgnoresStuckHead(t *testing.T) {
	const flush = 20 * time.Millisecond
	pre := account.NewStateDB()
	pre.AddBalance(addr(1), 1<<30)
	pre.AddBalance(addr(2), 1<<30)
	pool := New(2 * trickleN)
	start := time.Now()
	if err := pool.Submit(context.Background(), PredictTransfer(transfer(2, 3, 5, 5))); err != nil {
		t.Fatal(err)
	}
	blocks, left, _ := runTrickle(t, pre, pool, BuilderConfig{
		Packer:   FIFO{}, // every pending transaction fits: only the close rule shapes blocks
		Pack:     PackConfig{MaxTxs: 1000},
		Coinbase: types.AddressFromUint64("miner", 1),
		Flush:    flush,
	}, func(i uint64) {
		if err := pool.Submit(context.Background(), PredictTransfer(transfer(1, 2, i, 5))); err != nil {
			t.Fatal(err)
		}
	})
	elapsed := time.Since(start)
	if most := int(elapsed/flush) + 2; len(blocks) > most {
		t.Fatalf("%d blocks in %v, want ≤ %d: the stuck head closed a block per arrival", len(blocks), elapsed, most)
	}
	next := uint64(0)
	for _, bb := range blocks {
		for _, tx := range bb.Block.Txs {
			if tx.From != addr(1) || tx.Nonce != next {
				t.Fatalf("packed %s nonce %d, want %s nonce %d", tx.From.Short(), tx.Nonce, addr(1).Short(), next)
			}
			next++
		}
	}
	if next != trickleN {
		t.Fatalf("%d of %d trickled transactions committed", next, trickleN)
	}
	if len(left) != 1 || left[0].Tx.From != addr(2) || left[0].Tx.Nonce != 5 {
		t.Fatalf("leftovers %v, want only the stuck transaction", left)
	}
}

package mempool

import (
	"context"
	"sync"
	"testing"
	"time"

	"txconcur/internal/account"
	"txconcur/internal/types"
)

func addr(i uint64) types.Address { return types.AddressFromUint64("user", i) }

func transfer(from, to, nonce uint64, value account.Amount) *account.Transaction {
	return &account.Transaction{
		From: addr(from), To: addr(to), Value: value,
		Nonce: nonce, GasLimit: 21_000, GasPrice: 1,
	}
}

func TestSubmitValidation(t *testing.T) {
	p := New(4)
	if err := p.Submit(context.Background(), nil); err == nil {
		t.Fatal("nil pending accepted")
	}
	if err := p.Submit(context.Background(), &Pending{}); err == nil {
		t.Fatal("nil transaction accepted")
	}
	if p.Len() != 0 {
		t.Fatalf("rejected submissions left %d pending", p.Len())
	}
}

func TestSubmitStampsAndCopies(t *testing.T) {
	p := New(4)
	fake := time.Unix(1000, 0)
	p.now = func() time.Time { return fake }
	orig := PredictTransfer(transfer(1, 2, 0, 5))
	if err := p.Submit(context.Background(), orig); err != nil {
		t.Fatal(err)
	}
	orig.Submitted = time.Unix(9999, 0) // caller reuse must not leak in
	fake = time.Unix(2000, 0)
	if err := p.Submit(context.Background(), PredictTransfer(transfer(1, 2, 1, 5))); err != nil {
		t.Fatal(err)
	}
	pend, closed := p.view()
	if closed {
		t.Fatal("pool reported closed")
	}
	if len(pend) != 2 {
		t.Fatalf("pending = %d, want 2", len(pend))
	}
	if !pend[0].Submitted.Equal(time.Unix(1000, 0)) || !pend[1].Submitted.Equal(time.Unix(2000, 0)) {
		t.Fatalf("submit stamps %v, %v", pend[0].Submitted, pend[1].Submitted)
	}
	if pend[0].seq >= pend[1].seq {
		t.Fatalf("arrival numbers not increasing: %d, %d", pend[0].seq, pend[1].seq)
	}
}

func TestBackpressure(t *testing.T) {
	p := New(1)
	if err := p.Submit(context.Background(), PredictTransfer(transfer(1, 2, 0, 1))); err != nil {
		t.Fatal(err)
	}
	// A full pool blocks; a cancelled context unblocks with ctx's error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.Submit(ctx, PredictTransfer(transfer(1, 2, 1, 1))); err != context.Canceled {
		t.Fatalf("submit on full pool with cancelled ctx: %v", err)
	}
	// Freeing the slot admits a blocked submitter.
	done := make(chan error, 1)
	go func() {
		done <- p.Submit(context.Background(), PredictTransfer(transfer(1, 2, 1, 1)))
	}()
	select {
	case err := <-done:
		t.Fatalf("submit did not block on full pool (err=%v)", err)
	case <-time.After(20 * time.Millisecond):
	}
	pend, _ := p.view()
	p.remove(map[uint64]bool{pend[0].seq: true})
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("submitter still blocked after slot freed")
	}
}

func TestCloseSemantics(t *testing.T) {
	p := New(1)
	if err := p.Submit(context.Background(), PredictTransfer(transfer(1, 2, 0, 1))); err != nil {
		t.Fatal(err)
	}
	// A submitter blocked on a full pool is woken by Close with ErrClosed.
	done := make(chan error, 1)
	go func() {
		done <- p.Submit(context.Background(), PredictTransfer(transfer(1, 2, 1, 1)))
	}()
	time.Sleep(10 * time.Millisecond)
	p.Close()
	p.Close() // idempotent
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Fatalf("blocked submitter woke with %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked submitter not woken by Close")
	}
	if err := p.Submit(context.Background(), PredictTransfer(transfer(1, 2, 1, 1))); err != ErrClosed {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
	// The admitted transaction is still drainable.
	if p.Len() != 1 {
		t.Fatalf("pending after close = %d, want 1", p.Len())
	}
}

func TestRemovePreservesOrderAndSlots(t *testing.T) {
	p := New(5)
	for i := uint64(0); i < 5; i++ {
		if err := p.Submit(context.Background(), PredictTransfer(transfer(i, 99, 0, 1))); err != nil {
			t.Fatal(err)
		}
	}
	pend, _ := p.view()
	p.remove(map[uint64]bool{pend[1].seq: true, pend[3].seq: true})
	kept, _ := p.view()
	if len(kept) != 3 {
		t.Fatalf("pending = %d, want 3", len(kept))
	}
	for i, want := range []types.Address{addr(0), addr(2), addr(4)} {
		if kept[i].Tx.From != want {
			t.Fatalf("arrival order not preserved: slot %d is %s", i, kept[i].Tx.From.Short())
		}
	}
	// Two slots were released: two more submissions must not block.
	for i := uint64(5); i < 7; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		err := p.Submit(ctx, PredictTransfer(transfer(i, 99, 0, 1)))
		cancel()
		if err != nil {
			t.Fatalf("slot %d not released: %v", i, err)
		}
	}
}

// TestPoolConcurrentSubmitRace is the -race workhorse: many submitters
// against a live builder, with the pool far smaller than the workload so
// every submitter exercises backpressure. Asserts conservation (every
// admitted transaction is emitted exactly once) and per-sender nonce order
// across the emitted blocks.
func TestPoolConcurrentSubmitRace(t *testing.T) {
	const (
		submitters = 8
		perSender  = 50
		sendersPer = 4 // senders per submitter goroutine
	)
	pre := account.NewStateDB()
	total := 0
	for g := 0; g < submitters; g++ {
		for s := 0; s < sendersPer; s++ {
			pre.AddBalance(addr(uint64(g*sendersPer+s)), 1<<40)
			total += perSender
		}
	}
	pool := New(64)
	builder := NewBuilder(pool, pre, BuilderConfig{
		Pack:     PackConfig{MaxTxs: 48, HotKeyCap: 2},
		Coinbase: types.AddressFromUint64("miner", 1),
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	out := make(chan BuiltBlock, 64)
	runDone := make(chan struct{})
	var leftovers []*Pending
	var runErr error
	go func() {
		defer close(runDone)
		leftovers, runErr = builder.Run(ctx, out)
	}()

	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Round-robin this goroutine's senders so their chains
			// interleave; per-sender nonce order is still preserved.
			for n := uint64(0); n < perSender; n++ {
				for s := 0; s < sendersPer; s++ {
					from := uint64(g*sendersPer + s)
					tx := transfer(from, uint64(1000+g), n, 1)
					if err := pool.Submit(ctx, PredictTransfer(tx)); err != nil {
						t.Errorf("submit: %v", err)
						return
					}
				}
			}
		}(g)
	}
	go func() {
		wg.Wait()
		pool.Close()
	}()

	emitted := 0
	seen := make(map[types.Hash]bool)
	nextNonce := make(map[types.Address]uint64)
	for bb := range out {
		for _, tx := range bb.Block.Txs {
			emitted++
			h := tx.Hash()
			if seen[h] {
				t.Fatalf("transaction emitted twice: %s", h.Short())
			}
			seen[h] = true
			if tx.Nonce != nextNonce[tx.From] {
				t.Fatalf("sender %s reordered: nonce %d after %d committed",
					tx.From.Short(), tx.Nonce, nextNonce[tx.From])
			}
			nextNonce[tx.From] = tx.Nonce + 1
		}
	}
	<-runDone
	if runErr != nil {
		t.Fatal(runErr)
	}
	if len(leftovers) != 0 {
		t.Fatalf("%d transactions left unpackable", len(leftovers))
	}
	if emitted != total {
		t.Fatalf("emitted %d of %d admitted transactions", emitted, total)
	}
}

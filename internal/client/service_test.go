package client_test

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"txconcur/internal/account"
	"txconcur/internal/chainsim"
	"txconcur/internal/client"
	"txconcur/internal/exec"
	"txconcur/internal/exec/testutil"
	"txconcur/internal/mempool"
	"txconcur/internal/types"
	"txconcur/internal/wal"
)

// TestServiceOverHTTP drives the whole submission path: concurrent clients
// submit over JSON-RPC into the bounded pool, the builder packs with each
// packer, and the streamed sharded executor commits the blocks as they
// close. Every submission must commit exactly once, every block must fire
// the commit callback, and the committed chain must match its sequential
// replay root for root and receipt for receipt. The durable row acks only
// after the block is fsynced to a write-ahead log on the OS filesystem and
// checkpoints as it goes; a cold recovery of that log must hold every
// built block and reproduce the live root. It submits only the first
// generated block's transactions: each durable submission waits for an
// fsync, and the hot senders' nonce chains make those waits serial.
func TestServiceOverHTTP(t *testing.T) {
	pre, blks, err := chainsim.GenerateAccountChain(chainsim.ShardSkewProfile(), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Arrival order is the generated chain's sequential order, so every
	// funding dependency between senders is satisfiable.
	var subs []client.SubmitTx
	for _, b := range blks {
		for _, tx := range b.Txs {
			p := mempool.PredictTransfer(tx)
			subs = append(subs, client.SubmitTx{
				From: tx.From, To: tx.To, Value: tx.Value, Nonce: tx.Nonce,
				GasLimit: tx.GasLimit, GasPrice: tx.GasPrice, Arg: tx.Arg, Code: tx.Code,
				Reads: p.Reads, Writes: p.Writes, Deltas: p.Deltas,
			})
		}
	}
	firstBlock := len(blks[0].Txs)
	for _, tc := range []struct {
		name    string
		packer  mempool.Packer
		op      bool
		durable bool
		subs    []client.SubmitTx
	}{
		{"fifo/key", mempool.FIFO{}, false, false, subs},
		{"conflict-aware/op", mempool.ConflictAware{}, true, false, subs},
		{"conflict-aware/op/durable", mempool.ConflictAware{}, true, true, subs[:firstBlock]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runService(t, pre, tc.subs, tc.packer, tc.op, tc.durable)
		})
	}
}

func runService(t *testing.T, pre *account.StateDB, subs []client.SubmitTx, packer mempool.Packer, op, durable bool) {
	pool := mempool.New(64)
	cfg := mempool.BuilderConfig{
		Packer:   packer,
		Pack:     mempool.PackConfig{MaxTxs: 32, HotKeyCap: 8},
		Coinbase: types.AddressFromUint64("service/miner", 1),
		Flush:    2 * time.Millisecond,
	}
	eng := exec.Sharded{Workers: 4, Shards: 2, Depth: 2, OpLevel: op}
	handler := client.NewBuilderServer(pool)
	dir := t.TempDir()
	var d *wal.Dir
	if durable {
		var err error
		if d, err = wal.Open(wal.OS{}, dir, wal.SyncEachRecord); err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		cfg.Log = d.Log()
		eng.Checkpoint = d.Checkpointer(2)
		handler = client.NewDurableBuilderServer(pool)
	}
	builder := mempool.NewBuilder(pool, pre, cfg)
	srv := httptest.NewServer(handler)
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	out := make(chan mempool.BuiltBlock)
	var leftovers []*mempool.Pending
	var buildErr error
	buildDone := make(chan struct{})
	go func() {
		defer close(buildDone)
		leftovers, buildErr = builder.Run(ctx, out)
	}()
	// The bridge records every built block before handing it on; the
	// executor returns only after the bridge has closed its channel.
	var built []*account.Block
	blocks := make(chan *account.Block)
	go func() {
		defer close(blocks)
		for bb := range out {
			built = append(built, bb.Block)
			select {
			case blocks <- bb.Block:
			case <-ctx.Done():
				return
			}
		}
	}()

	// Each sender's submissions go through one client, in nonce order.
	const nClients = 8
	owner := make(map[types.Address]int)
	for _, s := range subs {
		if _, ok := owner[s.From]; !ok {
			owner[s.From] = len(owner) % nClients
		}
	}
	errs := make(chan error, nClients)
	var wg sync.WaitGroup
	for g := 0; g < nClients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sub := &client.Submitter{Collector: client.Collector{URL: srv.URL}}
			for _, s := range subs {
				if owner[s.From] != g {
					continue
				}
				if err := sub.Submit(ctx, s); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	go func() {
		wg.Wait()
		pool.Close()
	}()

	commits := 0
	cr, _, err := eng.ExecuteChainStream(pre.Copy(), blocks,
		func(int, *account.Block, []*account.Receipt) { commits++ })
	<-buildDone
	if err != nil {
		t.Fatalf("executor: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("client: %v", err)
	}
	if buildErr != nil || len(leftovers) != 0 {
		t.Fatalf("builder: %v, %d transactions left unpackable", buildErr, len(leftovers))
	}
	total := 0
	for _, b := range built {
		total += len(b.Txs)
	}
	if total != len(subs) || commits != len(built) {
		t.Fatalf("committed %d of %d submissions, %d commit callbacks for %d blocks",
			total, len(subs), commits, len(built))
	}
	testutil.ReplaySequential(t, pre, built).RequireChain(t, packer.Name(), cr.Root, cr.Receipts)
	if !durable {
		return
	}

	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := wal.Open(wal.OS{}, dir, wal.SyncEachRecord)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := len(d2.Records()); got != len(built) {
		t.Fatalf("log holds %d blocks, the run built %d", got, len(built))
	}
	rec, err := d2.Recover(pre)
	if err != nil {
		t.Fatal(err)
	}
	st, err := rec.State.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	root := st.Root()
	if len(rec.Blocks) > 0 {
		rr, _, err := exec.Sharded{Workers: 4, Shards: 2, Depth: 2}.ExecuteChain(st, rec.Blocks)
		if err != nil {
			t.Fatalf("recovery replay: %v", err)
		}
		root = rr.Root
	}
	if root != cr.Root {
		t.Fatalf("recovered root %s, live run committed %s", root.Short(), cr.Root.Short())
	}
}

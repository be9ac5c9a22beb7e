package exec

import (
	"testing"

	"txconcur/internal/account"
	"txconcur/internal/chainsim"
	"txconcur/internal/exec/testutil"
)

// feed sends blocks on a fresh channel from a separate goroutine, closing
// it when done — the shape the streaming builder produces.
func feed(blocks []*account.Block) <-chan *account.Block {
	ch := make(chan *account.Block)
	go func() {
		defer close(ch)
		for _, b := range blocks {
			ch <- b
		}
	}()
	return ch
}

// TestStreamChainMatchesBatch: feeding the same blocks through
// ExecuteChainStream must reproduce ExecuteChain exactly — root, receipts,
// schedule stats and shard counters — across shard counts, conflict modes
// and depths, with onCommit observing every block in order. This is the
// determinism contract that lets the streaming service reuse the batch
// drivers' serial-equivalence guarantees wholesale.
func TestStreamChainMatchesBatch(t *testing.T) {
	pre, blocks, err := chainsim.GenerateAccountChain(chainsim.ShardSkewProfile(), 6, 11)
	if err != nil {
		t.Fatal(err)
	}
	seq := testutil.ReplaySequential(t, pre, blocks)
	for _, shards := range []int{1, 4} {
		for _, op := range []bool{false, true} {
			for _, depth := range []int{1, 3} {
				e := Sharded{Workers: 8, Shards: shards, OpLevel: op, Depth: depth}
				batch, bcss, err := e.ExecuteChain(pre.Copy(), blocks)
				if err != nil {
					t.Fatalf("batch shards=%d op=%v depth=%d: %v", shards, op, depth, err)
				}
				var committed []int
				stream, scss, err := e.ExecuteChainStream(pre.Copy(), feed(blocks),
					func(idx int, blk *account.Block, receipts []*account.Receipt) {
						committed = append(committed, idx)
						if len(receipts) != len(blk.Txs) {
							t.Errorf("onCommit block %d: %d receipts for %d txs", idx, len(receipts), len(blk.Txs))
						}
					})
				if err != nil {
					t.Fatalf("stream shards=%d op=%v depth=%d: %v", shards, op, depth, err)
				}
				seq.RequireChain(t, "stream", stream.Root, stream.Receipts)
				if stream.Root != batch.Root {
					t.Fatalf("shards=%d op=%v depth=%d: stream root diverged from batch", shards, op, depth)
				}
				if stream.Stats.ParUnits != batch.Stats.ParUnits ||
					stream.Stats.GasPar != batch.Stats.GasPar ||
					stream.Stats.Retries != batch.Stats.Retries ||
					stream.Stats.Conflicted != batch.Stats.Conflicted {
					t.Fatalf("shards=%d op=%v depth=%d: stream stats %+v != batch %+v",
						shards, op, depth, stream.Stats, batch.Stats)
				}
				if scss.Cross != bcss.Cross || scss.CrossAborts != bcss.CrossAborts ||
					scss.Repairs != bcss.Repairs || scss.MergeUnits != bcss.MergeUnits {
					t.Fatalf("shards=%d op=%v depth=%d: shard counters diverged: %+v vs %+v",
						shards, op, depth, scss, bcss)
				}
				if len(committed) != len(blocks) {
					t.Fatalf("onCommit fired %d times for %d blocks", len(committed), len(blocks))
				}
				for i, idx := range committed {
					if idx != i {
						t.Fatalf("onCommit out of order: %v", committed)
					}
				}
			}
		}
	}
}

// TestStreamChainEmptyAndValidation: worker validation and the empty
// stream mirror the batch driver's edge cases.
func TestStreamChainEmptyAndValidation(t *testing.T) {
	st := account.NewStateDB()
	ch := make(chan *account.Block)
	close(ch)
	if _, _, err := (Sharded{Workers: 0, Shards: 2}).ExecuteChainStream(st, ch, nil); err == nil {
		t.Fatal("zero workers accepted")
	}
	ch2 := make(chan *account.Block)
	close(ch2)
	cr, css, err := (Sharded{Workers: 2, Shards: 2}).ExecuteChainStream(st, ch2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cr.Receipts) != 0 || len(css.Blocks) != 0 {
		t.Fatalf("empty stream produced %d blocks", len(cr.Receipts))
	}
	if cr.Stats.Speedup != 1 {
		t.Fatalf("empty stream speed-up = %v, want 1", cr.Stats.Speedup)
	}
}

package wal_test

import (
	"errors"
	"fmt"
	"testing"

	"txconcur/internal/account"
	"txconcur/internal/basestore"
	"txconcur/internal/chainsim"
	"txconcur/internal/exec/testutil"
	"txconcur/internal/wal"
)

// baseSweepProfile is an even smaller workload than sweepProfile: the
// integrated sweep folds the full state into the base store every block,
// so per-run cost scales with state size times the op count.
func baseSweepProfile() chainsim.Profile {
	return chainsim.Profile{
		Name: "Base-Layer Sweep", Model: chainsim.Account, Consensus: "PoW",
		DataSource: "Synthetic", LaunchYear: 2020,
		Eras: []chainsim.Era{{
			Name: "sweep", Weight: 1, StartTime: 1577836800, BlockInterval: 15,
			TxPerBlock: 8, TxPerBlockJitter: 0.3, Users: 24, ActiveFrac: 2.5,
			HotSenderFrac: 0.5, HotSenders: 2,
		}},
	}
}

// baseWorkload drives the durability directory and a base-layer store on
// the SAME filesystem, the way the memory-bounded service stack does:
// append each block to the log (block ack), advance the committed state,
// checkpoint every `every` blocks, then fold the block's state entries
// into the base store (fold ack — the eviction persist point), compacting
// explicitly after the third fold and leaving the stack to Apply's
// automatic merges from then on (autoMerges counts them). Stops at the
// first filesystem error.
func baseWorkload(t *testing.T, fsys wal.FS, pre *account.StateDB, blocks []*account.Block, every int) (ackedBlocks, ackedFolds, autoMerges int, err error) {
	t.Helper()
	d, err := wal.Open(fsys, "dur", wal.SyncEachRecord)
	if err != nil {
		return 0, 0, 0, err
	}
	bs, err := basestore.OpenStore(fsys, "dur/base")
	if err != nil {
		return 0, 0, 0, err
	}
	st, ckpt := pre.Copy(), pre.Copy()
	proc := account.Processor{DeferCoinbase: true}
	for i, blk := range blocks {
		if _, err := d.Log().Append(blk); err != nil {
			return ackedBlocks, ackedFolds, autoMerges, err
		}
		ackedBlocks++
		receipts := make([]*account.Receipt, 0, len(blk.Txs))
		for j, tx := range blk.Txs {
			rcpt, aerr := proc.ApplyTransaction(st, blk, tx)
			if aerr != nil {
				t.Fatalf("workload replay block %d tx %d: %v", i, j, aerr)
			}
			receipts = append(receipts, rcpt)
		}
		st.AddBalance(blk.Coinbase, account.Fees(blk.Txs, receipts))
		st.AddBalance(blk.Coinbase, account.BlockReward)
		st.DiscardJournal()
		if every > 0 && (i+1)%every == 0 {
			if err := d.WriteCheckpoint(uint64(i), changeSet(ckpt, st)); err != nil {
				return ackedBlocks, ackedFolds, autoMerges, err
			}
			ckpt = st.Copy()
		}
		gens := bs.Stats().Generations
		if err := bs.Apply(basestore.StateEntries(st)); err != nil {
			return ackedBlocks, ackedFolds, autoMerges, err
		}
		ackedFolds++
		if bs.Stats().Generations <= gens {
			autoMerges++
		}
		if ackedFolds == 3 {
			if err := bs.Compact(); err != nil {
				return ackedBlocks, ackedFolds, autoMerges, err
			}
		}
	}
	bs.Close()
	return ackedBlocks, ackedFolds, autoMerges, d.Close()
}

// oracleEntries replays blocks sequentially and returns the base-layer
// entry set after each block — the fold oracle.
func oracleEntries(t *testing.T, pre *account.StateDB, blocks []*account.Block) [][]basestore.Entry {
	t.Helper()
	st := pre.Copy()
	proc := account.Processor{DeferCoinbase: true}
	out := make([][]basestore.Entry, len(blocks))
	for i, blk := range blocks {
		receipts := make([]*account.Receipt, 0, len(blk.Txs))
		for j, tx := range blk.Txs {
			rcpt, err := proc.ApplyTransaction(st, blk, tx)
			if err != nil {
				t.Fatalf("oracle replay block %d tx %d: %v", i, j, err)
			}
			receipts = append(receipts, rcpt)
		}
		st.AddBalance(blk.Coinbase, account.Fees(blk.Txs, receipts))
		st.AddBalance(blk.Coinbase, account.BlockReward)
		st.DiscardJournal()
		out[i] = basestore.StateEntries(st)
	}
	return out
}

// requireBaseRecovered reopens the base store from a crash image and
// checks zero acked-fold loss: every entry of the last acked fold reads
// back with its acked value or the in-flight fold's value (accounts are
// never deleted, so the newest-wins union over the fold prefix is the
// last fold's entry set).
func requireBaseRecovered(t *testing.T, img *wal.MemFS, folds [][]basestore.Entry, acked int, label string) {
	t.Helper()
	s, err := basestore.OpenStore(img, "dur/base")
	if err != nil {
		t.Fatalf("%s: base reopen: %v", label, err)
	}
	defer s.Close()
	if acked == 0 {
		return
	}
	next := make(map[string]string)
	if acked < len(folds) {
		for _, e := range folds[acked] {
			next[string(e.Key)] = string(e.Val)
		}
	}
	for _, e := range folds[acked-1] {
		got, ok, err := s.Get(e.Key)
		if err != nil {
			t.Fatalf("%s: base Get: %v", label, err)
		}
		if !ok {
			t.Fatalf("%s: acked base key %x lost", label, e.Key)
		}
		if string(got) != string(e.Val) && string(got) != next[string(e.Key)] {
			t.Fatalf("%s: base key %x = %x, want %x (acked) or in-flight value", label, e.Key, got, e.Val)
		}
	}
}

// TestBaseLayerCrashPointSweep extends the PR-9 crash-point sweep to
// every mutating filesystem operation of the full base-layer stack
// running beside the WAL: block appends, table-checkpoint writes, base
// store Apply (the eviction persist point — a crash here is "between
// evict and fold", since the in-RAM drop vanishes with the process), an
// explicit Compact and the automatic merge Apply runs once the stack is
// nine deep, all numbered on one FaultFS. Crashing at each ordinal covers
// every step of the atomic table write for both the checkpoint and base
// writers, and the window between a merge's new table and the removal of
// each table it replaces. After every crash: recovery must reproduce the oracle's roots
// and receipts exactly with zero acked-block loss, and the reopened base
// store must serve every acked fold newest-wins.
func TestBaseLayerCrashPointSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("long: one full workload run per filesystem operation")
	}
	// 12 blocks: fold 3 compacts to one table, folds 4-11 stack eight more,
	// so the eleventh fold triggers the automatic merge with a fold to spare.
	pre, blocks, err := chainsim.GenerateAccountChain(baseSweepProfile(), 12, 17)
	if err != nil {
		t.Fatal(err)
	}
	seq := testutil.ReplaySequential(t, pre, blocks)
	folds := oracleEntries(t, pre, blocks)
	const every = 2

	clean := wal.NewFaultFS(wal.NewMemFS())
	ackedBlocks, ackedFolds, autoMerges, err := baseWorkload(t, clean, pre, blocks, every)
	if err != nil || ackedBlocks != len(blocks) || ackedFolds != len(blocks) {
		t.Fatalf("clean run: acked %d blocks %d folds err %v", ackedBlocks, ackedFolds, err)
	}
	if autoMerges == 0 {
		t.Fatal("clean run never reached an automatic merge: the sweep would not cover one")
	}
	total := clean.Ops()
	if total == 0 {
		t.Fatal("clean run issued no filesystem operations")
	}

	for op := 0; op < total; op++ {
		for _, keep := range []int{0, 7} {
			mem := wal.NewMemFS()
			ff := wal.NewFaultFS(mem, wal.Fault{Op: op, Kind: wal.Crash})
			ackedBlocks, ackedFolds, _, werr := baseWorkload(t, ff, pre, blocks, every)
			if !errors.Is(werr, wal.ErrCrashed) {
				t.Fatalf("op %d: workload survived the crash: %v", op, werr)
			}
			img := mem.CrashImage(keep)
			label := fmt.Sprintf("crash@%d/keep=%d", op, keep)
			requireRecovered(t, img, pre, seq, ackedBlocks, label)
			requireBaseRecovered(t, img, folds, ackedFolds, label)
		}
	}
}

// TestLazyRecoveryFaultsOnDemand is the payoff of the store checkpoint
// format: recovering and replaying a short log suffix faults in only the
// keys the suffix touches — a small fraction of the checkpointed state —
// and still lands on the oracle root after materialisation.
func TestLazyRecoveryFaultsOnDemand(t *testing.T) {
	p := sweepProfile()
	p.Eras[0].Users = 400
	p.Eras[0].TxPerBlock = 8
	pre, blocks, err := chainsim.GenerateAccountChain(p, 7, 29)
	if err != nil {
		t.Fatal(err)
	}
	seq := testutil.ReplaySequential(t, pre, blocks)
	mem := wal.NewMemFS()
	const every = 3
	if _, err := durWorkload(t, mem, pre, blocks, every); err != nil {
		t.Fatal(err)
	}
	d, err := wal.Open(mem, "dur", wal.SyncEachRecord)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rec, err := d.Recover(pre)
	if err != nil {
		t.Fatal(err)
	}
	// 7 blocks, every=3 → checkpoints at 2 and 5; suffix is block 6 only.
	if rec.Checkpoint != 5 || len(rec.Blocks) != 1 {
		t.Fatalf("recovered checkpoint %d with %d suffix blocks, want 5 and 1", rec.Checkpoint, len(rec.Blocks))
	}
	if got := rec.State.Faults(); got != 0 {
		t.Fatalf("%d keys faulted before any access", got)
	}

	// Sequential suffix replay straight over the lazy view.
	proc := account.Processor{DeferCoinbase: true}
	for _, blk := range rec.Blocks {
		receipts := make([]*account.Receipt, 0, len(blk.Txs))
		for _, tx := range blk.Txs {
			rcpt, err := proc.ApplyTransaction(rec.State, blk, tx)
			if err != nil {
				t.Fatalf("lazy replay: %v", err)
			}
			receipts = append(receipts, rcpt)
		}
		rec.State.AddBalance(blk.Coinbase, account.Fees(blk.Txs, receipts))
		rec.State.AddBalance(blk.Coinbase, account.BlockReward)
	}
	faults := rec.State.Faults()
	if faults == 0 {
		t.Fatal("suffix replay faulted no keys")
	}

	st, err := rec.State.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := st.Root(), seq.Roots[len(blocks)-1]; got != want {
		t.Fatalf("lazy-replayed root %s, oracle has %s", got.Short(), want.Short())
	}
	total := len(basestore.StateEntries(st))
	if faults*4 > total {
		t.Fatalf("suffix replay faulted %d of %d keys — recovery is not lazy", faults, total)
	}
}

package wal_test

import (
	"bytes"
	"errors"
	"testing"

	"txconcur/internal/account"
	"txconcur/internal/chainsim"
	"txconcur/internal/exec"
	"txconcur/internal/exec/testutil"
	"txconcur/internal/types"
	"txconcur/internal/wal"
)

// sweepProfile is a deliberately small account-model workload: the sweeps
// re-run the whole workload once per filesystem operation and fault kind,
// so state size matters far more than realism here. Skewed senders keep
// real conflicts in the replay.
func sweepProfile() chainsim.Profile {
	return chainsim.Profile{
		Name: "Durability Sweep", Model: chainsim.Account, Consensus: "PoW",
		DataSource: "Synthetic", LaunchYear: 2020,
		Eras: []chainsim.Era{{
			Name: "sweep", Weight: 1, StartTime: 1577836800, BlockInterval: 15,
			TxPerBlock: 10, TxPerBlockJitter: 0.3, Users: 120, ActiveFrac: 2.5,
			HotSenderFrac: 0.5, HotSenders: 2,
		}},
	}
}

// durWorkload drives the durability layer the way the builder does:
// append each block to the log (persist point — a successful Append is an
// ack), advance the committed state, and checkpoint every `every` blocks.
// It stops at the first filesystem error and reports how many blocks were
// acked before it.
func durWorkload(t *testing.T, fsys wal.FS, pre *account.StateDB, blocks []*account.Block, every int) (acked int, err error) {
	t.Helper()
	d, err := wal.Open(fsys, "dur", wal.SyncEachRecord)
	if err != nil {
		return 0, err
	}
	st, ckpt := pre.Copy(), pre.Copy()
	proc := account.Processor{DeferCoinbase: true}
	for i, blk := range blocks {
		if _, err := d.Log().Append(blk); err != nil {
			return acked, err
		}
		acked++
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
				return acked, err
			}
			ckpt = st.Copy()
		}
	}
	return acked, d.Close()
}

// changeSet is the change set the execution engine's checkpoint worker
// delivers between two committed states: every account field that is new
// or differs in cur, every storage word that differs, and every slot cur
// cleared as an explicit zero.
func changeSet(prev, cur *account.StateDB) *account.StateDB {
	pe := prev.Export()
	old := make(map[types.Address]account.AccountExport, len(pe.Accounts))
	for _, a := range pe.Accounts {
		old[a.Addr] = a
	}
	var out account.StateExport
	for _, a := range cur.Export().Accounts {
		o := old[a.Addr]
		d := account.AccountExport{Addr: a.Addr}
		if a.HasBalance && (!o.HasBalance || o.Balance != a.Balance) {
			d.Balance, d.HasBalance = a.Balance, true
		}
		if a.HasNonce && (!o.HasNonce || o.Nonce != a.Nonce) {
			d.Nonce, d.HasNonce = a.Nonce, true
		}
		if a.HasCode && (!o.HasCode || !bytes.Equal(o.Code, a.Code)) {
			d.Code, d.HasCode = a.Code, true
		}
		if d.HasBalance || d.HasNonce || d.HasCode {
			out.Accounts = append(out.Accounts, d)
		}
	}
	for _, sl := range cur.Export().Storage {
		if prev.GetStorage(sl.Addr, sl.Slot) != sl.Value {
			out.Storage = append(out.Storage, sl)
		}
	}
	for _, sl := range pe.Storage {
		if cur.GetStorage(sl.Addr, sl.Slot) == 0 {
			out.Storage = append(out.Storage, account.StorageExport{Addr: sl.Addr, Slot: sl.Slot})
		}
	}
	return out.Restore()
}

// requireRecovered opens the crash image, recovers, replays the log suffix
// through the sharded chain, and asserts the recovered chain is
// byte-identical to the uninterrupted run's prefix: same roots, same
// receipts, and no acked block missing.
func requireRecovered(t *testing.T, img *wal.MemFS, pre *account.StateDB, seq *testutil.Chain, acked int, label string) {
	t.Helper()
	d, err := wal.Open(img, "dur", wal.SyncEachRecord)
	if err != nil {
		t.Fatalf("%s: reopen: %v", label, err)
	}
	defer d.Close()
	rec, err := d.Recover(pre)
	if err != nil {
		t.Fatalf("%s: recover: %v", label, err)
	}
	durable := int(rec.NextIndex)
	if durable < acked {
		t.Fatalf("%s: %d blocks acked but only %d durable — acked data lost", label, acked, durable)
	}
	if rec.Checkpoint >= 0 && int(rec.Checkpoint)+1+len(rec.Blocks) != durable {
		t.Fatalf("%s: checkpoint %d + %d replay blocks != %d durable", label, rec.Checkpoint, len(rec.Blocks), durable)
	}

	// The checkpoint itself must equal the sequential prefix state.
	st, err := rec.State.Materialize()
	if err != nil {
		t.Fatalf("%s: materialize: %v", label, err)
	}
	if rec.Checkpoint >= 0 {
		if got, want := st.Root(), seq.Roots[rec.Checkpoint]; got != want {
			t.Fatalf("%s: checkpoint %d root %s, oracle prefix has %s", label, rec.Checkpoint, got.Short(), want.Short())
		}
	} else if got, want := st.Root(), pre.Root(); got != want {
		t.Fatalf("%s: genesis recovery root %s, want %s", label, got.Short(), want.Short())
	}

	e := exec.Sharded{Workers: 4, Shards: 2, Depth: 2}
	root := st.Root()
	if len(rec.Blocks) > 0 {
		res, _, err := e.ExecuteChain(st, rec.Blocks)
		if err != nil {
			t.Fatalf("%s: replay: %v", label, err)
		}
		root = res.Root
		first := int(rec.Checkpoint) + 1
		for b := range res.Receipts {
			testutil.RequireReceipts(t, label, first+b, res.Receipts[b], seq.Receipts[first+b])
		}
	}
	want := pre.Root()
	if durable > 0 {
		want = seq.Roots[durable-1]
	}
	if root != want {
		t.Fatalf("%s: recovered root %s, uninterrupted run has %s", label, root.Short(), want.Short())
	}
}

// TestRecoveryCrashPointSweep is the durability layer's central invariant:
// crash the workload at EVERY mutating filesystem operation (with and
// without a torn tail of unsynced bytes), then Recover() + replay must
// reproduce the uninterrupted run's roots and receipts exactly, with zero
// acked-block loss.
func TestRecoveryCrashPointSweep(t *testing.T) {
	pre, blocks, err := chainsim.GenerateAccountChain(sweepProfile(), 6, 13)
	if err != nil {
		t.Fatal(err)
	}
	seq := testutil.ReplaySequential(t, pre, blocks)
	const every = 2

	// Fault-free run bounds the sweep and pins the op count: any change to
	// the write path shows up here as a different sweep width.
	clean := wal.NewFaultFS(wal.NewMemFS())
	acked, err := durWorkload(t, clean, pre, blocks, every)
	if err != nil || acked != len(blocks) {
		t.Fatalf("clean run: acked %d err %v", acked, err)
	}
	total := clean.Ops()
	if total == 0 {
		t.Fatal("clean run issued no filesystem operations")
	}

	for op := 0; op < total; op++ {
		for _, keep := range []int{0, 7} {
			mem := wal.NewMemFS()
			ff := wal.NewFaultFS(mem, wal.Fault{Op: op, Kind: wal.Crash})
			acked, werr := durWorkload(t, ff, pre, blocks, every)
			if !errors.Is(werr, wal.ErrCrashed) {
				t.Fatalf("op %d: workload survived the crash: %v", op, werr)
			}
			img := mem.CrashImage(keep)
			requireRecovered(t, img, pre, seq, acked,
				"crash@"+itoa(op)+"/keep="+itoa(keep))
		}
	}
}

// TestRecoveryAfterInjectedErrors: non-crash faults (transient write
// errors, short writes, fsync failures) abort the workload with a visible
// error, and a subsequent crash still recovers consistently — an error the
// layer surfaced must never have been acked.
func TestRecoveryAfterInjectedErrors(t *testing.T) {
	pre, blocks, err := chainsim.GenerateAccountChain(sweepProfile(), 6, 13)
	if err != nil {
		t.Fatal(err)
	}
	seq := testutil.ReplaySequential(t, pre, blocks)
	const every = 2

	clean := wal.NewFaultFS(wal.NewMemFS())
	if _, err := durWorkload(t, clean, pre, blocks, every); err != nil {
		t.Fatal(err)
	}
	total := clean.Ops()

	for op := 0; op < total; op++ {
		for _, kind := range []wal.FaultKind{wal.ErrWrite, wal.ShortWrite, wal.ErrSync} {
			mem := wal.NewMemFS()
			ff := wal.NewFaultFS(mem, wal.Fault{Op: op, Kind: kind, Keep: 3})
			acked, werr := durWorkload(t, ff, pre, blocks, every)
			if werr == nil {
				t.Fatalf("op %d kind %d: injected fault swallowed", op, kind)
			}
			// Power-loss right after the error: everything unsynced is gone.
			img := mem.CrashImage(0)
			requireRecovered(t, img, pre, seq, acked,
				"fault@"+itoa(op)+"/kind="+itoa(int(kind)))
		}
	}
}

// TestRecoveryCheckpointPreferred: with checkpoints on disk, recovery
// starts from the newest one consistent with the log, replaying only the
// suffix.
func TestRecoveryCheckpointPreferred(t *testing.T) {
	pre, blocks, err := chainsim.GenerateAccountChain(sweepProfile(), 6, 13)
	if err != nil {
		t.Fatal(err)
	}
	seq := testutil.ReplaySequential(t, pre, blocks)
	mem := wal.NewMemFS()
	if _, err := durWorkload(t, mem, pre, blocks, 2); err != nil {
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
	// 6 blocks, every=2 → checkpoints at 1, 3, 5; newest is 5.
	if rec.Checkpoint != 5 {
		t.Fatalf("recovered from checkpoint %d, want 5", rec.Checkpoint)
	}
	if len(rec.Blocks) != 0 {
		t.Fatalf("%d replay blocks after a tip checkpoint", len(rec.Blocks))
	}
	st, err := rec.State.Materialize()
	if err != nil {
		t.Fatalf("materialize: %v", err)
	}
	if got, want := st.Root(), seq.Roots[len(blocks)-1]; got != want {
		t.Fatalf("checkpoint state root %s, want %s", got.Short(), want.Short())
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

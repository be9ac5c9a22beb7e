package wal_test

import (
	"strings"
	"testing"

	"txconcur/internal/chainsim"
	"txconcur/internal/exec"
	"txconcur/internal/exec/testutil"
	"txconcur/internal/wal"
)

// TestCheckpointClearedSlotRecoversAsZero: a storage slot cleared between two
// checkpoints the engine delivered through the Checkpointer is stored as
// an explicit zero in the newer generation, so recovery from the store
// reads the slot as zero instead of the older generation's word.
func TestCheckpointClearedSlotRecoversAsZero(t *testing.T) {
	pre, blocks, token, slot := testutil.ClearedSlotChain()
	seq := testutil.ReplaySequential(t, pre, blocks)
	if testutil.ReplaySequential(t, pre, blocks[:2]).Final.GetStorage(token, slot) == 0 {
		t.Fatal("fixture: slot is zero at the first checkpoint")
	}

	mem := wal.NewMemFS()
	d, err := wal.Open(mem, "dur", wal.SyncEachRecord)
	if err != nil {
		t.Fatal(err)
	}
	for _, blk := range blocks {
		if _, err := d.Log().Append(blk); err != nil {
			t.Fatal(err)
		}
	}
	ck := d.Checkpointer(2)
	e := exec.Sharded{Workers: 4, Shards: 2, Depth: 2, Checkpoint: ck}
	res, css, err := e.ExecuteChain(pre.Copy(), blocks)
	if err != nil {
		t.Fatal(err)
	}
	seq.RequireChain(t, "cleared-slot chain", res.Root, res.Receipts)
	if ck.Err() != nil || ck.Written() != 2 || css.CheckpointsSkipped != 0 {
		t.Fatalf("wrote %d checkpoints (%d skipped), err %v; want both", ck.Written(), css.CheckpointsSkipped, ck.Err())
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d, err = wal.Open(mem.CrashImage(0), "dur", wal.SyncEachRecord)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rec, err := d.Recover(pre)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Checkpoint != int64(len(blocks)-1) || len(rec.Blocks) != 0 {
		t.Fatalf("recovered checkpoint %d with %d suffix blocks, want the tip", rec.Checkpoint, len(rec.Blocks))
	}
	if v := rec.State.GetStorage(token, slot); v != 0 {
		t.Fatalf("cleared slot recovers as %d through fault-in", v)
	}
	st, err := rec.State.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := st.Root(), seq.Root(); got != want {
		t.Fatalf("recovered root %s, oracle has %s", got.Short(), want.Short())
	}
}

// TestCheckpointCorruptStoreReplaysFromGenesis: damage in the newest store
// generation fails its validation when the directory opens; recovery then
// ignores the store and replays the whole log over genesis to the oracle
// root, while further checkpoints are refused.
func TestCheckpointCorruptStoreReplaysFromGenesis(t *testing.T) {
	pre, blocks, err := chainsim.GenerateAccountChain(sweepProfile(), 6, 13)
	if err != nil {
		t.Fatal(err)
	}
	seq := testutil.ReplaySequential(t, pre, blocks)
	mem := wal.NewMemFS()
	if _, err := durWorkload(t, mem, pre, blocks, 2); err != nil {
		t.Fatal(err)
	}
	names, err := mem.ListDir("dur/" + wal.StateDirName)
	if err != nil || len(names) == 0 {
		t.Fatalf("no store generations: %v", err)
	}
	newest := "dur/" + wal.StateDirName + "/" + names[len(names)-1]
	if !strings.HasSuffix(newest, ".tbl") {
		t.Fatalf("newest store file %s is not a table", newest)
	}
	data, _ := mem.ReadFileVolatile(newest)
	data[len(data)-1] ^= 0xff
	mem.Install(newest, data)

	d, err := wal.Open(mem, "dur", wal.SyncEachRecord)
	if err != nil {
		t.Fatalf("open with a corrupt store: %v", err)
	}
	rec, err := d.Recover(pre)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Checkpoint != -1 || len(rec.Blocks) != len(blocks) {
		t.Fatalf("recovered from checkpoint %d with %d blocks, want genesis and %d", rec.Checkpoint, len(rec.Blocks), len(blocks))
	}
	if err := d.WriteCheckpoint(uint64(len(blocks)-1), pre); err == nil {
		t.Fatal("checkpoint written into a corrupt store")
	}
	d.Close()
	requireRecovered(t, mem, pre, seq, len(blocks), "corrupt newest generation")
}

// TestCheckpointStoreAheadOfLog: under SyncManual a crash can lose log
// records a checkpoint already covers. The store then claims more blocks
// than the log holds, so recovery ignores it and replays the surviving log
// over genesis — the log is the truth.
func TestCheckpointStoreAheadOfLog(t *testing.T) {
	pre, blocks, err := chainsim.GenerateAccountChain(sweepProfile(), 6, 13)
	if err != nil {
		t.Fatal(err)
	}
	seq := testutil.ReplaySequential(t, pre, blocks)
	mem := wal.NewMemFS()
	d, err := wal.Open(mem, "dur", wal.SyncManual)
	if err != nil {
		t.Fatal(err)
	}
	const synced, ckpt = 2, 3 // blocks 0–1 durable, checkpoint after block 3
	for i, blk := range blocks {
		if _, err := d.Log().Append(blk); err != nil {
			t.Fatal(err)
		}
		if i == synced-1 {
			if err := d.Log().Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	after := testutil.ReplaySequential(t, pre, blocks[:ckpt+1]).Final
	if err := d.WriteCheckpoint(ckpt, changeSet(pre, after)); err != nil {
		t.Fatal(err)
	}
	img := mem.CrashImage(0) // power loss before the next group sync

	d2, err := wal.Open(img, "dur", wal.SyncEachRecord)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := d2.Recover(pre)
	d2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rec.NextIndex != synced || rec.Checkpoint != -1 || len(rec.Blocks) != synced {
		t.Fatalf("recovered %d durable blocks from checkpoint %d with %d to replay, want %d from genesis",
			rec.NextIndex, rec.Checkpoint, len(rec.Blocks), synced)
	}
	requireRecovered(t, img, pre, seq, synced, "store ahead of log")
}

// BenchmarkCheckpoint: one change-set checkpoint of ~200 Shard Uniform
// transfers over the profile's 30k-account state, written into a store
// that keeps growing and merging across iterations as it does in a
// running node.
func BenchmarkCheckpoint(b *testing.B) {
	p := chainsim.ShardUniformProfile()
	p.Eras[0].TxPerBlock, p.Eras[0].TxPerBlockJitter = 200, 0
	pre, blocks, err := chainsim.GenerateAccountChain(p, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	changes := changeSet(pre, testutil.ReplaySequential(b, pre, blocks).Final)
	d, err := wal.Open(wal.NewMemFS(), "dur", wal.SyncEachRecord)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.WriteCheckpoint(uint64(i), changes); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(blocks[0].Txs)), "txs/ckpt")
	b.ReportMetric(float64(len(pre.Export().Accounts)), "accounts")
}

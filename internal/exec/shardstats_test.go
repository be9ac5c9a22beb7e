package exec

import (
	"testing"

	"txconcur/internal/chainsim"
)

// checkShardStats asserts the ShardStats bookkeeping invariants for one
// block run:
//
//   - Intra + Cross equals the block's transaction count, and the per-shard
//     phase-1 counts partition it.
//   - CrossAborts never exceeds Cross, and batched staged commits never
//     overlap the aborted set.
//   - MergeUnits is bounded by the sequential merge's cost (one unit per
//     abort for the wave run plus at most one redo each) — the parallel
//     merge may only compress the tail, never inflate it.
//   - Fallback is set exactly when the per-transaction repair was
//     exhausted: the repair suffix covered every transaction.
func checkShardStats(t *testing.T, label string, txs int, ss *ShardStats, st *Stats) {
	t.Helper()
	if ss.Intra+ss.Cross != txs {
		t.Fatalf("%s: intra %d + cross %d != %d txs", label, ss.Intra, ss.Cross, txs)
	}
	sum := 0
	for _, n := range ss.PerShardTxs {
		sum += n
	}
	if sum != txs {
		t.Fatalf("%s: per-shard counts sum to %d, want %d", label, sum, txs)
	}
	if len(ss.PerShardTxs) != ss.Shards {
		t.Fatalf("%s: %d per-shard entries for %d shards", label, len(ss.PerShardTxs), ss.Shards)
	}
	if ss.CrossAborts > ss.Cross {
		t.Fatalf("%s: CrossAborts %d > Cross %d", label, ss.CrossAborts, ss.Cross)
	}
	if ss.BatchedStage > ss.Cross-ss.CrossAborts {
		t.Fatalf("%s: BatchedStage %d overlaps aborts (cross %d, aborts %d)",
			label, ss.BatchedStage, ss.Cross, ss.CrossAborts)
	}
	if ss.MergeUnits > 2*ss.CrossAborts {
		t.Fatalf("%s: MergeUnits %d exceeds sequential bound %d", label, ss.MergeUnits, 2*ss.CrossAborts)
	}
	if ss.Repairs > txs {
		t.Fatalf("%s: Repairs %d > %d txs", label, ss.Repairs, txs)
	}
	if ss.Fallback != (txs > 0 && ss.Repairs == txs) {
		t.Fatalf("%s: Fallback %v inconsistent with Repairs %d of %d txs",
			label, ss.Fallback, ss.Repairs, txs)
	}
	if st != nil {
		// Retries counts re-execution events, Conflicted distinct
		// serialised transactions; every abort and repair is an event.
		if st.Conflicted > st.Txs {
			t.Fatalf("%s: Conflicted %d > Txs %d", label, st.Conflicted, st.Txs)
		}
		if st.Retries < st.Conflicted {
			t.Fatalf("%s: Retries %d < Conflicted %d", label, st.Retries, st.Conflicted)
		}
		if st.Retries < ss.CrossAborts {
			t.Fatalf("%s: Retries %d < CrossAborts %d", label, st.Retries, ss.CrossAborts)
		}
	}
}

// TestShardedSequentialMergeEquivalence: the SequentialMerge knob must not
// change any result — only the schedule. It also bounds the parallel
// merge from above: waves can only compress the merge's unit cost.
func TestShardedSequentialMergeEquivalence(t *testing.T) {
	pre, blocks, err := chainsim.GenerateAccountChain(chainsim.ShardCrossHeavyProfile(), 5, 23)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []bool{false, true} {
		work := pre.Copy()
		for bi, blk := range blocks {
			par, pss, err := Sharded{Workers: 8, Shards: 4, OpLevel: op}.ExecuteSharded(work.Copy(), blk)
			if err != nil {
				t.Fatal(err)
			}
			seq, sss, err := Sharded{Workers: 8, Shards: 4, OpLevel: op, SequentialMerge: true}.
				ExecuteSharded(work.Copy(), blk)
			if err != nil {
				t.Fatal(err)
			}
			if par.Root != seq.Root {
				t.Fatalf("op=%v block %d: SequentialMerge changed the root", op, bi)
			}
			if pss.Cross != sss.Cross || pss.CrossAborts != sss.CrossAborts {
				t.Fatalf("op=%v block %d: classification drifted: %+v vs %+v", op, bi, pss, sss)
			}
			if pss.MergeUnits > sss.MergeUnits {
				t.Fatalf("op=%v block %d: parallel merge units %d exceed sequential %d",
					op, bi, pss.MergeUnits, sss.MergeUnits)
			}
			if _, _, err := (Sharded{Workers: 8, Shards: 4, OpLevel: op}).ExecuteSharded(work, blk); err != nil {
				t.Fatal(err)
			}
		}
	}
}

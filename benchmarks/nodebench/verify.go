package main

import (
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"txconcur/internal/account"
	"txconcur/internal/exec"
	"txconcur/internal/types"
	"txconcur/internal/wal"
)

// verdict is what the correctness gate learns on the way: where each
// transaction landed, how long the sequential oracle took to apply the same
// blocks, and how long a cold recovery took.
type verdict struct {
	// txBlock maps a stream position to the index of the block that
	// committed it, -1 for a transaction that was never offered.
	txBlock []int32
	// admitted is the pool's admission stamp per stream position.
	admitted  []time.Time
	committed int
	// oracleApply is the time the oracle spent in ApplyTransaction over the
	// committed blocks (no roots, no comparisons): the single-thread cost of
	// the same work.
	oracleApply time.Duration
	// badAcks counts durable acks that were missing or carried an error.
	badAcks  int
	recoverS float64
}

type senderNonce struct {
	from  types.Address
	nonce uint64
}

// verify is the correctness gate. It runs after the timed window and any
// error means the run's numbers are not reported.
func verify(n *node, ld *load) (*verdict, error) {
	v := &verdict{
		txBlock:  make([]int32, len(n.stream.txs)),
		admitted: make([]time.Time, len(n.stream.txs)),
	}
	if len(n.leftovers) != 0 {
		return nil, fmt.Errorf("builder left %d transactions unpackable", len(n.leftovers))
	}
	if len(n.commits) != len(n.blocks) || len(n.result.Receipts) != len(n.blocks) {
		return nil, fmt.Errorf("%d blocks built, %d commit callbacks, %d receipt sets",
			len(n.blocks), len(n.commits), len(n.result.Receipts))
	}

	// Every admitted transaction is in exactly one block.
	pos := make(map[senderNonce]int32, len(n.stream.txs))
	for i, p := range n.stream.txs {
		pos[senderNonce{p.Tx.From, p.Tx.Nonce}] = int32(i)
		v.txBlock[i] = -1
	}
	for b, rec := range n.blocks {
		for j, tx := range rec.blk.Txs {
			i, ok := pos[senderNonce{tx.From, tx.Nonce}]
			if !ok || ld.due[i].IsZero() {
				return nil, fmt.Errorf("block %d holds a transaction that was never offered (%s nonce %d)", b, tx.From.Short(), tx.Nonce)
			}
			if v.txBlock[i] >= 0 {
				return nil, fmt.Errorf("stream position %d committed twice (blocks %d and %d)", i, v.txBlock[i], b)
			}
			v.txBlock[i] = int32(b)
			v.admitted[i] = rec.admitted[j]
			v.committed++
		}
	}
	if admitted := ld.offered - ld.refused - ld.backlog; v.committed != admitted {
		return nil, fmt.Errorf("committed %d of %d admitted transactions", v.committed, admitted)
	}

	if err := v.replay(n); err != nil {
		return nil, err
	}
	if n.w.durable {
		if err := v.checkDurable(n, ld); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// replay applies the built blocks on a plain StateDB the way
// mempool.Builder validates them — deferred fees, then the block reward —
// and compares every receipt and the one final root with the streamed
// chain's. It deliberately takes no per-block roots: a root walks the whole
// state, and thousands of them would dwarf the replay.
func (v *verdict) replay(n *node) error {
	st := n.stream.pre.Copy()
	proc := account.Processor{DeferCoinbase: true}
	oracle := make([][]*account.Receipt, len(n.blocks))
	start := time.Now()
	for b, rec := range n.blocks {
		blk := rec.blk
		rs := make([]*account.Receipt, len(blk.Txs))
		for j, tx := range blk.Txs {
			r, err := proc.ApplyTransaction(st, blk, tx)
			if err != nil {
				return fmt.Errorf("oracle: block %d tx %d: %w", b, j, err)
			}
			rs[j] = r
		}
		st.AddBalance(blk.Coinbase, account.Fees(blk.Txs, rs))
		st.AddBalance(blk.Coinbase, account.BlockReward)
		st.DiscardJournal()
		oracle[b] = rs
	}
	v.oracleApply = time.Since(start)

	for b, want := range oracle {
		got := n.result.Receipts[b]
		if len(got) != len(want) {
			return fmt.Errorf("block %d: %d receipts, oracle has %d", b, len(got), len(want))
		}
		for j := range want {
			if !sameReceipt(got[j], want[j]) {
				return fmt.Errorf("block %d tx %d: receipt differs from the oracle's", b, j)
			}
		}
	}
	if root := st.Root(); root != n.result.Root {
		return fmt.Errorf("streamed root %s != oracle root %s", n.result.Root.Short(), root.Short())
	}
	return nil
}

func sameReceipt(a, b *account.Receipt) bool {
	return a != nil && b != nil &&
		a.TxHash == b.TxHash && a.From == b.From && a.To == b.To &&
		a.GasUsed == b.GasUsed && a.Status == b.Status && a.ExecErr == b.ExecErr &&
		slices.Equal(a.Internal, b.Internal) && slices.Equal(a.Logs, b.Logs)
}

// checkDurable requires every durable ack to have resolved nil, then closes
// the durability directory, reopens it cold, recovers (newest checkpoint
// plus sharded replay of the log suffix) and requires the recovered root
// and every acked block.
func (v *verdict) checkDurable(n *node, ld *load) error {
	for i, ack := range ld.acks {
		if ack == nil {
			continue
		}
		select {
		case err := <-ack:
			if err != nil {
				v.badAcks++
			}
		default:
			v.badAcks++
		}
		if v.txBlock[i] < 0 {
			return fmt.Errorf("stream position %d was acked but never committed", i)
		}
	}

	if err := n.walDir.Close(); err != nil {
		return fmt.Errorf("close wal: %w", err)
	}
	n.walDir = nil
	start := time.Now()
	d, err := wal.Open(wal.OS{}, filepath.Join(n.workDir, "wal"), wal.SyncEachRecord)
	if err != nil {
		return fmt.Errorf("reopen wal: %w", err)
	}
	defer d.Close()
	rec, err := d.Recover(n.stream.pre)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	st, err := rec.State.Materialize()
	if err != nil {
		return fmt.Errorf("recover: materialize: %w", err)
	}
	root := st.Root()
	if len(rec.Blocks) > 0 {
		eng := exec.Sharded{Workers: execWorkers, Shards: execShards, Depth: execDepth, OpLevel: true}
		res, _, err := eng.ExecuteChain(st, rec.Blocks)
		if err != nil {
			return fmt.Errorf("recover: replay: %w", err)
		}
		root = res.Root
	}
	v.recoverS = time.Since(start).Seconds()
	if root != n.result.Root {
		return fmt.Errorf("recovered root %s != live root %s", root.Short(), n.result.Root.Short())
	}
	recs := d.Records()
	if len(recs) != len(n.blocks) {
		return fmt.Errorf("log holds %d blocks, the run built %d", len(recs), len(n.blocks))
	}
	for b, r := range recs {
		if r.Block.Hash() != n.blocks[b].blk.Hash() {
			return fmt.Errorf("log record %d is not the block the run acked", b)
		}
	}
	return nil
}

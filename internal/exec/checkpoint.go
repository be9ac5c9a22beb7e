package exec

import (
	"runtime"

	"txconcur/internal/account"
	"txconcur/internal/mvstore"
)

// CheckpointSink receives asynchronous change sets of committed chain
// state from the sharded chain drivers. wal.Checkpointer is the production
// implementation; the seam keeps exec free of any dependency on the
// durability layer.
//
// Checkpoint is called from a dedicated worker goroutine — never the
// commit path — with the chain-wide index of the last block included and
// a private StateDB (journal empty) that holds a change set, not the
// state: every key committed since the previous delivered checkpoint, at
// its value after block idx. The first call is relative to the chain's
// starting state; a skipped point (ChainShardStats.CheckpointsSkipped)
// folds its keys into the next delivered one. Installing the delivered
// sets in order over the starting state (basestore.InstallEntry of each
// basestore.StateEntries entry) therefore reproduces the committed state
// after each idx. A storage slot cleared to zero stays in the set as an
// explicit zero, a tombstone that deletes the slot on install. The sink
// owns st.
type CheckpointSink interface {
	// Interval is the checkpoint cadence in blocks; <= 0 disables
	// checkpointing entirely.
	Interval() int
	Checkpoint(idx int, st *account.StateDB)
}

// ckptReq asks the checkpoint worker for the values of keys as of the
// commit timestamp ts (block index idx). The committer pins every shard's
// store at ts before enqueueing so epoch GC cannot reclaim the versions
// the worker will read; the worker releases the pins as soon as it has
// resolved.
type ckptReq struct {
	idx  int
	ts   uint64
	keys []StateKey
	pins []*mvstore.Snapshot[StateKey, stateVal]
}

// startCheckpoints launches the checkpoint worker if the engine has a
// sink with a positive interval. Called once per chain, before any block
// commits.
func (c *shardedChain) startCheckpoints(sink CheckpointSink) {
	if sink == nil || sink.Interval() <= 0 {
		return
	}
	c.ckptEvery = sink.Interval()
	c.ckptCh = make(chan ckptReq, 2)
	c.dirtySeen = make(map[StateKey]struct{})
	c.ckptWG.Add(1)
	go func() {
		defer c.ckptWG.Done()
		for req := range c.ckptCh {
			st := c.changeSet(req.keys, req.ts)
			for _, p := range req.pins {
				p.Release()
			}
			sink.Checkpoint(req.idx, st)
		}
	}()
}

// markDirty adds one committed key to the pending change set, once.
func (c *shardedChain) markDirty(k StateKey) {
	if _, ok := c.dirtySeen[k]; !ok {
		c.dirtySeen[k] = struct{}{}
		c.dirty = append(c.dirty, k)
	}
}

// enqueueCheckpoint hands the current commit point and the keys committed
// since the last delivered one to the worker without ever blocking the
// commit path: if the worker is still busy (two requests deep), the
// checkpoint is skipped — a longer replay after a crash, never commit
// latency — and the keys stay pending for the next point.
func (c *shardedChain) enqueueCheckpoint(idx int, ts uint64) {
	req := ckptReq{idx: idx, ts: ts, keys: c.dirty, pins: make([]*mvstore.Snapshot[StateKey, stateVal], len(c.mvs))}
	for sh := range c.mvs {
		req.pins[sh] = c.mvs[sh].PinAt(ts)
	}
	select {
	case c.ckptCh <- req:
		c.css.Checkpoints++
		c.dirty = make([]StateKey, 0, len(req.keys))
		clear(c.dirtySeen)
	default:
		for _, p := range req.pins {
			p.Release()
		}
		c.css.CheckpointsSkipped++
	}
}

// closeCheckpoints drains and stops the worker. Idempotent; called on
// every chain exit path (and before finishChain folds into c.st, which
// the worker reads as its immutable base).
func (c *shardedChain) closeCheckpoints() {
	if c.ckptCh == nil {
		return
	}
	c.ckptOnce.Do(func() {
		close(c.ckptCh)
		c.ckptWG.Wait()
	})
}

// changeSet builds the checkpoint payload: each key's committed value at
// timestamp ts. Runs on the checkpoint worker concurrently with commits
// at timestamps above ts, which is safe: version nodes are immutable,
// ResolvedAt skips anything newer than ts, and the caller's pins keep GC
// at bay.
func (c *shardedChain) changeSet(keys []StateKey, ts uint64) *account.StateDB {
	var e account.StateExport
	for _, k := range keys {
		v := c.valueAt(k, ts)
		switch k.Kind {
		case kindBalance:
			e.Accounts = append(e.Accounts, account.AccountExport{Addr: k.Addr, Balance: v.i64, HasBalance: true})
		case kindNonce:
			e.Accounts = append(e.Accounts, account.AccountExport{Addr: k.Addr, Nonce: v.u64, HasNonce: true})
		case kindCode:
			e.Accounts = append(e.Accounts, account.AccountExport{Addr: k.Addr, Code: v.bytes, HasCode: true})
		case kindStorage:
			// Restore keeps a zero word: the tombstone of a cleared slot.
			e.Storage = append(e.Storage, account.StorageExport{Addr: k.Addr, Slot: k.Slot, Value: v.u64})
		}
	}
	return e.Restore()
}

// valueAt resolves one committed key at the pinned timestamp ts. The
// newest visible version across shards wins: migration leaves superseded
// copies behind on a key's previous shards, and a key commits on exactly
// one shard per timestamp. A key no shard holds at ts was evicted, and a
// delta-only chain is an increment over the evicted value; both resolve
// through c.bs (the backend, then the pre-chain state). While ts is pinned
// an eviction only persists and drops chains already resolved at ts, but
// one landing mid-resolve could hide the owner's chain behind a stale
// migration copy, or persist a delta the scan already counted; evictSeq
// is odd while evictShards persists and drops, so such a resolve is
// repeated.
func (c *shardedChain) valueAt(k StateKey, ts uint64) stateVal {
	for {
		seq := c.evictSeq.Load()
		var v stateVal
		var newest uint64
		found, anchored := false, false
		for _, mv := range c.mvs {
			if sv, a, n, ok := mv.ResolvedAt(k, ts); ok && (!found || n > newest) {
				v, newest, found, anchored = sv, n, true, a
			}
		}
		if !anchored {
			base := baseVal(c.bs, k)
			base.i64 += v.i64 // deltas exist only for balances; zero when !found
			v = base
		}
		if seq&1 == 0 && c.evictSeq.Load() == seq {
			return v
		}
		runtime.Gosched()
	}
}

package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"txconcur/internal/account"
	"txconcur/internal/basestore"
)

// StateDirName is the directory, inside a durability directory, that holds
// the checkpoint store.
const StateDirName = "state"

// ckptMetaKey keys the one non-state entry of every checkpoint generation:
// its value is the big-endian block index the checkpoint covers. The
// single zero byte is shorter than any encoded state key, so it always
// sorts (and is written) first.
var ckptMetaKey = []byte{0x00}

// Checkpoints live in one basestore.Store under StateDirName. Each
// checkpoint is one generation: the change set the execution engine
// delivered (every state key committed since the previous checkpoint,
// cleared storage slots as explicit zeros) plus the meta entry. Stacked
// newest-wins over genesis, the generations up to the newest are the
// committed state after its index, and the store's size-tiered merges
// drop the values later checkpoints superseded. The tables' per-frame
// CRCs and strict key order detect damage, and their in-RAM key index is
// what makes recovery lazy — LazyState faults values in on demand.
//
// The change sets are relative to the chain the Checkpointer is attached
// to, so that chain must start at log index 0 from the genesis later
// passed to Recover.

// Dir is one durability directory: the block log plus the checkpoint
// store, all accessed through the same FS seam.
type Dir struct {
	log  *Log
	recs []Record
	// store is nil when the checkpoint store failed validation on open.
	// storeErr latches that, or the first failed checkpoint write: a
	// change set the store missed is never covered by a later one, so
	// after a failure WriteCheckpoint refuses every later checkpoint and
	// recovery replays from the last one written.
	store    *basestore.Store
	storeErr error
}

// Open opens (creating if needed) the durability directory at path: the
// block log is opened and scanned (torn tails truncated) and the
// checkpoint store's tables are validated and indexed. A corrupt store is
// not an error here — it costs a full replay in Recover, never the log.
func Open(fsys FS, path string, policy SyncPolicy) (*Dir, error) {
	if err := fsys.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir %s: %w", path, err)
	}
	log, recs, err := OpenLog(fsys, filepath.Join(path, LogName), policy)
	if err != nil {
		return nil, err
	}
	d := &Dir{log: log, recs: recs}
	d.store, err = basestore.OpenStore(fsys, filepath.Join(path, StateDirName))
	if errors.Is(err, basestore.ErrCorrupt) {
		d.storeErr = fmt.Errorf("wal: checkpoint store: %w", err)
	} else if err != nil {
		log.Close()
		return nil, err
	}
	return d, nil
}

// Log returns the directory's block log.
func (d *Dir) Log() *Log { return d.log }

// Records returns the valid records found when the log was opened.
func (d *Dir) Records() []Record { return d.recs }

// Close closes the block log and the checkpoint store.
func (d *Dir) Close() error {
	if d.store != nil {
		d.store.Close()
	}
	return d.log.Close()
}

// WriteCheckpoint durably records the change set of a checkpoint at block
// index: changes holds every key committed since the previous checkpoint
// (see exec.CheckpointSink), at its value after block index. The entries
// and the meta entry go to the store as one generation, atomically, so a
// crash at any stage leaves at worst a stale temp file and the previous
// checkpoint — never a torn one that recovery could trust. Not safe for
// concurrent use; the engine's single checkpoint worker is the writer.
func (d *Dir) WriteCheckpoint(index uint64, changes *account.StateDB) error {
	if d.storeErr != nil {
		return d.storeErr
	}
	entries := append(basestore.StateEntries(changes), basestore.Entry{Key: ckptMetaKey, Val: basestore.EncodeU64(index)})
	if err := d.store.Apply(entries); err != nil {
		d.storeErr = fmt.Errorf("wal: write checkpoint %d: %w", index, err)
		return d.storeErr
	}
	return nil
}

// checkpointIndex reads the block index of the newest checkpoint in the
// store; ok is false when there is none or it cannot be read.
func (d *Dir) checkpointIndex() (uint64, bool) {
	if d.store == nil {
		return 0, false
	}
	meta, ok, err := d.store.Get(ckptMetaKey)
	if err != nil || !ok {
		return 0, false
	}
	idx, err := basestore.DecodeU64(meta)
	return idx, err == nil
}

// Recovery is the outcome of Recover: the state to resume from and the
// log suffix to replay through the execution engine.
type Recovery struct {
	// Checkpoint is the block index of the checkpoint used, -1 when
	// recovery starts from genesis.
	Checkpoint int64
	// State is the recovered base state behind a fault-in view: a copy of
	// genesis, with the checkpoint store's values faulted in over it as
	// keys are touched. Replaying Blocks on it reproduces the durable
	// chain; call Materialize for a plain StateDB. It reads the store
	// until Materialize, so materialise before closing the Dir.
	State *LazyState
	// Blocks is the log suffix after the checkpoint, in chain order.
	Blocks []*account.Block
	// NextIndex is one past the last durable block — where the builder
	// resumes appending.
	NextIndex uint64
}

// Recover returns the newest checkpoint consistent with the log plus the
// log suffix to replay. The log is the truth: a store that failed
// validation, has no readable meta entry, or claims blocks the (possibly
// truncated) log does not hold is ignored, and recovery replays the whole
// log over genesis. Deterministic: the same durable bytes always produce
// the same Recovery.
func (d *Dir) Recover(genesis *account.StateDB) (*Recovery, error) {
	recs := d.recs
	out := &Recovery{Checkpoint: -1, NextIndex: d.log.NextIndex()}
	suffixFrom := uint64(0)
	if idx, ok := d.checkpointIndex(); ok && len(recs) > 0 && idx <= recs[len(recs)-1].Index {
		out.Checkpoint = int64(idx)
		out.State = newLazyState(d.store, genesis.Copy())
		suffixFrom = idx + 1
	} else {
		if len(recs) > 0 && recs[0].Index != 0 {
			return nil, fmt.Errorf("wal: log starts at %d with no usable checkpoint", recs[0].Index)
		}
		out.State = eagerLazyState(genesis.Copy())
	}
	for _, r := range recs {
		if r.Index >= suffixFrom {
			out.Blocks = append(out.Blocks, r.Block)
		}
	}
	return out, nil
}

// Checkpointer writes checkpoints into a Dir and satisfies the execution
// engine's CheckpointSink seam. Failures are recorded, not fatal: a
// checkpoint that cannot be written only lengthens replay.
type Checkpointer struct {
	d     *Dir
	every int

	mu      sync.Mutex
	written int
	err     error
}

// Checkpointer returns a sink that checkpoints every `every` committed
// blocks (0 disables checkpointing).
func (d *Dir) Checkpointer(every int) *Checkpointer {
	return &Checkpointer{d: d, every: every}
}

// Interval returns the checkpoint interval in blocks.
func (c *Checkpointer) Interval() int { return c.every }

// Checkpoint writes the change set delivered for block idx. Called from
// the engine's checkpoint worker goroutine, never the commit path.
func (c *Checkpointer) Checkpoint(idx int, st *account.StateDB) {
	err := c.d.WriteCheckpoint(uint64(idx), st)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		if c.err == nil {
			c.err = err
		}
		return
	}
	c.written++
}

// Written returns the number of checkpoints successfully written.
func (c *Checkpointer) Written() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.written
}

// Err returns the first checkpoint-write failure, if any.
func (c *Checkpointer) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

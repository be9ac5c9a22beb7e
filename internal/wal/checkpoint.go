package wal

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"txconcur/internal/account"
	"txconcur/internal/basestore"
)

const (
	ckptPrefix = "checkpoint-"
	ckptSuffix = ".ckpt"
)

// ckptMetaKey keys the one non-state entry of a checkpoint table: its
// value is the big-endian block index the checkpoint covers, validated
// against the filename on open. The single zero byte is shorter than any
// encoded state key, so it always sorts (and is written) first.
var ckptMetaKey = []byte{0x00}

// A checkpoint file is a basestore sorted table: the meta entry followed
// by basestore.StateEntries of the committed state after applying blocks
// [0, index] of the log. The table's per-frame CRCs and strict key order
// replace the old whole-file checksum, and its in-RAM key index is what
// makes recovery lazy — Recover opens the index without touching the
// values; the suffix replay faults keys in on demand.

// checkpointName returns the filename for a checkpoint at the given block
// index; the fixed-width hex index makes lexical order equal numeric order.
func checkpointName(index uint64) string {
	return fmt.Sprintf("%s%016x%s", ckptPrefix, index, ckptSuffix)
}

// parseCheckpointName inverts checkpointName.
func parseCheckpointName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix)
	if len(hex) != 16 {
		return 0, false
	}
	idx, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return idx, true
}

// Dir is one durability directory: the block log plus any number of
// versioned checkpoint files, all accessed through the same FS seam.
type Dir struct {
	fsys   FS
	path   string
	policy SyncPolicy
	log    *Log
	recs   []Record
}

// Open opens (creating if needed) the durability directory at path: the
// block log is opened and scanned (torn tails truncated), checkpoint files
// are left untouched until Recover.
func Open(fsys FS, path string, policy SyncPolicy) (*Dir, error) {
	if err := fsys.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir %s: %w", path, err)
	}
	log, recs, err := OpenLog(fsys, filepath.Join(path, LogName), policy)
	if err != nil {
		return nil, err
	}
	return &Dir{fsys: fsys, path: path, policy: policy, log: log, recs: recs}, nil
}

// Log returns the directory's block log.
func (d *Dir) Log() *Log { return d.log }

// Records returns the valid records found when the log was opened.
func (d *Dir) Records() []Record { return d.recs }

// Close closes the block log.
func (d *Dir) Close() error { return d.log.Close() }

// WriteCheckpoint atomically writes the committed state after block index
// as a versioned checkpoint file. A crash at any stage leaves at worst a
// stale temp file and the previous checkpoints — never a torn checkpoint
// that recovery could trust.
func (d *Dir) WriteCheckpoint(index uint64, st *account.StateDB) error {
	entries := basestore.StateEntries(st)
	all := make([]basestore.Entry, 0, len(entries)+1)
	all = append(all, basestore.Entry{Key: ckptMetaKey, Val: basestore.EncodeU64(index)})
	all = append(all, entries...)
	path := filepath.Join(d.path, checkpointName(index))
	tbl, err := basestore.WriteTable(d.fsys, path, all)
	if err != nil {
		return fmt.Errorf("wal: write checkpoint %d: %w", index, err)
	}
	return tbl.Close() // only the file is wanted; recovery reopens and validates it
}

// openCheckpoint opens and validates one checkpoint table. Only the key
// index and the meta entry are read; state values stay on disk for
// LazyState to fault in.
func (d *Dir) openCheckpoint(name string) (*basestore.Table, error) {
	tbl, err := basestore.OpenTable(d.fsys, filepath.Join(d.path, name))
	if err != nil {
		return nil, fmt.Errorf("wal: open checkpoint %s: %w", name, err)
	}
	meta, ok, err := tbl.Get(ckptMetaKey)
	if err != nil || !ok {
		tbl.Close()
		return nil, fmt.Errorf("wal: checkpoint %s: missing meta entry", name)
	}
	idx, err := basestore.DecodeU64(meta)
	if err != nil {
		tbl.Close()
		return nil, fmt.Errorf("wal: checkpoint %s meta: %w", name, err)
	}
	if wantIdx, _ := parseCheckpointName(name); idx != wantIdx {
		tbl.Close()
		return nil, fmt.Errorf("wal: checkpoint %s claims index %d", name, idx)
	}
	return tbl, nil
}

// Recovery is the outcome of Recover: the state to resume from and the
// log suffix to replay through the execution engine.
type Recovery struct {
	// Checkpoint is the block index of the checkpoint used, -1 when
	// recovery starts from genesis.
	Checkpoint int64
	// State is the recovered base state (the checkpoint's, or a copy of
	// genesis) behind a fault-in view: only the checkpoint's key index is
	// in RAM until keys are touched. Replaying Blocks on it reproduces
	// the durable chain; call Materialize for a plain StateDB.
	State *LazyState
	// Blocks is the log suffix after the checkpoint, in chain order.
	Blocks []*account.Block
	// NextIndex is one past the last durable block — where the builder
	// resumes appending.
	NextIndex uint64
}

// Recover picks the newest valid checkpoint consistent with the log and
// returns it plus the log suffix to replay. The log is the truth: a
// checkpoint claiming blocks the (possibly truncated) log does not hold
// is ignored, as is any checkpoint that fails validation — recovery then
// falls back to an older checkpoint or to genesis. Deterministic: the
// same durable bytes always produce the same Recovery.
func (d *Dir) Recover(genesis *account.StateDB) (*Recovery, error) {
	names, err := d.fsys.ListDir(d.path)
	if err != nil {
		return nil, fmt.Errorf("wal: list %s: %w", d.path, err)
	}
	recs := d.recs
	lastIdx := int64(-1)
	if len(recs) > 0 {
		lastIdx = int64(recs[len(recs)-1].Index)
	}
	// Walk checkpoints newest-first (ListDir is sorted; the fixed-width
	// hex names sort numerically).
	var best *basestore.Table
	var bestIdx uint64
	for i := len(names) - 1; i >= 0; i-- {
		idx, ok := parseCheckpointName(names[i])
		if !ok || int64(idx) > lastIdx {
			continue
		}
		tbl, err := d.openCheckpoint(names[i])
		if err != nil {
			continue // a torn or foreign checkpoint costs replay time, never correctness
		}
		best, bestIdx = tbl, idx
		break
	}
	out := &Recovery{Checkpoint: -1, NextIndex: d.log.NextIndex()}
	suffixFrom := uint64(0)
	if best != nil {
		out.Checkpoint = int64(bestIdx)
		out.State = newLazyState(best)
		suffixFrom = bestIdx + 1
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

// Checkpoint writes the committed state after block idx. Called from the
// engine's checkpoint worker goroutine, never the commit path.
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

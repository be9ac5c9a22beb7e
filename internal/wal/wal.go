// Package wal is the crash-safe durability layer under the streaming
// block-builder service: a write-ahead block log the builder appends to
// before the executor sees a block, incremental checkpoints of committed
// state written off the commit path, and deterministic recovery that
// replays the log suffix over the latest checkpoint.
//
// Every engine in this repository keeps hot committed state in RAM
// (internal/mvstore) over the disk-backed base layer
// (internal/basestore); without this layer a restart loses the chain. The
// durability contract is the classic ARIES-style split:
//
//   - the log is the truth: a block is durable the moment its record is
//     appended and (per SyncPolicy) fsynced; the builder acks durable
//     submissions only after that point (persist-then-ack);
//   - checkpoints are an optimisation: they bound recovery replay and are
//     written by an asynchronous worker as generations of one
//     basestore.Store — each generation the keys the chain committed since
//     the previous checkpoint, cleared storage slots as explicit zeros —
//     so a checkpoint costs the blocks' changes, not the state size, and
//     the store's merges drop superseded values. Each generation is
//     written atomically (temp file, fsync, rename, directory fsync); a
//     torn, missing, corrupt or log-overtaking checkpoint costs replay
//     time, never correctness;
//   - recovery is deterministic: the same durable bytes always recover to
//     the same state, because replay runs the same deterministic engines
//     that produced the chain — roots and receipts of the replayed suffix
//     are byte-identical to the uninterrupted run. Recovery is also lazy:
//     Recover loads only the store's key index over a copy of genesis,
//     and LazyState faults stored entries in on demand during suffix
//     replay.
//
// All disk access goes through the FS seam (owned by internal/basestore,
// aliased here) so the fault-injection harness (MemFS, FaultFS) can
// deterministically crash the layer at every write, sync, rename and
// directory operation; the crash-point sweep in recovery_test.go runs
// recovery from the durable image of every such point.
package wal

import (
	"io"

	"txconcur/internal/basestore"
)

// SyncPolicy selects when the log forces appended records to stable
// storage.
type SyncPolicy int

const (
	// SyncEachRecord fsyncs the log after every appended record — the
	// policy behind persist-then-ack: when Append returns, the record
	// survives any crash. This is the default and the only policy under
	// which the builder's durable acks are honest.
	SyncEachRecord SyncPolicy = iota
	// SyncManual leaves syncing to explicit Sync calls (group commit).
	// Cheaper per record; a crash may lose the unsynced suffix, which
	// recovery truncates as a torn tail.
	SyncManual
)

// File is the subset of *os.File the durability layer writes through.
// Owned by internal/basestore (the disk-primitives leaf both layers
// share); aliased here so the WAL's API and its MemFS/FaultFS harness keep
// their historical names.
type File = basestore.File

// FS is the filesystem seam: the OS implementation for production, MemFS
// and FaultFS for the deterministic crash harness. Alias of basestore.FS.
type FS = basestore.FS

// OS is the real filesystem. Alias of basestore.OS.
type OS = basestore.OS

// tmpSuffix marks in-flight atomic writes; recovery scans skip these and
// a crash can leave them behind harmlessly.
const tmpSuffix = basestore.TmpSuffix

// WriteFileAtomic writes a file so that a crash at any point leaves either
// the old content at path or the new content — never a torn mixture; see
// basestore.WriteFileAtomic, which owns the implementation.
func WriteFileAtomic(fsys FS, path string, write func(io.Writer) error) error {
	return basestore.WriteFileAtomic(fsys, path, write)
}

package wal

import (
	"errors"
	"fmt"
	"os"
	"sync"
)

// FaultKind is the failure a FaultFS injects at a chosen operation.
type FaultKind int

const (
	// Crash simulates power loss at this operation: the op does not happen,
	// and every later operation on the filesystem fails with ErrCrashed.
	// The harness then recovers from the underlying MemFS's CrashImage.
	Crash FaultKind = iota
	// ErrWrite fails the operation with ErrInjected and no side effect —
	// a transient I/O error the caller must surface, not swallow.
	ErrWrite
	// ShortWrite applies only the first Keep bytes of a write, then fails.
	// Models a partial page reaching the device before an error.
	ShortWrite
	// ErrSync fails a Sync without advancing durability — the fsync error
	// case (the layer must treat the data as still volatile).
	ErrSync
)

// Fault schedules one injected failure: Kind fires at the Op-th mutating
// filesystem operation (0-based, in FaultFS's deterministic op order).
// Keep is the byte count a ShortWrite lets through.
type Fault struct {
	Op   int
	Kind FaultKind
	Keep int
}

// ErrCrashed is returned by every operation after an injected Crash.
var ErrCrashed = errors.New("wal: simulated crash")

// ErrInjected is the error surfaced by non-crash injected faults.
var ErrInjected = errors.New("wal: injected fault")

// FaultFS wraps an FS and deterministically injects faults by operation
// ordinal. Mutating operations (OpenFile, Write, Sync, Truncate, Rename,
// Remove, MkdirAll, SyncDir) are numbered in the order the layer issues
// them; a fault scheduled at ordinal i fires at exactly the i-th such
// call, so a crash-point sweep enumerates Ops() from a fault-free run and
// replays the workload once per ordinal. Safe for concurrent use, though
// the sweep is only deterministic for single-threaded workloads.
type FaultFS struct {
	mu      sync.Mutex
	fs      FS
	faults  map[int]Fault
	ops     int
	crashed bool
}

// NewFaultFS wraps fsys with the given fault schedule.
func NewFaultFS(fsys FS, faults ...Fault) *FaultFS {
	ff := &FaultFS{fs: fsys, faults: make(map[int]Fault)}
	for _, f := range faults {
		ff.faults[f.Op] = f
	}
	return ff
}

// Ops returns the number of mutating operations issued so far — the sweep
// bound for a fault-free run of the workload.
func (f *FaultFS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Crashed reports whether an injected Crash has fired.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// begin numbers one mutating operation and resolves its scheduled fault.
func (f *FaultFS) begin() (Fault, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return Fault{}, false, ErrCrashed
	}
	ord := f.ops
	f.ops++
	ft, ok := f.faults[ord]
	if !ok {
		return Fault{}, false, nil
	}
	if ft.Kind == Crash {
		f.crashed = true
		return ft, true, ErrCrashed
	}
	return ft, true, nil
}

// check gates non-mutating operations on crash state.
func (f *FaultFS) check() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	return nil
}

// OpenFile implements FS; opening counts as a mutation (O_CREATE/O_TRUNC
// change the namespace).
func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if _, faulted, err := f.begin(); err != nil {
		return nil, err
	} else if faulted {
		return nil, ErrInjected
	}
	file, err := f.fs.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultHandle{fs: f, f: file}, nil
}

// Rename implements FS.
func (f *FaultFS) Rename(oldpath, newpath string) error {
	if _, faulted, err := f.begin(); err != nil {
		return err
	} else if faulted {
		return ErrInjected
	}
	return f.fs.Rename(oldpath, newpath)
}

// Remove implements FS.
func (f *FaultFS) Remove(name string) error {
	if _, faulted, err := f.begin(); err != nil {
		return err
	} else if faulted {
		return ErrInjected
	}
	return f.fs.Remove(name)
}

// MkdirAll implements FS.
func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	if _, faulted, err := f.begin(); err != nil {
		return err
	} else if faulted {
		return ErrInjected
	}
	return f.fs.MkdirAll(path, perm)
}

// ListDir implements FS; reading the namespace is not a mutation.
func (f *FaultFS) ListDir(dir string) ([]string, error) {
	if err := f.check(); err != nil {
		return nil, err
	}
	return f.fs.ListDir(dir)
}

// SyncDir implements FS.
func (f *FaultFS) SyncDir(dir string) error {
	ft, faulted, err := f.begin()
	if err != nil {
		return err
	}
	if faulted {
		if ft.Kind == ErrSync {
			return fmt.Errorf("wal: sync dir: %w", ErrInjected)
		}
		return ErrInjected
	}
	return f.fs.SyncDir(dir)
}

// faultHandle numbers a file's mutating calls through its parent FaultFS.
type faultHandle struct {
	fs *FaultFS
	f  File
}

func (h *faultHandle) Read(p []byte) (int, error) {
	if err := h.fs.check(); err != nil {
		return 0, err
	}
	return h.f.Read(p)
}

// ReadAt, like Read, is not a numbered operation, but a crashed
// filesystem refuses it.
func (h *faultHandle) ReadAt(p []byte, off int64) (int, error) {
	if err := h.fs.check(); err != nil {
		return 0, err
	}
	return h.f.ReadAt(p, off)
}

func (h *faultHandle) Seek(offset int64, whence int) (int64, error) {
	if err := h.fs.check(); err != nil {
		return 0, err
	}
	return h.f.Seek(offset, whence)
}

func (h *faultHandle) Write(p []byte) (int, error) {
	ft, faulted, err := h.fs.begin()
	if err != nil {
		return 0, err
	}
	if faulted {
		if ft.Kind == ShortWrite {
			keep := ft.Keep
			if keep > len(p) {
				keep = len(p)
			}
			n, werr := h.f.Write(p[:keep])
			if werr != nil {
				return n, werr
			}
			return n, fmt.Errorf("wal: short write %d/%d: %w", n, len(p), ErrInjected)
		}
		return 0, ErrInjected
	}
	return h.f.Write(p)
}

func (h *faultHandle) Sync() error {
	_, faulted, err := h.fs.begin()
	if err != nil {
		return err
	}
	if faulted {
		return fmt.Errorf("wal: sync: %w", ErrInjected)
	}
	return h.f.Sync()
}

func (h *faultHandle) Truncate(size int64) error {
	if _, faulted, err := h.fs.begin(); err != nil {
		return err
	} else if faulted {
		return ErrInjected
	}
	return h.f.Truncate(size)
}

func (h *faultHandle) Close() error {
	if err := h.fs.check(); err != nil {
		// Crash leaves the handle unusable; closing it is a no-op.
		return nil
	}
	return h.f.Close()
}

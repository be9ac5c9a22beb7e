// Package basestore is the disk-backed base layer below the mvstore
// version cache: immutable sorted table files with CRC-framed entries and
// an in-RAM index, written atomically (temp file, fsync, rename, directory
// fsync) the same way the WAL writes checkpoints. The execution engines
// evict cold, GC-resolved keys from the version cache into the base layer
// and read through to it on cache misses, so the cache holds only hot keys
// and total state can exceed RAM.
//
// The package also owns the filesystem seam (File, FS, OS,
// WriteFileAtomic) the whole durability stack shares; internal/wal aliases
// these so its MemFS/FaultFS crash harness drives the base layer too.
package basestore

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// File is the subset of *os.File the durability layers write through.
// ReadAt is positionless, so concurrent table readers share one handle
// without a seek lock.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.Closer
	io.Seeker
	// Sync forces written bytes to stable storage.
	Sync() error
	// Truncate cuts the file to size bytes (torn-tail removal on open).
	Truncate(size int64) error
}

// FS is the filesystem seam: the OS implementation for production,
// wal.MemFS and wal.FaultFS for the deterministic crash harness.
// Implementations must be safe for concurrent use (the log appender, the
// checkpoint writer and the base-layer evictor run on different
// goroutines).
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(path string, perm os.FileMode) error
	// ListDir returns the names (not paths) of dir's entries in sorted
	// order, so directory scans are deterministic on every backend.
	ListDir(dir string) ([]string, error)
	// SyncDir fsyncs the directory itself, making created/renamed entries
	// durable. Creating or renaming a file persists its data blocks, not
	// its directory entry; a crash before SyncDir may lose the name.
	SyncDir(dir string) error
}

// OS is the real filesystem.
type OS struct{}

// OpenFile implements FS via os.OpenFile.
func (OS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

// Rename implements FS via os.Rename.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS via os.Remove.
func (OS) Remove(name string) error { return os.Remove(name) }

// MkdirAll implements FS via os.MkdirAll.
func (OS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// ListDir implements FS via os.ReadDir (whose results are already sorted).
func (OS) ListDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

// SyncDir implements FS by fsyncing the opened directory.
func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// TmpSuffix marks in-flight atomic writes; recovery scans skip these and
// a crash can leave them behind harmlessly.
const TmpSuffix = ".tmp"

// ioBufSize is the buffer every sequential table read and atomic file
// write goes through: a table costs one syscall per ioBufSize bytes, not
// several per entry.
const ioBufSize = 256 << 10

// WriteFileAtomic writes a file so that a crash at any point leaves either
// the old content at path or the new content — never a torn mixture: the
// payload goes to path+".tmp" through one ioBufSize buffer, is flushed and
// fsynced, the temp file is renamed over path, and the directory entry is
// fsynced. Shared by the table writer, the checkpoint writer and the
// history-store savers.
func WriteFileAtomic(fsys FS, path string, write func(io.Writer) error) error {
	tmp := path + TmpSuffix
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("basestore: create %s: %w", tmp, err)
	}
	bw := bufio.NewWriterSize(f, ioBufSize)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("basestore: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("basestore: sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("basestore: close %s: %w", tmp, err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("basestore: rename %s: %w", tmp, err)
	}
	if err := fsys.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("basestore: sync dir of %s: %w", path, err)
	}
	return nil
}

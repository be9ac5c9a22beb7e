package wal

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// MemFS is an in-memory FS that models the durability semantics real
// filesystems give a crash-safe layer, with a volatile/durable split:
//
//   - file data written but not yet Synced lives only in the volatile
//     image (the page cache); Sync advances the file's durable prefix;
//   - a created or renamed name is volatile until its directory is
//     SyncDir'd: a crash can forget a rename whose directory entry never
//     hit disk, exactly the failure temp-file+rename must survive;
//   - CrashImage materialises the post-crash filesystem: durable names
//     only, each file cut to its durable prefix plus an optional torn
//     tail of unsynced bytes that happened to reach disk.
//
// Directories themselves are considered durable on creation (MkdirAll
// precedes all interesting data in this layer). MemFS is safe for
// concurrent use.
type MemFS struct {
	mu   sync.Mutex
	vols map[string]*memInode // current (volatile) namespace
	dur  map[string]*memInode // names whose directory entries are durable
	dirs map[string]bool
}

// memInode is one file's backing store. synced is the durable data
// prefix; bytes beyond it are lost (except for a torn tail) on crash.
type memInode struct {
	data   []byte
	synced int
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{
		vols: make(map[string]*memInode),
		dur:  make(map[string]*memInode),
		dirs: make(map[string]bool),
	}
}

// Install creates a file whose name and contents are already fully
// durable — the seeding primitive of the fuzz and recovery tests.
func (m *MemFS) Install(name string, data []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	node := &memInode{data: append([]byte(nil), data...)}
	node.synced = len(node.data)
	m.vols[name] = node
	m.dur[name] = node
	m.dirs[filepath.Dir(name)] = true
}

// ReadFileVolatile returns the current (volatile) contents of name, for
// test assertions.
func (m *MemFS) ReadFileVolatile(name string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	node, ok := m.vols[filepath.Clean(name)]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), node.data...), true
}

// CrashImage returns the filesystem a reboot would observe: only durable
// directory entries survive, and each file's data is its durable prefix
// plus at most keepUnsynced trailing unsynced bytes (a torn tail — disks
// persist partial pages even without fsync). keepUnsynced 0 is the
// strictest image; sweeping small positive values exercises torn-record
// truncation. The receiver is not modified.
func (m *MemFS) CrashImage(keepUnsynced int) *MemFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := NewMemFS()
	//txlint:ordered keyed copy; distinct range keys write distinct entries of the image
	for name, node := range m.dur {
		n := node.synced + keepUnsynced
		if n > len(node.data) {
			n = len(node.data)
		}
		img := &memInode{data: append([]byte(nil), node.data[:n]...), synced: node.synced}
		out.vols[name] = img
		out.dur[name] = img
	}
	for d := range m.dirs {
		out.dirs[d] = true
	}
	return out
}

// OpenFile implements FS.
func (m *MemFS) OpenFile(name string, flag int, _ os.FileMode) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	node, ok := m.vols[name]
	if !ok {
		if flag&os.O_CREATE == 0 {
			return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
		}
		node = &memInode{}
		m.vols[name] = node
	}
	if flag&os.O_TRUNC != 0 {
		node.data = node.data[:0]
		node.synced = 0
	}
	return &memHandle{fs: m, node: node}, nil
}

// Rename implements FS. The new name is volatile until its directory is
// SyncDir'd; a crash before that resurrects the old name.
func (m *MemFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	node, ok := m.vols[oldpath]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
	}
	delete(m.vols, oldpath)
	m.vols[newpath] = node
	return nil
}

// Remove implements FS. Like Rename, the removal is volatile until the
// directory is synced.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = filepath.Clean(name)
	if _, ok := m.vols[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.vols, name)
	return nil
}

// MkdirAll implements FS; directories are durable on creation.
func (m *MemFS) MkdirAll(path string, _ os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	path = filepath.Clean(path)
	for p := path; ; p = filepath.Dir(p) {
		m.dirs[p] = true
		if p == filepath.Dir(p) {
			break
		}
	}
	return nil
}

// ListDir implements FS over the volatile namespace, sorted.
func (m *MemFS) ListDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = filepath.Clean(dir)
	if !m.dirs[dir] {
		return nil, &fs.PathError{Op: "open", Path: dir, Err: fs.ErrNotExist}
	}
	var names []string
	//txlint:ordered collected names are sorted before return
	for name := range m.vols {
		if filepath.Dir(name) == dir {
			names = append(names, filepath.Base(name))
		}
	}
	sort.Strings(names)
	return names, nil
}

// SyncDir implements FS: every volatile entry directly under dir becomes
// durable, and durable entries no longer present are forgotten — the
// moment a rename or removal truly commits.
func (m *MemFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = filepath.Clean(dir)
	//txlint:ordered keyed copy; distinct range keys write distinct durable entries
	for name, node := range m.vols {
		if filepath.Dir(name) == dir {
			m.dur[name] = node
		}
	}
	//txlint:ordered keyed deletes; distinct range keys delete distinct entries
	for name := range m.dur {
		if filepath.Dir(name) != dir {
			continue
		}
		if _, live := m.vols[name]; !live {
			delete(m.dur, name)
		}
	}
	return nil
}

// fileCount returns the number of volatile entries whose name has the
// given prefix and suffix (test helper).
func (m *MemFS) fileCount(prefix, suffix string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	//txlint:ordered pure count; addition over the range commutes
	for name := range m.vols {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			n++
		}
	}
	return n
}

// memHandle is one open descriptor: a position over a shared inode.
type memHandle struct {
	fs     *MemFS
	node   *memInode
	off    int64
	closed bool
}

func (h *memHandle) Read(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, fs.ErrClosed
	}
	if h.off >= int64(len(h.node.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.node.data[h.off:])
	h.off += int64(n)
	return n, nil
}

// ReadAt implements io.ReaderAt: positionless, so it neither reads nor
// moves the handle's offset.
func (h *memHandle) ReadAt(p []byte, off int64) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, fs.ErrClosed
	}
	if off < 0 || off >= int64(len(h.node.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.node.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, fs.ErrClosed
	}
	end := h.off + int64(len(p))
	if grow := end - int64(len(h.node.data)); grow > 0 {
		h.node.data = append(h.node.data, make([]byte, grow)...)
	}
	copy(h.node.data[h.off:end], p)
	// Overwriting previously-synced bytes invalidates their durability
	// until the next sync.
	if int(h.off) < h.node.synced {
		h.node.synced = int(h.off)
	}
	h.off = end
	return len(p), nil
}

func (h *memHandle) Seek(offset int64, whence int) (int64, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return 0, fs.ErrClosed
	}
	switch whence {
	case io.SeekStart:
		h.off = offset
	case io.SeekCurrent:
		h.off += offset
	case io.SeekEnd:
		h.off = int64(len(h.node.data)) + offset
	default:
		return 0, fmt.Errorf("wal: bad whence %d", whence)
	}
	if h.off < 0 {
		h.off = 0
	}
	return h.off, nil
}

func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return fs.ErrClosed
	}
	h.node.synced = len(h.node.data)
	return nil
}

func (h *memHandle) Truncate(size int64) error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return fs.ErrClosed
	}
	if size < 0 || size > int64(len(h.node.data)) {
		return fmt.Errorf("wal: bad truncate size %d", size)
	}
	h.node.data = h.node.data[:size]
	if h.node.synced > int(size) {
		h.node.synced = int(size)
	}
	return nil
}

func (h *memHandle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.closed = true
	return nil
}

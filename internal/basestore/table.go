package basestore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// tblMagic opens every table file; the trailing bytes version the format.
var tblMagic = []byte("txconcur-tbl\x00\x01")

// maxEntrySize bounds one frame's payload (key length prefix + key +
// value), mirroring the WAL's record-size cap: a corrupt length field must
// not drive a giant allocation.
const maxEntrySize = 1 << 26

// ErrCorrupt wraps every table-validation failure, so callers can
// distinguish "this table is damaged" from I/O errors without matching
// message strings.
var ErrCorrupt = errors.New("basestore: corrupt table")

// Entry is one key/value pair of a table. Keys are raw bytes compared with
// bytes.Compare; values may be empty but never nil semantics — an absent
// key is simply not in the table.
type Entry struct {
	Key []byte
	Val []byte
}

// Table is an immutable sorted table file: an in-RAM index (keys, offsets,
// stored checksums) over on-disk values. Values stay on disk and are read
// — and CRC-verified — on every Get, so the resident cost of an open table
// is its key set, not its data.
//
// File format, after the magic:
//
//	frame  = 4B LE payloadLen | 4B LE crc32(payload) | payload
//	payload = 2B LE keyLen | key | value
//
// Keys must be strictly increasing (bytes.Compare) and the file must end
// exactly at a frame boundary; OpenTable rejects anything else with
// ErrCorrupt.
type Table struct {
	f    File     // read with ReadAt only: no shared position, no lock
	keys [][]byte // sorted, strictly increasing
	offs []int64  // offset of each payload (past the frame header)
	lens []uint32 // payload length of each frame
	crcs []uint32 // stored checksum of each payload

	// Reference count, used by Store so a compaction never closes a
	// table a concurrent reader still holds: readers acquire/release,
	// retire closes once the last reader is done.
	rcMu    sync.Mutex
	refs    int
	retired bool
}

// acquire takes a read reference; release drops it, closing the file if
// the table was retired meanwhile.
func (t *Table) acquire() {
	t.rcMu.Lock()
	t.refs++
	t.rcMu.Unlock()
}

func (t *Table) release() {
	t.rcMu.Lock()
	t.refs--
	closeNow := t.retired && t.refs == 0
	t.rcMu.Unlock()
	if closeNow {
		t.f.Close()
	}
}

// retire marks the table dead: the file closes as soon as the last
// in-flight reader releases it (immediately when there is none).
func (t *Table) retire() {
	t.rcMu.Lock()
	t.retired = true
	closeNow := t.refs == 0
	t.rcMu.Unlock()
	if closeNow {
		t.f.Close()
	}
}

// WriteTable atomically writes entries as a table file at path and returns
// the open table, serving from the index built while writing — the writer
// computed every offset and checksum itself, so its own output is not
// re-read. Entries must be sorted by key, strictly increasing; the writer
// enforces this rather than sorting so callers cannot accidentally feed it
// duplicate keys with order-dependent meaning.
func WriteTable(fsys FS, path string, entries []Entry) (*Table, error) {
	return writeTable(fsys, path, len(entries), func(tw *tableWriter) error {
		var payload []byte
		for _, e := range entries {
			if len(e.Key) > 0xffff {
				return fmt.Errorf("key too long (%d bytes)", len(e.Key))
			}
			payload = binary.LittleEndian.AppendUint16(payload[:0], uint16(len(e.Key)))
			payload = append(append(payload, e.Key...), e.Val...)
			key := append([]byte(nil), e.Key...)
			if err := tw.frame(key, payload, crc32.ChecksumIEEE(payload)); err != nil {
				return err
			}
		}
		return nil
	})
}

// writeTable runs fill against a tableWriter inside the atomic-write
// protocol, then opens the durable file under the index fill built; n is
// the (upper bound on the) number of frames, sizing the index once.
func writeTable(fsys FS, path string, n int, fill func(*tableWriter) error) (*Table, error) {
	t := &Table{keys: make([][]byte, 0, n), offs: make([]int64, 0, n), lens: make([]uint32, 0, n), crcs: make([]uint32, 0, n)}
	err := WriteFileAtomic(fsys, path, func(w io.Writer) error {
		if _, err := w.Write(tblMagic); err != nil {
			return err
		}
		return fill(&tableWriter{w: w, t: t, off: int64(len(tblMagic))})
	})
	if err != nil {
		return nil, err
	}
	if t.f, err = fsys.OpenFile(path, os.O_RDONLY, 0); err != nil {
		return nil, fmt.Errorf("basestore: open %s: %w", path, err)
	}
	return t, nil
}

// tableWriter streams frames into w and builds the table's index as it
// goes; off is the file offset of the next frame.
type tableWriter struct {
	w   io.Writer
	t   *Table
	off int64
	hdr [8]byte // frame-header scratch; a local would escape through w
}

// frame appends one encoded entry. The index retains key, which must not
// change afterwards; payload is only read during the call.
func (tw *tableWriter) frame(key, payload []byte, sum uint32) error {
	t := tw.t
	if n := len(t.keys); n > 0 && bytes.Compare(t.keys[n-1], key) >= 0 {
		return fmt.Errorf("keys not strictly increasing at %d", n)
	}
	if len(payload) > maxEntrySize {
		return fmt.Errorf("entry too large (%d bytes)", len(payload))
	}
	binary.LittleEndian.PutUint32(tw.hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(tw.hdr[4:], sum)
	if _, err := tw.w.Write(tw.hdr[:]); err != nil {
		return err
	}
	if _, err := tw.w.Write(payload); err != nil {
		return err
	}
	t.keys = append(t.keys, key)
	t.offs = append(t.offs, tw.off+int64(len(tw.hdr)))
	t.lens = append(t.lens, uint32(len(payload)))
	t.crcs = append(t.crcs, sum)
	tw.off += int64(len(tw.hdr) + len(payload))
	return nil
}

// OpenTable opens and fully validates the table file at path: magic, every
// frame's checksum and bounds, strict key order, and a clean end exactly at
// a frame boundary. On success the table's key index is resident in RAM
// and values are read through the returned Table's Get. Validation
// failures wrap ErrCorrupt; the file is closed on any error.
func OpenTable(fsys FS, path string) (*Table, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("basestore: open %s: %w", path, err)
	}
	t, err := indexTable(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	return t, nil
}

// indexTable scans f front to back, through one buffer, building the
// in-RAM index. off tracks the absolute offset of the next unread byte.
func indexTable(f File, path string) (*Table, error) {
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("basestore: table %s: %s: %w", path, fmt.Sprintf(format, args...), ErrCorrupt)
	}
	r := bufio.NewReaderSize(f, ioBufSize)
	magic := make([]byte, len(tblMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, corrupt("magic: %v", err)
	}
	if !bytes.Equal(magic, tblMagic) {
		return nil, corrupt("bad magic")
	}
	t := &Table{f: f}
	off := int64(len(magic))
	var hdr [8]byte
	var payload []byte
	for {
		n, err := io.ReadFull(r, hdr[:])
		if n == 0 && errors.Is(err, io.EOF) {
			return t, nil // clean end at a frame boundary
		}
		if err != nil {
			return nil, corrupt("truncated frame header at offset %d", off)
		}
		size := binary.LittleEndian.Uint32(hdr[:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if size < 2 || size > maxEntrySize {
			return nil, corrupt("bad frame size %d at offset %d", size, off)
		}
		off += int64(len(hdr))
		if uint32(cap(payload)) < size {
			payload = make([]byte, size)
		}
		payload = payload[:size]
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, corrupt("truncated payload at offset %d", off)
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return nil, corrupt("checksum mismatch at offset %d", off)
		}
		klen := int(binary.LittleEndian.Uint16(payload[:2]))
		if 2+klen > len(payload) {
			return nil, corrupt("key length %d exceeds payload at offset %d", klen, off)
		}
		key := append([]byte(nil), payload[2:2+klen]...)
		if n := len(t.keys); n > 0 && bytes.Compare(t.keys[n-1], key) >= 0 {
			return nil, corrupt("keys out of order at offset %d", off)
		}
		t.keys = append(t.keys, key)
		t.offs = append(t.offs, off)
		t.lens = append(t.lens, size)
		t.crcs = append(t.crcs, sum)
		off += int64(size)
	}
}

// Len returns the number of entries.
func (t *Table) Len() int { return len(t.keys) }

// Key returns the i-th key (ascending). The returned slice is the index's
// own copy; callers must not mutate it.
func (t *Table) Key(i int) []byte { return t.keys[i] }

// find returns the index of key, or -1.
func (t *Table) find(key []byte) int {
	lo, hi := 0, len(t.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(t.keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(t.keys) && bytes.Equal(t.keys[lo], key) {
		return lo
	}
	return -1
}

// Has reports whether key is present, without touching disk.
func (t *Table) Has(key []byte) bool { return t.find(key) >= 0 }

// Get reads key's value from disk, re-verifying the frame checksum, so a
// block that rotted after OpenTable is caught rather than served. The
// second result is false when the key is absent.
func (t *Table) Get(key []byte) ([]byte, bool, error) {
	i := t.find(key)
	if i < 0 {
		return nil, false, nil
	}
	v, err := t.readVal(i)
	return v, err == nil, err
}

// readVal fetches and verifies entry i's payload with one positionless
// read, returning the value.
func (t *Table) readVal(i int) ([]byte, error) {
	payload := make([]byte, t.lens[i])
	if n, err := t.f.ReadAt(payload, t.offs[i]); n < len(payload) {
		return nil, fmt.Errorf("basestore: read entry %d: %w", i, err)
	}
	if err := t.verify(i, payload); err != nil {
		return nil, err
	}
	return payloadVal(payload), nil
}

// verify re-checks entry i's payload, as read back from disk, against the
// checksum in the index.
func (t *Table) verify(i int, payload []byte) error {
	if crc32.ChecksumIEEE(payload) != t.crcs[i] {
		return fmt.Errorf("basestore: entry %d: checksum mismatch: %w", i, ErrCorrupt)
	}
	return nil
}

// payloadVal returns the value bytes of a frame payload.
func payloadVal(payload []byte) []byte {
	return payload[2+int(binary.LittleEndian.Uint16(payload[:2])):]
}

// Range calls fn for every entry in ascending key order until fn returns
// false. Values are read sequentially through one buffer and verified;
// each is a fresh copy fn may keep.
func (t *Table) Range(fn func(key, val []byte) bool) error {
	return mergeTables([]*Table{t}, func(key, payload []byte, _ uint32) (bool, error) {
		return fn(key, append([]byte(nil), payloadVal(payload)...)), nil
	})
}

// cursor walks a table's entries in order, reading the file sequentially
// through one buffer; r is always positioned at entry i's frame header.
type cursor struct {
	t *Table
	i int
	r *bufio.Reader
}

// newCursor opens a cursor at t's first entry. The table's extent is
// known from the index, so a small table gets a small buffer.
func newCursor(t *Table) cursor {
	start := int64(len(tblMagic))
	size := int64(0)
	if n := len(t.offs); n > 0 {
		size = t.offs[n-1] + int64(t.lens[n-1]) - start
	}
	return cursor{t: t, r: bufio.NewReaderSize(io.NewSectionReader(t.f, start, size), int(min(size, ioBufSize)))}
}

// payload reads and verifies the current entry's payload into buf (grown
// as needed) and advances.
func (c *cursor) payload(buf []byte) ([]byte, error) {
	if n := int(c.t.lens[c.i]); cap(buf) < n {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	_, err := c.r.Discard(8)
	if err == nil {
		_, err = io.ReadFull(c.r, buf)
	}
	if err != nil {
		return buf, fmt.Errorf("basestore: read entry %d: %w", c.i, err)
	}
	err = c.t.verify(c.i, buf)
	c.i++
	return buf, err
}

// skip advances past the current entry without verifying it.
func (c *cursor) skip() error {
	_, err := c.r.Discard(8 + int(c.t.lens[c.i]))
	c.i++
	return err
}

// mergeTables streams the newest-wins union of tables (ascending age: a
// later table shadows an earlier one) to fn in ascending key order, until
// fn returns false or an error. One sequential cursor per table; payload
// is a shared buffer valid only during the call, key is the owning
// table's immutable index copy, sum the payload's verified checksum.
func mergeTables(tables []*Table, fn func(key, payload []byte, sum uint32) (bool, error)) error {
	curs := make([]cursor, len(tables))
	for i, t := range tables {
		curs[i] = newCursor(t)
	}
	var buf []byte
	for {
		// Pick the smallest current key. On a tie the older table's entry
		// is shadowed whatever else is pending, so it is skipped at once.
		best := -1
		for i := range curs {
			c := &curs[i]
			if c.i >= len(c.t.keys) {
				continue
			}
			cmp := -1
			if best >= 0 {
				cmp = bytes.Compare(c.t.keys[c.i], curs[best].t.keys[curs[best].i])
			}
			if cmp == 0 {
				if err := curs[best].skip(); err != nil {
					return err
				}
			}
			if cmp <= 0 {
				best = i
			}
		}
		if best < 0 {
			return nil
		}
		c := &curs[best]
		key, sum := c.t.keys[c.i], c.t.crcs[c.i]
		var err error
		if buf, err = c.payload(buf); err != nil {
			return err
		}
		if ok, err := fn(key, buf, sum); err != nil || !ok {
			return err
		}
	}
}

// Close closes the underlying file.
func (t *Table) Close() error { return t.f.Close() }

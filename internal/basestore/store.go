package basestore

import (
	"bytes"
	"fmt"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
)

const (
	genPrefix = "base-"
	genSuffix = ".tbl"
	// compactAfter is the generation count past which Apply merges the
	// newest generations; bounds the per-Get binary-search fan-out and the
	// file-handle count.
	compactAfter = 8
	// mergeFactor bounds how much older data an automatic merge rewrites:
	// a generation joins the merged suffix only while it holds at most
	// mergeFactor times the entries of everything newer, so each Apply
	// rewrites an amount proportional to its batch (amortised, times a
	// logarithm of the store), never the whole store.
	mergeFactor = 2
)

// genName returns the filename of generation g; fixed-width hex makes
// lexical order equal numeric order.
func genName(g uint64) string {
	return fmt.Sprintf("%s%016x%s", genPrefix, g, genSuffix)
}

// parseGenName inverts genName.
func parseGenName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, genPrefix) || !strings.HasSuffix(name, genSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, genPrefix), genSuffix)
	if len(hex) != 16 {
		return 0, false
	}
	g, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return g, true
}

// Store is the on-disk base layer: a stack of immutable sorted table
// generations where newer generations shadow older ones. Apply writes a
// new generation atomically (so a crash leaves either the old stack or the
// new one, never a torn table) and Compact folds the stack into one table.
//
// Reads (Get, Range, Has) take a read-lock on the generation stack and may
// run concurrently with each other and with writers up to the atomic swap;
// Apply and Compact serialize among themselves.
type Store struct {
	fsys FS
	dir  string

	wmu sync.Mutex // serializes Apply and Compact

	mu      sync.RWMutex // guards gens and nextGen
	gens    []*Table     // ascending generation order; later shadows earlier
	genIDs  []uint64
	nextGen uint64
}

// OpenStore opens (creating if needed) the base-layer directory. Leftover
// temp files are removed; files with foreign names are ignored; a present
// .tbl file that fails validation is real corruption and an error — the
// atomic writer never leaves a torn table under a durable name.
func OpenStore(fsys FS, dir string) (*Store, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("basestore: mkdir %s: %w", dir, err)
	}
	names, err := fsys.ListDir(dir)
	if err != nil {
		return nil, fmt.Errorf("basestore: list %s: %w", dir, err)
	}
	s := &Store{fsys: fsys, dir: dir}
	for _, name := range names {
		if strings.HasSuffix(name, TmpSuffix) {
			fsys.Remove(filepath.Join(dir, name)) // crash leftovers are harmless
			continue
		}
		g, ok := parseGenName(name)
		if !ok {
			continue
		}
		t, err := OpenTable(fsys, filepath.Join(dir, name))
		if err != nil {
			s.closeLocked()
			return nil, err
		}
		s.gens = append(s.gens, t)
		s.genIDs = append(s.genIDs, g)
		if g >= s.nextGen {
			s.nextGen = g + 1
		}
	}
	return s, nil
}

// Close closes every open generation.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeLocked()
}

func (s *Store) closeLocked() error {
	for _, t := range s.gens {
		t.retire()
	}
	s.gens, s.genIDs = nil, nil
	return nil
}

// snapshot acquires a read reference on the current generation stack;
// callers must pair it with releaseAll. A compaction that retires a
// referenced table defers the close to the last release.
func (s *Store) snapshot() []*Table {
	s.mu.RLock()
	gens := append([]*Table(nil), s.gens...)
	for _, t := range gens {
		t.acquire()
	}
	s.mu.RUnlock()
	return gens
}

func releaseAll(gens []*Table) {
	for _, t := range gens {
		t.release()
	}
}

// Get returns the newest value written for key, reading newest generation
// first. The second result is false when no generation holds the key.
func (s *Store) Get(key []byte) ([]byte, bool, error) {
	gens := s.snapshot()
	defer releaseAll(gens)
	for i := len(gens) - 1; i >= 0; i-- {
		if v, ok, err := gens[i].Get(key); ok || err != nil {
			return v, ok, err
		}
	}
	return nil, false, nil
}

// Has reports whether any generation holds key, without touching disk.
func (s *Store) Has(key []byte) bool {
	gens := s.snapshot()
	defer releaseAll(gens)
	for i := len(gens) - 1; i >= 0; i-- {
		if gens[i].Has(key) {
			return true
		}
	}
	return false
}

// Apply durably writes entries as a new generation: sorted, deduplicated
// (the last occurrence of a key wins, matching append order semantics),
// written atomically, then swapped into the generation stack. When Apply
// returns nil the batch is durable — a crash at any earlier point leaves
// the previous stack intact. Once the stack exceeds compactAfter
// generations the newest ones of comparable size (see mergeFactor) are
// merged into one before returning.
func (s *Store) Apply(entries []Entry) error {
	if len(entries) == 0 {
		return nil
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	sorted := make([]Entry, len(entries))
	copy(sorted, entries)
	slices.SortStableFunc(sorted, func(a, b Entry) int { return bytes.Compare(a.Key, b.Key) })
	dedup := sorted[:0]
	for i, e := range sorted {
		if i+1 < len(sorted) && bytes.Equal(e.Key, sorted[i+1].Key) {
			continue // a later duplicate shadows this one
		}
		dedup = append(dedup, e)
	}
	s.mu.RLock()
	g := s.nextGen
	s.mu.RUnlock()
	t, err := WriteTable(s.fsys, filepath.Join(s.dir, genName(g)), dedup)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.gens = append(s.gens, t)
	s.genIDs = append(s.genIDs, g)
	s.nextGen = g + 1
	gens := s.gens // only writers (serialized by wmu) replace the stack
	s.mu.Unlock()
	if len(gens) <= compactAfter {
		return nil
	}
	// Merge the newest suffix: at least two tables, so the stack shrinks,
	// extended while the next older one is within mergeFactor of the rest.
	from, sum := len(gens)-1, t.Len()
	for from > 0 && (from == len(gens)-1 || gens[from-1].Len() <= mergeFactor*sum) {
		from--
		sum += gens[from].Len()
	}
	return s.mergeLocked(from)
}

// Compact folds every generation into a single new one and removes the old
// files.
func (s *Store) Compact() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.mergeLocked(0)
}

// mergeLocked, with wmu held, merges generations from..newest into one new
// table and removes their files. Crash-safe for any suffix: the merged
// table is written under the next generation number before any old file is
// removed, it holds every key of every table it replaces, and it shadows
// them all — so under the newest-wins read rule a crash-leftover mix of
// the merged table and any of its inputs reads identically to the merged
// table alone, and the untouched older generations stay below both.
func (s *Store) mergeLocked(from int) error {
	s.mu.RLock()
	old := append([]*Table(nil), s.gens[from:]...)
	ids := append([]uint64(nil), s.genIDs[from:]...)
	g := s.nextGen
	s.mu.RUnlock()
	if len(old) <= 1 {
		return nil
	}
	n := 0
	for _, o := range old {
		n += o.Len()
	}
	t, err := writeTable(s.fsys, filepath.Join(s.dir, genName(g)), n, func(tw *tableWriter) error {
		return mergeTables(old, func(key, payload []byte, sum uint32) (bool, error) {
			return true, tw.frame(key, payload, sum)
		})
	})
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.gens = append(s.gens[:from:from], t)
	s.genIDs = append(s.genIDs[:from:from], g)
	s.nextGen = g + 1
	s.mu.Unlock()
	var ferr error
	for i, o := range old {
		o.retire()
		if err := s.fsys.Remove(filepath.Join(s.dir, genName(ids[i]))); err != nil && ferr == nil {
			ferr = fmt.Errorf("basestore: remove old generation: %w", err)
		}
	}
	if err := s.fsys.SyncDir(s.dir); err != nil && ferr == nil {
		ferr = fmt.Errorf("basestore: sync dir %s: %w", s.dir, err)
	}
	return ferr
}

// Range calls fn for every live key in ascending order (newest generation's
// value per key) until fn returns false; each value is a fresh copy fn may
// keep. The iteration sees the generation stack as of the call: batches
// applied concurrently may or may not be included, but a compaction
// mid-iteration never is (the acquired tables stay readable until Range
// returns).
func (s *Store) Range(fn func(key string, val []byte) bool) error {
	gens := s.snapshot()
	defer releaseAll(gens)
	return mergeTables(gens, func(key, payload []byte, _ uint32) (bool, error) {
		return fn(string(key), append([]byte(nil), payloadVal(payload)...)), nil
	})
}

// StoreStats describes the store's resident footprint.
type StoreStats struct {
	// Generations is the current table count.
	Generations int
	// IndexedKeys is the total key count across generations (shadowed
	// keys counted once per generation — this is the RAM-resident index
	// size, not the live key count).
	IndexedKeys int
}

// Stats returns the store's resident footprint.
func (s *Store) Stats() StoreStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := StoreStats{Generations: len(s.gens)}
	for _, t := range s.gens {
		st.IndexedKeys += t.Len()
	}
	return st
}

package basestore_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"txconcur/internal/basestore"
	"txconcur/internal/wal"
)

func ent(k, v string) basestore.Entry {
	return basestore.Entry{Key: []byte(k), Val: []byte(v)}
}

// TestTableRoundTrip: the table WriteTable returns (serving from the index
// the writer built) and the same file reopened (index rebuilt by the
// validating scan) both hold the written entries, in order, and serve
// point reads.
func TestTableRoundTrip(t *testing.T) {
	mem := wal.NewMemFS()
	entries := []basestore.Entry{ent("a", "1"), ent("b", ""), ent("cc", "three")}
	written, err := basestore.WriteTable(mem, "d/t.tbl", entries)
	if err != nil {
		t.Fatal(err)
	}
	defer written.Close()
	reopened, err := basestore.OpenTable(mem, "d/t.tbl")
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	for _, tbl := range []*basestore.Table{written, reopened} {
		requireTable(t, tbl, entries)
	}
}

func requireTable(t *testing.T, tbl *basestore.Table, entries []basestore.Entry) {
	t.Helper()
	if tbl.Len() != len(entries) {
		t.Fatalf("len %d, want %d", tbl.Len(), len(entries))
	}
	var got []basestore.Entry
	if err := tbl.Range(func(k, v []byte) bool {
		got = append(got, basestore.Entry{Key: append([]byte(nil), k...), Val: append([]byte(nil), v...)})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for i, e := range entries {
		if !bytes.Equal(got[i].Key, e.Key) || !bytes.Equal(got[i].Val, e.Val) {
			t.Fatalf("entry %d: got %q=%q, want %q=%q", i, got[i].Key, got[i].Val, e.Key, e.Val)
		}
		v, ok, err := tbl.Get(e.Key)
		if err != nil || !ok || !bytes.Equal(v, e.Val) {
			t.Fatalf("Get(%q) = %q,%v,%v", e.Key, v, ok, err)
		}
	}
	if _, ok, _ := tbl.Get([]byte("zz")); ok {
		t.Fatal("absent key found")
	}
	if tbl.Has([]byte("zz")) || !tbl.Has([]byte("b")) {
		t.Fatal("Has disagrees with contents")
	}
}

// TestWriteTableRejectsUnsorted: out-of-order and duplicate keys are
// writer errors, not silently reordered data.
func TestWriteTableRejectsUnsorted(t *testing.T) {
	mem := wal.NewMemFS()
	if _, err := basestore.WriteTable(mem, "d/t.tbl", []basestore.Entry{ent("b", "1"), ent("a", "2")}); err == nil {
		t.Fatal("unsorted keys accepted")
	}
	if _, err := basestore.WriteTable(mem, "d/t.tbl", []basestore.Entry{ent("a", "1"), ent("a", "2")}); err == nil {
		t.Fatal("duplicate keys accepted")
	}
	if names, _ := mem.ListDir("d"); len(names) != 0 {
		t.Fatalf("rejected writes left files behind: %v", names)
	}
}

// TestOpenTableRejectsCorruption: truncations, bit flips and foreign bytes
// all fail with ErrCorrupt — recovery code keys on that sentinel.
func TestOpenTableRejectsCorruption(t *testing.T) {
	mem := wal.NewMemFS()
	if _, err := basestore.WriteTable(mem, "d/t.tbl", []basestore.Entry{ent("a", "one"), ent("b", "two")}); err != nil {
		t.Fatal(err)
	}
	full, ok := mem.ReadFileVolatile("d/t.tbl")
	if !ok {
		t.Fatal("table file missing")
	}
	cases := map[string][]byte{
		"truncated tail":   full[:len(full)-3],
		"truncated header": full[:len(full)/2],
		"empty":            {},
		"garbage":          []byte("not a table at all"),
	}
	flip := append([]byte(nil), full...)
	flip[len(full)-1] ^= 0x20
	cases["bit flip"] = flip
	for name, data := range cases {
		fs := wal.NewMemFS()
		fs.Install("d/t.tbl", append([]byte(nil), data...))
		if _, err := basestore.OpenTable(fs, "d/t.tbl"); !errors.Is(err, basestore.ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// storeBatches is the deterministic Apply workload the store tests share:
// overlapping key ranges so newest-wins ordering is observable.
func storeBatches(n int) [][]basestore.Entry {
	out := make([][]basestore.Entry, n)
	for i := range out {
		for k := i; k < i+5; k++ {
			key := fmt.Sprintf("k%02d", k%12)
			out[i] = append(out[i], ent(key, fmt.Sprintf("v%d-%s", i, key)))
		}
	}
	return out
}

// storeView folds the first n batches newest-wins — the oracle for every
// store read-back check.
func storeView(batches [][]basestore.Entry, n int) map[string]string {
	view := make(map[string]string)
	for _, b := range batches[:n] {
		for _, e := range b {
			view[string(e.Key)] = string(e.Val)
		}
	}
	return view
}

// requireStoreView asserts Get and Range both produce exactly want.
func requireStoreView(t *testing.T, s *basestore.Store, want map[string]string, label string) {
	t.Helper()
	got := make(map[string]string)
	var prev string
	first := true
	if err := s.Range(func(k string, v []byte) bool {
		if !first && k <= prev {
			t.Fatalf("%s: Range keys out of order: %q after %q", label, k, prev)
		}
		first, prev = false, k
		got[k] = string(v)
		return true
	}); err != nil {
		t.Fatalf("%s: range: %v", label, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d live keys, want %d", label, len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("%s: range %q = %q, want %q", label, k, got[k], v)
		}
		gv, ok, err := s.Get([]byte(k))
		if err != nil || !ok || string(gv) != v {
			t.Fatalf("%s: Get(%q) = %q,%v,%v want %q", label, k, gv, ok, err, v)
		}
	}
}

// TestStoreNewestWins: stacked generations shadow correctly, survive a
// reopen, and compaction folds them without changing the observable view
// (and actually removes the old files).
func TestStoreNewestWins(t *testing.T) {
	mem := wal.NewMemFS()
	batches := storeBatches(4)
	s, err := basestore.OpenStore(mem, "base")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := s.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	want := storeView(batches, len(batches))
	requireStoreView(t, s, want, "stacked")
	if st := s.Stats(); st.Generations != len(batches) {
		t.Fatalf("%d generations, want %d", st.Generations, len(batches))
	}
	s.Close()

	s2, err := basestore.OpenStore(mem, "base")
	if err != nil {
		t.Fatal(err)
	}
	requireStoreView(t, s2, want, "reopened")
	if err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	requireStoreView(t, s2, want, "compacted")
	if st := s2.Stats(); st.Generations != 1 || st.IndexedKeys != len(want) {
		t.Fatalf("post-compact stats %+v, want 1 generation / %d keys", st, len(want))
	}
	s2.Close()
	names, err := mem.ListDir("base")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Fatalf("compaction left %d files: %v", len(names), names)
	}
}

// TestStoreAutoCompacts: Apply bounds the generation stack on its own.
func TestStoreAutoCompacts(t *testing.T) {
	mem := wal.NewMemFS()
	batches := storeBatches(24)
	s, err := basestore.OpenStore(mem, "base")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, b := range batches {
		if err := s.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Generations > 9 {
		t.Fatalf("%d generations after %d applies — auto-compaction absent", st.Generations, len(batches))
	}
	requireStoreView(t, s, storeView(batches, len(batches)), "auto-compacted")
}

// TestStoreApplyDedup: within one batch the last occurrence of a key wins,
// matching append-order semantics of the callers building eviction batches.
func TestStoreApplyDedup(t *testing.T) {
	mem := wal.NewMemFS()
	s, err := basestore.OpenStore(mem, "base")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Apply([]basestore.Entry{ent("k", "old"), ent("a", "x"), ent("k", "new")}); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get([]byte("k"))
	if err != nil || !ok || string(v) != "new" {
		t.Fatalf("Get(k) = %q,%v,%v, want new", v, ok, err)
	}
}

// sweepBig is the index of sweepBatches' multi-Write batch.
const sweepBig = 5

// sweepBatches is the crash-sweep workload: storeBatches plus, in the first
// batch, enough extra keys that the automatic merge later leaves that
// generation out of its suffix, and in batch sweepBig — one the automatic
// merge does rewrite — a value larger than the write buffer, so both that
// batch's table and the merged one span several Writes: a sweep ordinal
// (and a ShortWrite's Keep) then lands mid-table, inside a frame, not only
// at table boundaries.
func sweepBatches() [][]basestore.Entry {
	batches := storeBatches(13)
	for k := 0; k < 100; k++ {
		batches[0] = append(batches[0], ent(fmt.Sprintf("w%03d", k), "wide"))
	}
	batches[sweepBig] = append(batches[sweepBig], ent("big", strings.Repeat("x", basestore.IOBufSize+1000)))
	return batches
}

// storeWorkload drives a store through the full mutating surface — open,
// a series of Applys (each a persist point: a nil return is an ack), one
// explicit compaction after the third, and from then on the automatic
// suffix merges Apply triggers itself — stopping at the first error.
// merged records the generation count left by each automatic merge.
func storeWorkload(fsys basestore.FS, batches [][]basestore.Entry) (acked int, merged []int, err error) {
	s, err := basestore.OpenStore(fsys, "base")
	if err != nil {
		return 0, nil, err
	}
	for i, b := range batches {
		before := s.Stats().Generations
		if err := s.Apply(b); err != nil {
			return acked, merged, err
		}
		acked++
		if after := s.Stats().Generations; after <= before {
			merged = append(merged, after)
		}
		if i == 2 {
			if err := s.Compact(); err != nil {
				return acked, merged, err
			}
		}
	}
	return acked, merged, s.Close()
}

// cleanStoreWorkload runs the sweep workload fault-free, checks it does
// contain what the sweeps claim to cover — an automatic merge of a partial
// suffix and a table written in more than one Write — and returns the
// ordinal count.
func cleanStoreWorkload(t *testing.T, batches [][]basestore.Entry) int {
	t.Helper()
	clean := wal.NewFaultFS(wal.NewMemFS())
	acked, merged, err := storeWorkload(clean, batches)
	if err != nil || acked != len(batches) {
		t.Fatalf("clean run: acked %d err %v", acked, err)
	}
	if len(merged) == 0 || merged[0] < 2 {
		t.Fatalf("clean run: automatic merges left %v generations, want a partial-suffix merge (>= 2 left)", merged)
	}
	// A single-Write table costs its Apply six ordinals (create, write,
	// sync, rename, syncdir, reopen) after OpenStore's mkdir.
	probe := wal.NewFaultFS(wal.NewMemFS())
	if _, _, err := storeWorkload(probe, batches[sweepBig:sweepBig+1]); err != nil {
		t.Fatal(err)
	}
	if probe.Ops() <= 1+6 {
		t.Fatalf("the big table took %d ordinals: no mid-table Write boundary in the sweep", probe.Ops())
	}
	return clean.Ops()
}

// requireStoreRecovered reopens the store from a crash image and checks
// zero acked loss: every key of the acked view reads back with its acked
// value, or with the value of the single in-flight batch the crash
// interrupted (its table may have reached a durable name before the ack).
func requireStoreRecovered(t *testing.T, img *wal.MemFS, batches [][]basestore.Entry, acked int, label string) {
	t.Helper()
	s, err := basestore.OpenStore(img, "base")
	if err != nil {
		t.Fatalf("%s: reopen: %v", label, err)
	}
	defer s.Close()
	ackedView := storeView(batches, acked)
	nextView := ackedView
	if acked < len(batches) {
		nextView = storeView(batches, acked+1)
	}
	for k, v := range ackedView {
		got, ok, err := s.Get([]byte(k))
		if err != nil {
			t.Fatalf("%s: Get(%q): %v", label, k, err)
		}
		if !ok {
			t.Fatalf("%s: acked key %q lost", label, k)
		}
		if string(got) != v && string(got) != nextView[k] {
			t.Fatalf("%s: Get(%q) = %q, want %q (acked) or %q (in-flight)", label, k, got, v, nextView[k])
		}
	}
}

// TestBaseStoreCrashPointSweep is the base layer's durability invariant,
// the basestore half of the PR-9 sweep: crash the Apply/Compact/auto-merge
// workload at EVERY mutating filesystem operation — mid table write,
// between a (full or partial-suffix) merge's new-table write and the
// old-file removes, between the removes — then a reopen must succeed and
// serve every acked batch newest-wins, with zero acked loss. (A crash between an eviction's
// persist and its drop needs no disk-level case: the drop is RAM-only, so
// its crash image is identical to one of the Apply ordinals swept here.)
func TestBaseStoreCrashPointSweep(t *testing.T) {
	batches := sweepBatches()
	total := cleanStoreWorkload(t, batches)

	for op := 0; op < total; op++ {
		for _, keep := range []int{0, 7} {
			mem := wal.NewMemFS()
			ff := wal.NewFaultFS(mem, wal.Fault{Op: op, Kind: wal.Crash})
			acked, _, werr := storeWorkload(ff, batches)
			if !errors.Is(werr, wal.ErrCrashed) {
				t.Fatalf("op %d: workload survived the crash: %v", op, werr)
			}
			requireStoreRecovered(t, mem.CrashImage(keep), batches, acked,
				fmt.Sprintf("crash@%d/keep=%d", op, keep))
		}
	}
}

// TestBaseStoreInjectedErrors: transient write, short-write and fsync
// failures must surface from Apply/Compact (never be swallowed into an
// ack), and a crash right after still recovers every acked batch.
func TestBaseStoreInjectedErrors(t *testing.T) {
	batches := sweepBatches()
	total := cleanStoreWorkload(t, batches)

	for op := 0; op < total; op++ {
		for _, kind := range []wal.FaultKind{wal.ErrWrite, wal.ShortWrite, wal.ErrSync} {
			mem := wal.NewMemFS()
			ff := wal.NewFaultFS(mem, wal.Fault{Op: op, Kind: kind, Keep: 3})
			acked, _, werr := storeWorkload(ff, batches)
			if werr == nil && acked != len(batches) {
				t.Fatalf("op %d kind %d: injected fault swallowed", op, kind)
			}
			requireStoreRecovered(t, mem.CrashImage(0), batches, acked,
				fmt.Sprintf("fault@%d/kind=%d", op, kind))
		}
	}
}

package basestore_test

import (
	"bytes"
	"testing"

	"txconcur/internal/basestore"
	"txconcur/internal/wal"
)

// FuzzBaseStoreReader feeds arbitrary bytes to OpenTable. Whatever the
// input, indexing must not panic or over-allocate; if the table is
// accepted, every entry must read back (Get and Range agree), and
// rewriting the entries must produce a table that reopens identical —
// acceptance implies round-trip, corruption can only be rejected, never
// misread. Mirrors FuzzWALReplay one layer down.
func FuzzBaseStoreReader(f *testing.F) {
	// Seed corpus: a real table, truncations at interesting boundaries, a
	// corrupted byte, a bare magic, a torn magic, and garbage.
	mem := wal.NewMemFS()
	entries := []basestore.Entry{
		{Key: []byte("aa"), Val: []byte("one")},
		{Key: []byte("ab"), Val: nil},
		{Key: []byte("b\x00c"), Val: bytes.Repeat([]byte{0x7f}, 40)},
	}
	if _, err := basestore.WriteTable(mem, "d/seed.tbl", entries); err != nil {
		f.Fatal(err)
	}
	full, ok := mem.ReadFileVolatile("d/seed.tbl")
	if !ok {
		f.Fatal("seed table missing")
	}
	f.Add(append([]byte(nil), full...))
	f.Add(append([]byte(nil), full[:len(full)-1]...))
	f.Add(append([]byte(nil), full[:len(full)/2]...))
	f.Add(append([]byte(nil), full[:14]...)) // exactly the magic
	f.Add(append([]byte(nil), full[:6]...))
	corrupt := append([]byte(nil), full...)
	corrupt[len(full)-3] ^= 0x01
	f.Add(corrupt)
	f.Add([]byte{})
	f.Add([]byte("definitely not a table"))

	f.Fuzz(func(t *testing.T, data []byte) {
		fsys := wal.NewMemFS()
		fsys.Install("d/in.tbl", append([]byte(nil), data...))
		tbl, err := basestore.OpenTable(fsys, "d/in.tbl")
		if err != nil {
			return // rejection is fine; wedging or panicking is not
		}
		defer tbl.Close()
		var got []basestore.Entry
		if err := tbl.Range(func(k, v []byte) bool {
			got = append(got, basestore.Entry{
				Key: append([]byte(nil), k...),
				Val: append([]byte(nil), v...),
			})
			return true
		}); err != nil {
			t.Fatalf("accepted table failed Range: %v", err)
		}
		if len(got) != tbl.Len() {
			t.Fatalf("Range saw %d entries, index holds %d", len(got), tbl.Len())
		}
		for i, e := range got {
			if i > 0 && bytes.Compare(got[i-1].Key, e.Key) >= 0 {
				t.Fatalf("accepted keys out of order at %d", i)
			}
			v, ok, err := tbl.Get(e.Key)
			if err != nil || !ok || !bytes.Equal(v, e.Val) {
				t.Fatalf("Get(%q) = %q,%v,%v, Range said %q", e.Key, v, ok, err, e.Val)
			}
		}
		// Round-trip: rewrite what was read and reopen.
		wr, err := basestore.WriteTable(fsys, "d/out.tbl", got)
		if err != nil {
			t.Fatalf("rewrite of accepted entries rejected: %v", err)
		}
		defer wr.Close()
		tbl2, err := basestore.OpenTable(fsys, "d/out.tbl")
		if err != nil {
			t.Fatalf("reopen of rewritten table: %v", err)
		}
		defer tbl2.Close()
		if tbl2.Len() != len(got) || wr.Len() != len(got) {
			t.Fatalf("rewritten table holds %d entries (writer's index %d), want %d", tbl2.Len(), wr.Len(), len(got))
		}
		for i, e := range got {
			if !bytes.Equal(tbl2.Key(i), e.Key) || !bytes.Equal(wr.Key(i), e.Key) {
				t.Fatalf("rewritten key %d changed", i)
			}
			// The index the writer built must serve what the validating
			// scan of the same file serves.
			if v, ok, err := wr.Get(e.Key); err != nil || !ok || !bytes.Equal(v, e.Val) {
				t.Fatalf("writer-indexed Get(%q) = %q,%v,%v, want %q", e.Key, v, ok, err, e.Val)
			}
		}
	})
}

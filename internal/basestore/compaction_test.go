package basestore_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"txconcur/internal/basestore"
	"txconcur/internal/wal"
)

var testMagic = basestore.TblMagic

// rawFrame encodes one table frame; klen overrides the stored key length
// when >= 0 (to forge an overflowing one under a valid checksum).
func rawFrame(key, val string, klen int) []byte {
	if klen < 0 {
		klen = len(key)
	}
	payload := binary.LittleEndian.AppendUint16(nil, uint16(klen))
	payload = append(append(payload, key...), val...)
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// TestOpenTableCorruptMessages pins every rejection of the validating scan
// to its message and byte offset — including one past the first buffer
// refill, where the offset is no longer what a single Read saw.
func TestOpenTableCorruptMessages(t *testing.T) {
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	a, b := rawFrame("a", "one", -1), rawFrame("b", "two", -1)
	hdr := func(size, sum uint32) []byte {
		return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, size), sum)
	}
	flipped := cat(testMagic, a, b)
	flipped[len(flipped)-1] ^= 0x20
	big := rawFrame("a", strings.Repeat("v", 2*basestore.IOBufSize), -1)
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "magic: EOF"},
		{"torn magic", testMagic[:6], "magic: unexpected EOF"},
		{"foreign magic", []byte("definitely not a table"), "bad magic"},
		{"truncated header", cat(testMagic, a, b[:5]), fmt.Sprintf("truncated frame header at offset %d", 14+len(a))},
		{"size below minimum", cat(testMagic, hdr(1, 0), []byte{0}), "bad frame size 1 at offset 14"},
		{"size above cap", cat(testMagic, a, hdr(1<<26+1, 0)), fmt.Sprintf("bad frame size %d at offset %d", 1<<26+1, 14+len(a))},
		{"unclean EOF in payload", cat(testMagic, a, b[:len(b)-3]), fmt.Sprintf("truncated payload at offset %d", 14+len(a)+8)},
		{"checksum", flipped, fmt.Sprintf("checksum mismatch at offset %d", 14+len(a)+8)},
		{"key length overflow", cat(testMagic, rawFrame("a", "one", 7)), "key length 7 exceeds payload at offset 22"},
		{"order", cat(testMagic, b, a), fmt.Sprintf("keys out of order at offset %d", 14+len(b)+8)},
		{"duplicate", cat(testMagic, a, a), fmt.Sprintf("keys out of order at offset %d", 14+len(a)+8)},
		{"duplicate empty key", cat(testMagic, rawFrame("", "x", -1), rawFrame("", "y", -1)), "keys out of order at offset 33"},
		{"past a buffer refill", cat(testMagic, big, b, a), fmt.Sprintf("keys out of order at offset %d", 14+len(big)+len(b)+8)},
	}
	for _, c := range cases {
		fs := wal.NewMemFS()
		fs.Install("d/t.tbl", c.data)
		_, err := basestore.OpenTable(fs, "d/t.tbl")
		if !errors.Is(err, basestore.ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", c.name, err)
		}
		if want := "basestore: table d/t.tbl: " + c.want + ": basestore: corrupt table"; err.Error() != want {
			t.Fatalf("%s:\n got %q\nwant %q", c.name, err, want)
		}
	}
	// The same frames in order are a valid table.
	fs := wal.NewMemFS()
	fs.Install("d/t.tbl", cat(testMagic, big, b))
	tbl, err := basestore.OpenTable(fs, "d/t.tbl")
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()
	if v, ok, err := tbl.Get([]byte("b")); err != nil || !ok || string(v) != "two" {
		t.Fatalf("Get(b) past the big frame = %q,%v,%v", v, ok, err)
	}
}

// TestRotAfterOpenIsCaught: a byte that flips under an open table — after
// the index was adopted or validated — fails the point read, the scan and
// the merge that touch it with ErrCorrupt, and nothing is served or
// propagated into a new table.
func TestRotAfterOpenIsCaught(t *testing.T) {
	mem := wal.NewMemFS()
	s, err := basestore.OpenStore(mem, "base")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, b := range [][]basestore.Entry{{ent("a", "one"), ent("b", "two")}, {ent("c", "three")}} {
		if err := s.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	names, _ := mem.ListDir("base")
	f, err := mem.OpenFile("base/"+names[0], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(-1, io.SeekEnd); err == nil { // last byte of "two"
		_, err = f.Write([]byte{'0'})
	}
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if v, ok, err := s.Get([]byte("a")); err != nil || !ok || string(v) != "one" {
		t.Fatalf("Get of an intact entry = %q,%v,%v", v, ok, err)
	}
	if v, _, err := s.Get([]byte("b")); !errors.Is(err, basestore.ErrCorrupt) || v != nil {
		t.Fatalf("Get of the rotted entry = %q, %v; want ErrCorrupt", v, err)
	}
	if err := s.Range(func(string, []byte) bool { return true }); !errors.Is(err, basestore.ErrCorrupt) {
		t.Fatalf("Range over the rotted entry: %v", err)
	}
	if err := s.Compact(); !errors.Is(err, basestore.ErrCorrupt) {
		t.Fatalf("Compact over the rotted entry: %v", err)
	}
	if st := s.Stats(); st.Generations != 2 {
		t.Fatalf("failed Compact changed the stack: %+v", st)
	}
}

// TestStoreModelQuick checks the store against a map under random
// sequences of Apply (with in-batch duplicates), Compact and close+reopen:
// Get, Has and Range agree with the model after every step, and the
// automatic merges hold the stack at or below compactAfter+1 generations.
func TestStoreModelQuick(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mem := wal.NewMemFS()
		s, err := basestore.OpenStore(mem, "base")
		if err != nil {
			t.Fatal(err)
		}
		defer func() { s.Close() }()
		model := make(map[string]string)
		keyspace := 8 + rng.Intn(200)
		for step := 0; step < 60; step++ {
			switch op := rng.Intn(20); {
			case op == 0:
				if err := s.Compact(); err != nil {
					t.Fatalf("seed %d step %d: compact: %v", seed, step, err)
				}
				if g := s.Stats().Generations; g > 1 {
					t.Fatalf("seed %d step %d: %d generations after Compact", seed, step, g)
				}
			case op == 1:
				s.Close()
				if s, err = basestore.OpenStore(mem, "base"); err != nil {
					t.Fatalf("seed %d step %d: reopen: %v", seed, step, err)
				}
			default:
				// Batch sizes spread over two orders of magnitude so the
				// size-ratio rule sees both mergeable and oversized
				// neighbours.
				n := 1 + rng.Intn(4)
				if rng.Intn(4) == 0 {
					n = 20 + rng.Intn(keyspace)
				}
				batch := make([]basestore.Entry, n)
				for i := range batch {
					batch[i] = ent("k"+strconv.Itoa(rng.Intn(keyspace)), fmt.Sprintf("s%d-%d", step, i))
				}
				if err := s.Apply(batch); err != nil {
					t.Fatalf("seed %d step %d: apply: %v", seed, step, err)
				}
				for _, e := range batch {
					model[string(e.Key)] = string(e.Val)
				}
			}
			if g := s.Stats().Generations; g > 9 {
				t.Fatalf("seed %d step %d: %d generations", seed, step, g)
			}
			requireStoreView(t, s, model, fmt.Sprintf("seed %d step %d", seed, step))
			for k := 0; k < keyspace; k += 7 {
				key := "k" + strconv.Itoa(k)
				if _, want := model[key]; s.Has([]byte(key)) != want {
					t.Fatalf("seed %d step %d: Has(%s) != %v", seed, step, key, want)
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestStoreConcurrentReadsDuringMerge runs readers against the real
// filesystem while a writer Applies through several automatic merges:
// Get's positionless ReadAt shares each table's one handle without a lock,
// Range's cursors stream tables a merge is retiring, and the refcounted
// retire must keep every file open until its last reader lets go (a
// premature close surfaces as a read error on a real descriptor). Each
// key's value only ever grows, so readers also check they never go back in
// time. Meaningful under -race.
func TestStoreConcurrentReadsDuringMerge(t *testing.T) {
	const keys, rounds, batch = 400, 60, 40
	s, err := basestore.OpenStore(basestore.OS{}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%04d", i)) }
	seed := make([]basestore.Entry, keys)
	for i := range seed {
		seed[i] = basestore.Entry{Key: key(i), Val: basestore.EncodeU64(0)}
	}
	if err := s.Apply(seed); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	decode := func(k string, v []byte) (uint64, bool) {
		u, err := basestore.DecodeU64(v)
		if err != nil {
			t.Errorf("key %s: %v", k, err)
		}
		return u, err == nil
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) { // point readers
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			seen := make([]uint64, keys)
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(keys)
				v, ok, err := s.Get(key(i))
				if err != nil || !ok {
					t.Errorf("Get(%s) = %v,%v", key(i), ok, err)
					return
				}
				u, ok := decode(string(key(i)), v)
				if !ok || u < seen[i] {
					t.Errorf("Get(%s) went back from %d to %d", key(i), seen[i], u)
					return
				}
				seen[i] = u
			}
		}(r)
	}
	wg.Add(1)
	go func() { // full scans
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			n := 0
			if err := s.Range(func(k string, v []byte) bool {
				_, ok := decode(k, v)
				n++
				return ok
			}); err != nil || n != keys {
				t.Errorf("Range saw %d of %d keys, err %v", n, keys, err)
				return
			}
		}
	}()

	rng := rand.New(rand.NewSource(99))
	merges := 0
	for round := 1; round <= rounds; round++ {
		b := make([]basestore.Entry, batch)
		for i := range b {
			b[i] = basestore.Entry{Key: key(rng.Intn(keys)), Val: basestore.EncodeU64(uint64(round))}
		}
		before := s.Stats().Generations
		if err := s.Apply(b); err != nil {
			t.Fatal(err)
		}
		if s.Stats().Generations <= before {
			merges++
		}
	}
	close(stop)
	wg.Wait()
	if merges < 3 {
		t.Fatalf("only %d automatic merges in %d applies", merges, rounds)
	}
}

// TestCompactMemoryBounded: folding a store streams it. The bytes allocated
// by a full Compact of >= 50k entries stay under one I/O buffer per table
// (inputs plus the output) and the new table's key index — a bound that
// does not grow with the size of the values, where materialising the merge
// would allocate every one of them.
func TestCompactMemoryBounded(t *testing.T) {
	const n, small, valSize = 50_000, 8, 512
	s, err := basestore.OpenStore(basestore.OS{}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	val := bytes.Repeat([]byte{0xab}, valSize)
	base := make([]basestore.Entry, n)
	for i := range base {
		base[i] = basestore.Entry{Key: benchKey(i), Val: val}
	}
	if err := s.Apply(base); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for g := 0; g < small-1; g++ {
		b := make([]basestore.Entry, 600)
		for i := range b {
			b[i] = basestore.Entry{Key: benchKey(rng.Intn(n)), Val: val}
		}
		if err := s.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	base = nil
	tables := s.Stats().Generations
	if tables != small {
		t.Fatalf("%d generations before the fold, want %d", tables, small)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if st := s.Stats(); st.Generations != 1 || st.IndexedKeys != n {
		t.Fatalf("post-compact stats %+v", st)
	}

	const indexPerKey = 24 + 8 + 4 + 4 // key slice header, offset, length, checksum
	ceiling := uint64((tables+1)*(basestore.IOBufSize+valSize+64) + (n+small*600)*indexPerKey + 1<<20)
	storeBytes := uint64(n * valSize)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Compact of %d MiB allocated %d KiB (ceiling %d KiB)", storeBytes>>20, got>>10, ceiling>>10)
	if ceiling*3 > storeBytes {
		t.Fatalf("test is vacuous: ceiling %d is not well below the store's %d bytes", ceiling, storeBytes)
	}
	if got > ceiling {
		t.Fatalf("Compact allocated %d bytes, ceiling %d: the merge is holding more than frames and buffers", got, ceiling)
	}
}

package wal

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"testing"
)

// TestMemFSDurabilitySemantics pins the crash model itself: unsynced data
// and unsynced directory entries do not survive CrashImage, synced ones
// do, and a rename is invisible after a crash until its directory was
// synced.
func TestMemFSDurabilitySemantics(t *testing.T) {
	mem := NewMemFS()
	if err := mem.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := mem.OpenFile("d/a", os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("synced")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("-volatile")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Without SyncDir the file's name itself is not durable.
	img := mem.CrashImage(0)
	if _, ok := img.ReadFileVolatile("d/a"); ok {
		t.Fatal("unsynced directory entry survived the crash")
	}

	if err := mem.SyncDir("d"); err != nil {
		t.Fatal(err)
	}
	img = mem.CrashImage(0)
	got, ok := img.ReadFileVolatile("d/a")
	if !ok || string(got) != "synced" {
		t.Fatalf("durable image: %q %v", got, ok)
	}
	// Torn tail: a few unsynced bytes may survive.
	img = mem.CrashImage(4)
	got, _ = img.ReadFileVolatile("d/a")
	if string(got) != "synced-vol" {
		t.Fatalf("torn image: %q", got)
	}

	// Rename before SyncDir: the crash resurrects the old name.
	if err := mem.Rename("d/a", "d/b"); err != nil {
		t.Fatal(err)
	}
	img = mem.CrashImage(0)
	if _, ok := img.ReadFileVolatile("d/b"); ok {
		t.Fatal("unsynced rename survived")
	}
	if _, ok := img.ReadFileVolatile("d/a"); !ok {
		t.Fatal("old name lost before the rename was durable")
	}
	if err := mem.SyncDir("d"); err != nil {
		t.Fatal(err)
	}
	img = mem.CrashImage(0)
	if _, ok := img.ReadFileVolatile("d/b"); !ok {
		t.Fatal("synced rename lost")
	}
	if _, ok := img.ReadFileVolatile("d/a"); ok {
		t.Fatal("old name survived a synced rename")
	}
}

// TestMemFSOverwriteInvalidatesSync: overwriting synced bytes makes them
// volatile again until the next sync.
func TestMemFSOverwriteInvalidatesSync(t *testing.T) {
	mem := NewMemFS()
	mem.Install("d/a", []byte("aaaa"))
	f, err := mem.OpenFile("d/a", os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(2, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("BB")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, _ := mem.CrashImage(0).ReadFileVolatile("d/a")
	if string(got) != "aa" {
		t.Fatalf("overwritten suffix still durable: %q", got)
	}
}

// TestReadAt: both handle types serve positionless reads — ReadAt neither
// uses nor moves the Read offset, reports io.EOF exactly when it returns
// short, and refuses a closed handle. Through a FaultFS it is not a
// numbered operation (a sweep's ordinals stay the mutating calls), but a
// crashed filesystem refuses it like every other call.
func TestReadAt(t *testing.T) {
	mem := NewMemFS()
	mem.Install("d/a", []byte("0123456789"))
	ff := NewFaultFS(mem, Fault{Op: 2, Kind: Crash})
	for _, c := range []struct {
		name string
		fsys FS
	}{{"MemFS", mem}, {"FaultFS", ff}} {
		name := c.name
		f, err := c.fsys.OpenFile("d/a", os.O_RDONLY, 0) // FaultFS op 0
		if err != nil {
			t.Fatal(err)
		}
		head := make([]byte, 2)
		if _, err := io.ReadFull(f, head); err != nil || string(head) != "01" {
			t.Fatalf("%s: Read = %q, %v", name, head, err)
		}
		p := make([]byte, 4)
		if n, err := f.ReadAt(p, 5); n != 4 || err != nil || string(p) != "5678" {
			t.Fatalf("%s: ReadAt(5) = %d %q %v", name, n, p, err)
		}
		if n, err := f.ReadAt(p, 8); n != 2 || err != io.EOF || string(p[:n]) != "89" {
			t.Fatalf("%s: short ReadAt(8) = %d %q %v, want 2 bytes and io.EOF", name, n, p[:n], err)
		}
		if n, err := f.ReadAt(p, 10); n != 0 || err != io.EOF {
			t.Fatalf("%s: ReadAt at EOF = %d %v", name, n, err)
		}
		if n, err := f.ReadAt(p, 6); n != 4 || (err != nil && err != io.EOF) || string(p) != "6789" {
			t.Fatalf("%s: ReadAt ending at EOF = %d %q %v", name, n, p, err)
		}
		if _, err := io.ReadFull(f, head); err != nil || string(head) != "23" {
			t.Fatalf("%s: Read after ReadAt = %q, %v — ReadAt moved the offset", name, head, err)
		}
		f.Close()
		if name == "MemFS" {
			if _, err := f.ReadAt(p, 0); !errors.Is(err, fs.ErrClosed) {
				t.Fatalf("closed handle ReadAt: %v", err)
			}
		}
	}
	if ff.Ops() != 1 {
		t.Fatalf("reads were numbered: %d ops, want 1 (the open)", ff.Ops())
	}
	f, err := ff.OpenFile("d/a", os.O_RDONLY, 0) // op 1
	if err != nil {
		t.Fatal(err)
	}
	if err := ff.SyncDir("d"); !errors.Is(err, ErrCrashed) { // op 2: the crash
		t.Fatalf("scheduled crash: %v", err)
	}
	if _, err := f.ReadAt(make([]byte, 1), 0); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash ReadAt: %v", err)
	}
}

// TestFaultFSInjection: ordinals count deterministically, each fault kind
// surfaces its error, and a crash poisons every later operation.
func TestFaultFSInjection(t *testing.T) {
	workload := func(fsys FS) error {
		if err := fsys.MkdirAll("d", 0o755); err != nil { // op 0
			return err
		}
		f, err := fsys.OpenFile("d/x", os.O_WRONLY|os.O_CREATE, 0o644) // op 1
		if err != nil {
			return err
		}
		if _, err := f.Write([]byte("hello world")); err != nil { // op 2
			return err
		}
		if err := f.Sync(); err != nil { // op 3
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		return fsys.SyncDir("d") // op 4
	}

	clean := NewFaultFS(NewMemFS())
	if err := workload(clean); err != nil {
		t.Fatal(err)
	}
	if clean.Ops() != 5 {
		t.Fatalf("clean run counted %d ops, want 5", clean.Ops())
	}

	// Every ordinal with a Crash: the workload fails, the FS reports
	// crashed, and all later ops fail ErrCrashed.
	for op := 0; op < 5; op++ {
		mem := NewMemFS()
		ff := NewFaultFS(mem, Fault{Op: op, Kind: Crash})
		if err := workload(ff); !errors.Is(err, ErrCrashed) {
			t.Fatalf("op %d: %v", op, err)
		}
		if !ff.Crashed() {
			t.Fatalf("op %d: not crashed", op)
		}
		if err := ff.MkdirAll("later", 0o755); !errors.Is(err, ErrCrashed) {
			t.Fatalf("op %d: post-crash op: %v", op, err)
		}
		if _, err := ff.ListDir("d"); !errors.Is(err, ErrCrashed) {
			t.Fatalf("op %d: post-crash read: %v", op, err)
		}
	}

	// ErrWrite on the write: surfaced, nothing written.
	mem := NewMemFS()
	ff := NewFaultFS(mem, Fault{Op: 2, Kind: ErrWrite})
	if err := workload(ff); !errors.Is(err, ErrInjected) {
		t.Fatalf("ErrWrite: %v", err)
	}
	if got, _ := mem.ReadFileVolatile("d/x"); len(got) != 0 {
		t.Fatalf("ErrWrite wrote %q", got)
	}

	// ShortWrite: exactly Keep bytes land, then the error.
	mem = NewMemFS()
	ff = NewFaultFS(mem, Fault{Op: 2, Kind: ShortWrite, Keep: 5})
	if err := workload(ff); !errors.Is(err, ErrInjected) {
		t.Fatalf("ShortWrite: %v", err)
	}
	if got, _ := mem.ReadFileVolatile("d/x"); string(got) != "hello" {
		t.Fatalf("ShortWrite kept %q", got)
	}

	// ErrSync: surfaced, durability not advanced.
	mem = NewMemFS()
	ff = NewFaultFS(mem, Fault{Op: 3, Kind: ErrSync})
	if err := workload(ff); !errors.Is(err, ErrInjected) {
		t.Fatalf("ErrSync: %v", err)
	}
	if got, ok := mem.CrashImage(0).ReadFileVolatile("d/x"); ok && len(got) != 0 {
		t.Fatalf("failed sync still made %q durable", got)
	}
}

// TestWriteFileAtomicCrashSweep: crash WriteFileAtomic at every mutating
// operation; the durable image must hold either the old content or the
// new content, bit-exact — never a mixture, never a torn file.
func TestWriteFileAtomicCrashSweep(t *testing.T) {
	old := []byte("old-content")
	next := []byte("new-content-longer")
	setup := func() *MemFS {
		mem := NewMemFS()
		mem.Install("d/f", old)
		return mem
	}
	write := func(fsys FS) error {
		return WriteFileAtomic(fsys, "d/f", func(w io.Writer) error {
			// Two writes so a crash can split the payload.
			if _, err := w.Write(next[:4]); err != nil {
				return err
			}
			_, err := w.Write(next[4:])
			return err
		})
	}
	clean := NewFaultFS(setup())
	if err := write(clean); err != nil {
		t.Fatal(err)
	}
	total := clean.Ops()
	if total == 0 {
		t.Fatal("no ops counted")
	}
	for op := 0; op < total; op++ {
		for _, keep := range []int{0, 3} {
			mem := setup()
			ff := NewFaultFS(mem, Fault{Op: op, Kind: Crash})
			err := write(ff)
			img := mem.CrashImage(keep)
			got, ok := img.ReadFileVolatile("d/f")
			if !ok {
				t.Fatalf("op %d keep %d: file vanished", op, keep)
			}
			if string(got) != string(old) && string(got) != string(next) {
				t.Fatalf("op %d keep %d: torn content %q (err %v)", op, keep, got, err)
			}
			if err == nil && string(got) != string(next) {
				t.Fatalf("op %d keep %d: successful write not durable", op, keep)
			}
		}
	}
	// Non-crash faults must surface as errors and leave the old content.
	for op := 0; op < total; op++ {
		for _, kind := range []FaultKind{ErrWrite, ShortWrite, ErrSync} {
			mem := setup()
			ff := NewFaultFS(mem, Fault{Op: op, Kind: kind, Keep: 2})
			if err := write(ff); err == nil {
				t.Fatalf("op %d kind %d: injected fault swallowed", op, kind)
			}
			got, ok := mem.CrashImage(0).ReadFileVolatile("d/f")
			if !ok || string(got) != string(old) {
				t.Fatalf("op %d kind %d: old content lost: %q %v", op, kind, got, ok)
			}
		}
	}
}

package core

import (
	"bytes"
	"io"
	"testing"
	"time"

	"hinfs/internal/buffer"
	"hinfs/internal/cacheline"
	"hinfs/internal/clock"
	"hinfs/internal/nvmm"
	"hinfs/internal/pmfs"
	"hinfs/internal/vfs"
)

// zeroTestOpts is a small image whose free blocks a poison file can cover.
func zeroTestOpts() Options {
	return Options{BufferBlocks: 64, PMFS: pmfs.Options{JournalBlocks: 256, MaxInodes: 64}}
}

// TestFreshBlocksReadZeroAfterReuse checks, on HiNFS's lazy and O_SYNC
// write paths, that bytes a write never covered read zero even when the
// allocator hands out a block full of a previous owner's data: live
// (merged DRAM and NVMM) and from NVMM alone after a crash.
func TestFreshBlocksReadZeroAfterReuse(t *testing.T) {
	for _, tc := range []struct {
		name  string
		flags int
	}{
		{"lazy", 0},
		{"osync", vfs.OSync},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev, err := nvmm.New(nvmm.Config{Size: 8 << 20, TrackPersistence: true})
			if err != nil {
				t.Fatal(err)
			}
			fs, err := Mkfs(dev, zeroTestOpts())
			if err != nil {
				t.Fatal(err)
			}
			poisonFreeBlocks(t, fs)
			want := writeZeroCases(t, fs, tc.flags)
			if tc.flags == 0 {
				// Lazy writes are durable only once written back.
				if err := fs.Sync(); err != nil {
					t.Fatal(err)
				}
			}
			fs.Abandon()
			dev.Crash()
			fs2, _, err := MountRecover(dev, zeroTestOpts())
			if err != nil {
				t.Fatal(err)
			}
			defer fs2.Unmount()
			checkFiles(t, fs2, want)
		})
	}
}

// TestTruncateDroppedLazyBlocksCrash crashes at every persist event of a
// Truncate(0) that drops fresh blocks holding lazy writes not yet written
// back. Dropping a block releases its write's transaction, which commits
// before the truncate's own transaction frees the block. Every byte any
// recovered image shows must read zero, never the previous owner's poison.
func TestTruncateDroppedLazyBlocksCrash(t *testing.T) {
	// Deterministic mount: no background writeback, a clock that never
	// moves, every write buffered. The persist-event schedule is then a
	// pure function of the op stream, so each run can crash at one event.
	opts := Options{
		BufferBlocks:        64,
		Clock:               clock.NewFake(time.Unix(0, 0)),
		Buffer:              buffer.Config{Shards: 1, WritebackThreads: -1},
		DisableEagerChecker: true,
		PMFS:                pmfs.Options{JournalBlocks: 64, MaxInodes: 64},
	}
	const size = 2 << 20
	poison := bytes.Repeat([]byte{0xFF}, size)
	// run writes a fresh block's middle and a whole fresh block, then
	// truncates the file to 0. It returns the persist events the truncate
	// spans and, with target > 0, the crash state captured at target.
	run := func(target int64) (lo, hi int64, st *nvmm.CrashState) {
		dev, err := nvmm.New(nvmm.Config{Size: size, TrackPersistence: true})
		if err != nil {
			t.Fatal(err)
		}
		dev.Write(poison, 0)
		dev.Flush(0, size)
		fs, err := Mkfs(dev, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Abandon()
		f := mustFile(t, fs, "/t")
		d := bytes.Repeat([]byte{0x5A}, BlockSize)
		if _, err := f.WriteAt(d[:1000], 1000); err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(d, BlockSize); err != nil {
			t.Fatal(err)
		}
		lo = dev.PersistEvents()
		if target > 0 {
			dev.SetCrashPlan(func(ev int64, _ nvmm.EventKind) bool { return ev == target })
		}
		if err := f.Truncate(0); err != nil {
			t.Fatal(err)
		}
		return lo, dev.PersistEvents(), dev.TakeCrashState()
	}
	lo, hi, _ := run(0)
	sized := 0 // recovered images in which the file still has bytes
	for ev := lo + 1; ev <= hi; ev++ {
		_, _, st := run(ev)
		if st == nil {
			t.Fatalf("event %d: no crash state captured", ev)
		}
		for _, seed := range []uint64{0, 1, 2} {
			dev, err := st.Materialize(nvmm.Config{}, seed)
			if err != nil {
				t.Fatal(err)
			}
			fs, _, err := MountRecover(dev, opts)
			if err != nil {
				t.Fatalf("event %d seed %d: recover: %v", ev, seed, err)
			}
			v, err := fs.Open("/t", vfs.ORdonly)
			if err != nil {
				t.Fatalf("event %d seed %d: open: %v", ev, seed, err)
			}
			got := make([]byte, v.Size())
			if _, err := v.ReadAt(got, 0); err != nil && err != io.EOF {
				t.Fatalf("event %d seed %d: read: %v", ev, seed, err)
			}
			v.Close()
			fs.Unmount()
			if i := bytes.IndexFunc(got, func(r rune) bool { return r != 0 }); i >= 0 {
				t.Fatalf("event %d seed %d: byte %d of %d reads %#x, want 0", ev, seed, i, len(got), got[i])
			}
			if len(got) > 0 {
				sized++
			}
		}
	}
	// The window must include crashes after the writes' commits and
	// before the truncate's, or the test checks nothing.
	if sized == 0 {
		t.Fatalf("no crash in events (%d, %d] recovered a non-empty file", lo, hi)
	}
}

// poisonFreeBlocks fills nearly every free data block with 0xFF through a
// file, makes it durable, then unlinks the file, so later allocations
// reuse blocks that still hold a previous owner's bytes.
func poisonFreeBlocks(t *testing.T, fs *FS) {
	t.Helper()
	free := fs.FreeBlocks()
	n := (free - free/512 - 8) * BlockSize // leave room for index blocks
	f := mustFile(t, fs, "/poison")
	chunk := bytes.Repeat([]byte{0xFF}, 16*BlockSize)
	for off := int64(0); off < n; off += int64(len(chunk)) {
		if _, err := f.WriteAt(chunk[:min(int64(len(chunk)), n-off)], off); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Fsync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unlink("/poison"); err != nil {
		t.Fatal(err)
	}
}

// writeZeroCases builds one file per case, opened with flags, whose
// expected content has bytes the writes never stored; it checks them live
// and returns path -> expected content.
func writeZeroCases(t *testing.T, fs *FS, flags int) map[string][]byte {
	t.Helper()
	d := bytes.Repeat([]byte{0x5A}, 1024)
	want := map[string][]byte{}
	create := func(path string) *File {
		v, err := fs.Open(path, vfs.OCreate|vfs.ORdwr|flags)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { v.Close() })
		return v.(*File)
	}
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	write := func(f *File, p []byte, off int64) {
		t.Helper()
		_, err := f.WriteAt(p, off)
		check(err)
	}

	// A sparse write into the middle of a new block, the size then
	// raised past the block: both sides read zero.
	f := create("/sparse")
	write(f, d[:100], BlockSize+1000)
	check(f.Truncate(2 * BlockSize))
	w := make([]byte, 2*BlockSize)
	copy(w[BlockSize+1000:], d[:100])
	want["/sparse"] = w

	// A short append, then Truncate up: the new block's tail reads zero.
	f = create("/append")
	write(f, d, 0)
	check(f.Truncate(3 * BlockSize))
	w = make([]byte, 3*BlockSize)
	copy(w, d)
	want["/append"] = w

	// A write past EOF: the gap (old block's tail, new block's head)
	// reads zero.
	f = create("/gap")
	write(f, d[:100], 0)
	write(f, d[:100], BlockSize+500)
	w = make([]byte, BlockSize+600)
	copy(w, d[:100])
	copy(w[BlockSize+500:], d[:100])
	want["/gap"] = w

	// Mmap on a hole hands out an unwritten block: all zero.
	f = create("/mmap")
	m, err := f.Mmap(2)
	check(err)
	if i := bytes.IndexFunc(m, func(r rune) bool { return r != 0 }); i >= 0 {
		t.Fatalf("Mmap on a hole: byte %d is not zero", i)
	}
	want["/mmap"] = make([]byte, 3*BlockSize)

	checkFiles(t, fs, want)
	return want
}

// checkFiles reads every file back in full and compares it with want.
func checkFiles(t *testing.T, fs vfs.FileSystem, want map[string][]byte) {
	t.Helper()
	for path, w := range want {
		f, err := fs.Open(path, vfs.ORdonly)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(w)+1)
		n, err := f.ReadAt(got, 0)
		f.Close()
		if err != nil && err != io.EOF {
			t.Fatalf("%s: read: %v", path, err)
		}
		if n != len(w) {
			t.Fatalf("%s: size %d, want %d", path, n, len(w))
		}
		for i := range w {
			if got[i] != w[i] {
				t.Fatalf("%s: byte %d = %#x, want %#x", path, i, got[i], w[i])
			}
		}
	}
}

// TestOSyncAppendFlushCounts pins the cachelines an O_SYNC append flushes
// on a fresh block: the data lines it covers, a flushed zero tail for the
// lines it does not, and the transaction's metadata — never a whole-block
// zero fill ahead of the data. A block-aligned 4 KiB append and a 1 KiB
// append flush the same 64 data-block lines.
func TestOSyncAppendFlushCounts(t *testing.T) {
	// Metadata lines of an append that allocates one data block under an
	// existing leaf. The transaction touches three words: the bitmap word,
	// the leaf slot and the inode. Each gets an undo entry (3 lines), its
	// in-place store (3) and its invalidation at commit (3); the commit
	// record is written and then cleared (2).
	const metaLines = 3 + 3 + 3 + 2
	for _, tc := range []struct {
		name      string
		n         int
		dataLines int64
	}{
		{"4KiB-aligned", BlockSize, 64},
		{"1KiB", 1024, 16 + 48},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs, dev := testFS(t, Options{})
			v, err := fs.Open("/log", vfs.OCreate|vfs.ORdwr|vfs.OAppend|vfs.OSync)
			if err != nil {
				t.Fatal(err)
			}
			defer v.Close()
			// Two blocks make the tree height 1, so the measured append
			// allocates only its data block.
			if _, err := v.WriteAt(make([]byte, 2*BlockSize), 0); err != nil {
				t.Fatal(err)
			}
			before := dev.Stats().BytesFlushed
			if _, err := v.WriteAt(make([]byte, tc.n), 0); err != nil {
				t.Fatal(err)
			}
			got := (dev.Stats().BytesFlushed - before) / cacheline.Size
			if want := tc.dataLines + metaLines; got != want {
				t.Fatalf("append flushed %d lines, want %d (%d data-block + %d metadata)", got, want, tc.dataLines, metaLines)
			}
		})
	}
}

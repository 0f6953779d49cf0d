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

// TestHoleFillAndMmapReadZeroAfterReuse is the HiNFS counterpart of the
// pmfs test of the same name, on the lazy and O_SYNC write paths: a write
// into a hole below EOF and Mmap of the existing EOF block must read zero
// wherever the size covers bytes no write stored, live and after Sync and
// a crash.
func TestHoleFillAndMmapReadZeroAfterReuse(t *testing.T) {
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
			d := bytes.Repeat([]byte{0x5A}, 100)
			want := map[string][]byte{"/hole": make([]byte, 3*BlockSize), "/mmap": make([]byte, BlockSize)}
			copy(want["/hole"][BlockSize+1000:], d)
			copy(want["/mmap"], d)
			open := func(path string) *File {
				v, err := fs.Open(path, vfs.OCreate|vfs.ORdwr|tc.flags)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { v.Close() })
				return v.(*File)
			}
			f := open("/hole")
			if err := f.Truncate(3 * BlockSize); err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(d, BlockSize+1000); err != nil {
				t.Fatal(err)
			}
			g := open("/mmap")
			if _, err := g.WriteAt(d, 0); err != nil {
				t.Fatal(err)
			}
			m, err := g.Mmap(0)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(m, want["/mmap"]) {
				t.Fatal("Mmap of the EOF block: bytes past the old EOF are not zero")
			}
			checkFiles(t, fs, want)
			if err := fs.Sync(); err != nil {
				t.Fatal(err)
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
// on a fresh block: the data lines it covers and the transaction's
// metadata — never a zero fill ahead of the data, and no zeroes for the
// block's tail, which lies past EOF. A block-aligned 4 KiB append flushes
// 64 data-block lines, a 1 KiB append 16.
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
		{"1KiB", 1024, 16},
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

// TestGrowOverRolledBackAppendReadsZero crashes an append at every persist
// event between its data store and its commit, recovers, and then grows
// the file with Truncate or with a write past EOF. A crash before the
// commit rolls the size back but leaves the append's bytes on NVMM past
// the recovered EOF; growing over them must read zero, never the
// rolled-back data. Covered: the PMFS direct path, HiNFS O_SYNC (eager)
// and HiNFS lazy writes made durable by fsync. Before growing, a short
// write just below EOF pulls the EOF cacheline into the DRAM buffer on
// the lazy path (a CLFW partial-line fetch), so the buffered copy of the
// rolled-back bytes must be zeroed too.
func TestGrowOverRolledBackAppendReadsZero(t *testing.T) {
	const (
		size   = 2 << 20
		oldEOF = 100
		newEOF = 200
	)
	base := bytes.Repeat([]byte{0x5A}, oldEOF)
	appended := bytes.Repeat([]byte{0xEE}, newEOF-oldEOF)
	poison := bytes.Repeat([]byte{0xFF}, size)
	for _, mode := range []struct {
		name  string
		pmfs  bool
		flags int
		lazy  bool
	}{
		{name: "pmfs", pmfs: true},
		{name: "eager", flags: vfs.OSync},
		{name: "lazy", lazy: true},
	} {
		opts := Options{
			BufferBlocks:        64,
			Clock:               clock.NewFake(time.Unix(0, 0)),
			Buffer:              buffer.Config{Shards: 1, WritebackThreads: -1},
			DisableEagerChecker: mode.lazy,
			PMFS:                pmfs.Options{JournalBlocks: 64, MaxInodes: 64},
		}
		mkfs := func(dev *nvmm.Device) (vfs.FileSystem, error) {
			if mode.pmfs {
				return pmfs.Mkfs(dev, opts.PMFS)
			}
			return Mkfs(dev, opts)
		}
		remount := func(dev *nvmm.Device) (vfs.FileSystem, error) {
			if mode.pmfs {
				fs, _, err := pmfs.MountRecoverOpts(dev, opts.PMFS)
				return fs, err
			}
			fs, _, err := MountRecover(dev, opts)
			return fs, err
		}
		open := func(fs vfs.FileSystem) vfs.File {
			f, err := fs.Open("/f", vfs.OCreate|vfs.ORdwr|mode.flags)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		write := func(f vfs.File, p []byte, off int64) {
			t.Helper()
			if _, err := f.WriteAt(p, off); err != nil {
				t.Fatal(err)
			}
			if err := f.Fsync(); err != nil {
				t.Fatal(err)
			}
		}
		// run writes the durable base, then appends; it returns the
		// persist events the append spans and, with target > 0, the
		// crash state captured at target.
		run := func(target int64) (lo, hi int64, st *nvmm.CrashState) {
			dev, err := nvmm.New(nvmm.Config{Size: size, TrackPersistence: true})
			if err != nil {
				t.Fatal(err)
			}
			dev.Write(poison, 0)
			dev.Flush(0, size)
			fs, err := mkfs(dev)
			if err != nil {
				t.Fatal(err)
			}
			if c, ok := fs.(*FS); ok {
				defer c.Abandon()
			}
			f := open(fs)
			write(f, base, 0)
			lo = dev.PersistEvents()
			if target > 0 {
				dev.SetCrashPlan(func(ev int64, _ nvmm.EventKind) bool { return ev == target })
			}
			write(f, appended, oldEOF)
			return lo, dev.PersistEvents(), dev.TakeCrashState()
		}
		for _, grow := range []struct {
			name string
			do   func(f vfs.File) error
			// written is a byte range the grow stores itself.
			written [2]int64
			end     int64
		}{
			{"truncate", func(f vfs.File) error { return f.Truncate(3 * BlockSize) }, [2]int64{}, 3 * BlockSize},
			{"write", func(f vfs.File) error {
				_, err := f.WriteAt(base[:10], 3000)
				return err
			}, [2]int64{3000, 3010}, 3010},
		} {
			t.Run(mode.name+"/"+grow.name, func(t *testing.T) {
				lo, hi, _ := run(0)
				rolledBack := 0 // recovered images with the append undone
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
						fs, err := remount(dev)
						if err != nil {
							t.Fatalf("event %d seed %d: recover: %v", ev, seed, err)
						}
						f := open(fs)
						eof := f.Size()
						if eof != oldEOF && eof != newEOF {
							t.Fatalf("event %d seed %d: recovered size %d", ev, seed, eof)
						}
						if eof == oldEOF {
							rolledBack++
						}
						if _, err := f.WriteAt(base[:4], eof-4); err != nil {
							t.Fatal(err)
						}
						if err := grow.do(f); err != nil {
							t.Fatal(err)
						}
						got := make([]byte, grow.end)
						if n, err := f.ReadAt(got, 0); n != len(got) || (err != nil && err != io.EOF) {
							t.Fatalf("event %d seed %d: read %d: %v", ev, seed, n, err)
						}
						f.Close()
						fs.Unmount()
						want := make([]byte, grow.end)
						copy(want, base)
						copy(want[oldEOF:eof], appended)
						copy(want[eof-4:], base[:4])
						copy(want[grow.written[0]:grow.written[1]], base)
						if i := firstDiff(got, want); i >= 0 {
							t.Fatalf("event %d seed %d: recovered size %d, byte %d reads %#x after growing, want %#x",
								ev, seed, eof, i, got[i], want[i])
						}
					}
				}
				// The window must hold crashes after the append's data store
				// and before its commit, or the test checks nothing new.
				if rolledBack == 0 {
					t.Fatalf("no crash in events (%d, %d] rolled the append back", lo, hi)
				}
			})
		}
	}
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	if len(b) > len(a) {
		return len(a)
	}
	return -1
}

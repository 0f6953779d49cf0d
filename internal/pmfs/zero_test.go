package pmfs

import (
	"bytes"
	"io"
	"testing"

	"hinfs/internal/cacheline"
	"hinfs/internal/nvmm"
	"hinfs/internal/vfs"
)

// poisonFreeBlocks fills nearly every free data block with 0xFF through a
// file, makes it durable, then unlinks the file, so later allocations
// reuse blocks that still hold a previous owner's bytes.
func poisonFreeBlocks(t *testing.T, fs *FS) {
	t.Helper()
	free := fs.FreeBlocks()
	n := (free - free/ptrsPerBlock - 8) * BlockSize // leave room for index blocks
	f, err := fs.Create("/poison")
	if err != nil {
		t.Fatal(err)
	}
	chunk := bytes.Repeat([]byte{0xFF}, 16*BlockSize)
	for off := int64(0); off < n; off += int64(len(chunk)) {
		if _, err := f.WriteAt(chunk[:min(int64(len(chunk)), n-off)], off); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unlink("/poison"); err != nil {
		t.Fatal(err)
	}
}

// writeZeroCases builds one file per case whose expected content has
// bytes the writes never stored, and returns path -> expected content.
func writeZeroCases(t *testing.T, fs *FS) map[string][]byte {
	t.Helper()
	d := bytes.Repeat([]byte{0x5A}, 1024)
	want := map[string][]byte{}
	create := func(path string) *File {
		f, err := fs.OpenFile(path, vfs.OCreate|vfs.ORdwr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
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

	// MmapBlock on a hole hands out an unwritten block: all zero.
	f = create("/mmap")
	m, err := f.MmapBlock(2)
	check(err)
	if i := bytes.IndexFunc(m, func(r rune) bool { return r != 0 }); i >= 0 {
		t.Fatalf("MmapBlock on a hole: byte %d is not zero", i)
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

// TestFreshBlocksReadZeroAfterReuse checks that bytes a write never
// covered read zero even when the allocator hands out a block full of a
// previous owner's data, both live and after a crash (PMFS data is durable
// at write return, so the crash keeps every case).
func TestFreshBlocksReadZeroAfterReuse(t *testing.T) {
	dev, err := nvmm.New(nvmm.Config{Size: 8 << 20, TrackPersistence: true})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Mkfs(dev, Options{JournalBlocks: 256, MaxInodes: 64})
	if err != nil {
		t.Fatal(err)
	}
	poisonFreeBlocks(t, fs)
	want := writeZeroCases(t, fs)
	dev.Crash()
	fs2, _, err := MountRecover(dev)
	if err != nil {
		t.Fatal(err)
	}
	checkFiles(t, fs2, want)
}

// TestHoleFillAndMmapReadZeroAfterReuse covers the other two ways a size
// can come to cover bytes no write stored, over reused 0xFF blocks, live
// and after a crash: a write into a hole below EOF, whose fresh block's
// tail the old size already covers, and MmapBlock on the existing EOF
// block, which moves EOF to the block's end without storing anything.
func TestHoleFillAndMmapReadZeroAfterReuse(t *testing.T) {
	dev, err := nvmm.New(nvmm.Config{Size: 8 << 20, TrackPersistence: true})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Mkfs(dev, Options{JournalBlocks: 256, MaxInodes: 64})
	if err != nil {
		t.Fatal(err)
	}
	poisonFreeBlocks(t, fs)
	d := bytes.Repeat([]byte{0x5A}, 100)
	want := map[string][]byte{"/hole": make([]byte, 3*BlockSize), "/mmap": make([]byte, BlockSize)}
	copy(want["/hole"][BlockSize+1000:], d)
	copy(want["/mmap"], d)

	f, err := fs.OpenFile("/hole", vfs.OCreate|vfs.ORdwr)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Truncate(3 * BlockSize); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(d, BlockSize+1000); err != nil {
		t.Fatal(err)
	}
	g, err := fs.OpenFile("/mmap", vfs.OCreate|vfs.ORdwr)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.WriteAt(d, 0); err != nil {
		t.Fatal(err)
	}
	m, err := g.MmapBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m, want["/mmap"]) {
		t.Fatal("MmapBlock on the EOF block: bytes past the old EOF are not zero")
	}
	checkFiles(t, fs, want)
	dev.Crash()
	fs2, _, err := MountRecover(dev)
	if err != nil {
		t.Fatal(err)
	}
	checkFiles(t, fs2, want)
}

// TestAppendFlushCounts pins the cachelines a direct append flushes on a
// fresh block: the data lines it covers and the transaction's metadata —
// never a zero fill ahead of the data, and no zeroes for the block's tail,
// which lies past EOF. A block-aligned 4 KiB append flushes 64 data-block
// lines, a 1 KiB append 16.
func TestAppendFlushCounts(t *testing.T) {
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
			fs, dev := testFS(t)
			f, err := fs.OpenFile("/log", vfs.OCreate|vfs.ORdwr|vfs.OAppend)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			// Two blocks make the tree height 1, so the measured append
			// allocates only its data block.
			if _, err := f.WriteAt(make([]byte, 2*BlockSize), 0); err != nil {
				t.Fatal(err)
			}
			before := dev.Stats().BytesFlushed
			if _, err := f.WriteAt(make([]byte, tc.n), 0); err != nil {
				t.Fatal(err)
			}
			got := (dev.Stats().BytesFlushed - before) / cacheline.Size
			if want := tc.dataLines + metaLines; got != want {
				t.Fatalf("append flushed %d lines, want %d (%d data-block + %d metadata)", got, want, tc.dataLines, metaLines)
			}
		})
	}
}

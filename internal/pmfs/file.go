package pmfs

import (
	"io"
	"sync/atomic"
	"time"

	"hinfs/internal/journal"
	"hinfs/internal/obs"
	"hinfs/internal/vfs"
)

// File is an open PMFS file handle. It implements vfs.File with direct
// access, and exposes the locked low-level primitives (PrepareWriteLocked,
// BlockAddrLocked, ...) that the HiNFS layer composes with its DRAM buffer.
type File struct {
	fs  *FS
	ino Ino
	// st is the inode's lock state, captured at open. A reclaiming Close
	// deletes the inode's entry from fs.states; looking it up afresh
	// between Lock and Unlock would then release a new, unheld mutex.
	st     *inodeState
	flags  int
	closed atomic.Bool
	onGap  func(idx, addr int64, lo, hi int)
}

// OnGap registers fn to run before zeroGap zeroes bytes [lo, hi) of file
// block idx at addr on NVMM; HiNFS zeroes its buffered copy there first.
func (f *File) OnGap(fn func(idx, addr int64, lo, hi int)) { f.onGap = fn }

// zeroGap zeroes [rec.Size, to) in the EOF block as EOF moves to at least
// to. No other block past EOF can hold untrusted bytes: a shrink frees all
// blocks wholly past EOF, and a failed write zeroes what it allocated.
func (f *File) zeroGap(rec inodeRec, to int64) {
	idx, bo := rec.Size/BlockSize, rec.Size%BlockSize
	if bo == 0 || to <= rec.Size {
		return
	}
	if bn := f.fs.treeLookup(rec, idx); bn != 0 {
		hi := min(to-(rec.Size-bo), BlockSize)
		if f.onGap != nil {
			f.onGap(idx, blockAddr(bn), int(bo), int(hi))
		}
		f.fs.zeroSpan(blockAddr(bn), bo, hi)
	}
}

// Extent locates one file block on the device.
type Extent struct {
	// Index is the file block index (offset / BlockSize).
	Index int64
	// Addr is the device byte offset of the block.
	Addr int64
	// Created reports whether this block was newly allocated.
	Created bool
}

// WritePlan is the metadata side of a write: the resolved extents and the
// journal transaction that made them visible.
type WritePlan struct {
	Extents []Extent
	Tx      *journal.Tx
}

// Ino returns the file's inode number.
func (f *File) Ino() Ino { return f.ino }

// InodeNumber implements vfs.InodeNumberer.
func (f *File) InodeNumber() uint64 { return uint64(f.ino) }

// Flags returns the open flags.
func (f *File) Flags() int { return f.flags }

// FS returns the owning file system.
func (f *File) FS() *FS { return f.fs }

// Lock acquires the inode's write lock.
func (f *File) Lock() { f.st.mu.Lock() }

// Unlock releases the inode's write lock.
func (f *File) Unlock() { f.st.mu.Unlock() }

// RLock acquires the inode's read lock.
func (f *File) RLock() { f.st.mu.RLock() }

// RUnlock releases the inode's read lock.
func (f *File) RUnlock() { f.st.mu.RUnlock() }

// Size implements vfs.File.
func (f *File) Size() int64 {
	f.RLock()
	defer f.RUnlock()
	return f.SizeLocked()
}

// SizeLocked returns the file size; the caller holds the inode lock.
func (f *File) SizeLocked() int64 { return f.fs.loadInode(f.ino).Size }

// BlockAddrLocked returns the device byte address of file block index, or
// 0 if the block is a hole; the caller holds the inode lock.
func (f *File) BlockAddrLocked(index int64) int64 {
	rec := f.fs.loadInode(f.ino)
	bn := f.fs.treeLookup(rec, index)
	if bn == 0 {
		return 0
	}
	return blockAddr(bn)
}

// LastSync returns the file's last synchronization time (DRAM metadata
// used by the HiNFS Buffer Benefit Model).
func (f *File) LastSync() time.Time {
	f.st.meta.Lock()
	defer f.st.meta.Unlock()
	return f.st.lastSync
}

// MarkSynced records t as the file's last synchronization time.
func (f *File) MarkSynced(t time.Time) {
	f.st.meta.Lock()
	f.st.lastSync = t
	f.st.meta.Unlock()
}

// checkOpen rejects operations on a closed handle. Operations that touch
// storage check closed again once they hold the inode lock: a reclaiming
// Close frees the inode under that lock, so an operation that passed
// checkOpen while Close ran must not go on to use the freed inode.
func (f *File) checkOpen() error {
	if f.closed.Load() {
		return vfs.ErrClosed
	}
	return f.fs.checkMounted()
}

// ReadAt implements vfs.File: a single copy NVMM→user.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if err := f.checkOpen(); err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, vfs.ErrInvalid
	}
	f.RLock()
	defer f.RUnlock()
	if f.closed.Load() {
		return 0, vfs.ErrClosed
	}
	return f.readAtLocked(p, off)
}

func (f *File) readAtLocked(p []byte, off int64) (int, error) {
	rec := f.fs.loadInode(f.ino)
	if off >= rec.Size {
		// io.ReaderAt contract: reads at or past EOF report io.EOF, so a
		// streaming caller can distinguish "end of file" from "empty read".
		return 0, io.EOF
	}
	n := len(p)
	var eof error
	if off+int64(n) > rec.Size {
		n = int(rec.Size - off)
		eof = io.EOF
	}
	read := 0
	for read < n {
		idx := (off + int64(read)) / BlockSize
		bo := (off + int64(read)) % BlockSize
		chunk := BlockSize - int(bo)
		if chunk > n-read {
			chunk = n - read
		}
		bn := f.fs.treeLookup(rec, idx)
		if bn == 0 {
			for i := read; i < read+chunk; i++ {
				p[i] = 0
			}
		} else {
			f.fs.dev.Read(p[read:read+chunk], blockAddr(bn)+bo)
			f.fs.col.Load().Copy(obs.CopyReadOut, chunk)
		}
		read += chunk
	}
	return n, eof
}

// PrepareWriteLocked allocates and journals the metadata for a write of n
// bytes at off: it ensures every touched block exists, extends the size,
// and stamps mtime. The caller holds the inode write lock.
//
// Only bytes the new size covers and the write does not are zeroed: a
// created block's head and its tail below the old EOF, and the gap from
// the old EOF to off. So the caller must store all n bytes and make them
// durable before the returned transaction commits: WriteNT then Commit,
// or buffered writes whose writeback releases the sealed transaction.
func (f *File) PrepareWriteLocked(off int64, n int) (WritePlan, error) {
	if off < 0 || n < 0 {
		return WritePlan{}, vfs.ErrInvalid
	}
	rec := f.fs.loadInode(f.ino)
	f.zeroGap(rec, off)
	tx := f.fs.jnl.Begin()
	first := off / BlockSize
	count := int64(0)
	if n > 0 {
		count = (off+int64(n)-1)/BlockSize - first + 1
	}
	plan := WritePlan{Tx: tx}
	extents, err := f.fs.treeEnsureRange(tx, &rec, first, count, make([]Extent, 0, count))
	if err != nil {
		// Roll forward what we logged; the allocation state is
		// consistent, the write just fails. No data reaches the blocks
		// created so far, so they are zeroed in full.
		for _, e := range extents {
			if e.Created {
				f.fs.zeroBlock(e.Addr / BlockSize)
			}
		}
		f.fs.storeInode(tx, f.ino, rec)
		tx.Commit()
		return WritePlan{}, err
	}
	plan.Extents = extents
	end := off + int64(n)
	for _, e := range extents {
		if e.Created {
			base := e.Index * BlockSize
			f.fs.zeroSpan(e.Addr, 0, off-base)
			f.fs.zeroSpan(e.Addr, end-base, rec.Size-base)
		}
	}
	if end > rec.Size {
		rec.Size = end
	}
	rec.Mtime = f.fs.now().UnixNano()
	f.fs.storeInode(tx, f.ino, rec)
	return plan, nil
}

// WriteAt implements vfs.File: the PMFS direct write path. Data is copied
// user→NVMM with non-temporal stores so it is durable when the metadata
// transaction commits.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	if err := f.checkOpen(); err != nil {
		return 0, err
	}
	f.Lock()
	defer f.Unlock()
	if f.closed.Load() {
		return 0, vfs.ErrClosed
	}
	if f.flags&vfs.OAppend != 0 {
		off = f.SizeLocked()
	}
	return f.writeAtLocked(p, off)
}

func (f *File) writeAtLocked(p []byte, off int64) (int, error) {
	plan, err := f.PrepareWriteLocked(off, len(p))
	if err != nil {
		return 0, err
	}
	written := 0
	for _, e := range plan.Extents {
		blkOff := int64(0)
		if e.Index == off/BlockSize {
			blkOff = off % BlockSize
		}
		chunk := int(BlockSize - blkOff)
		if chunk > len(p)-written {
			chunk = len(p) - written
		}
		f.fs.dev.WriteNT(p[written:written+chunk], e.Addr+blkOff)
		f.fs.col.Load().Copy(obs.CopyUserIn, chunk)
		written += chunk
	}
	f.fs.dev.Fence()
	plan.Tx.Commit()
	return written, nil
}

// Fsync implements vfs.File. PMFS data is durable at write return, so only
// an ordering fence is needed.
func (f *File) Fsync() error {
	if err := f.checkOpen(); err != nil {
		return err
	}
	f.fs.dev.Fence()
	f.MarkSynced(f.fs.now())
	return nil
}

// Truncate implements vfs.File.
func (f *File) Truncate(size int64) error {
	if err := f.checkOpen(); err != nil {
		return err
	}
	if size < 0 {
		return vfs.ErrInvalid
	}
	f.Lock()
	defer f.Unlock()
	if f.closed.Load() {
		return vfs.ErrClosed
	}
	return f.truncateLocked(size)
}

// TruncateLocked is Truncate with the inode lock already held (HiNFS
// drops its buffered blocks first, then delegates here).
func (f *File) TruncateLocked(size int64) error {
	if err := f.checkOpen(); err != nil {
		return err
	}
	if size < 0 {
		return vfs.ErrInvalid
	}
	return f.truncateLocked(size)
}

func (f *File) truncateLocked(size int64) error {
	rec := f.fs.loadInode(f.ino)
	if size == rec.Size {
		return nil
	}
	tx := f.fs.jnl.Begin()
	f.zeroGap(rec, size)
	if size < rec.Size {
		f.fs.treeFreeFrom(tx, &rec, (size+BlockSize-1)/BlockSize)
	}
	rec.Size = size
	rec.Mtime = f.fs.now().UnixNano()
	f.fs.storeInode(tx, f.ino, rec)
	tx.Commit()
	return nil
}

// CloseWillReclaim reports whether closing this handle would free the
// inode's storage (it is the last handle to an unlinked file). The HiNFS
// layer uses it to discard buffered blocks before the NVMM blocks are
// released.
func (f *File) CloseWillReclaim() bool {
	f.st.meta.Lock()
	defer f.st.meta.Unlock()
	return f.st.refs == 1 && f.st.unlinked
}

// Close implements vfs.File. Closing an already-closed handle returns
// ErrClosed without touching the refcount (a double Close must not
// release another handle's reference).
func (f *File) Close() error { return f.close(nil) }

// CloseWithHook is Close, additionally invoking pre just before this
// close frees an unlinked inode's storage. The reclaim decision is made
// under the refcount lock, so exactly one of N racing closes runs the
// hook — the HiNFS layer uses it to discard the inode's buffered DRAM
// blocks before their NVMM blocks are released.
func (f *File) CloseWithHook(pre func()) error { return f.close(pre) }

func (f *File) close(pre func()) error {
	if f.closed.Swap(true) {
		return vfs.ErrClosed
	}
	st := f.st
	st.meta.Lock()
	st.refs--
	reclaim := st.refs == 0 && st.unlinked
	st.meta.Unlock()
	if reclaim {
		if pre != nil {
			pre()
		}
		// Free the storage under the inode lock: a ReadAt that raced Close
		// and passed its closed-check still holds the read lock, and must
		// finish before the blocks it is copying from are reused.
		st.mu.Lock()
		defer st.mu.Unlock()
		tx := f.fs.jnl.Begin()
		rec := f.fs.loadInode(f.ino)
		f.fs.treeFreeFrom(tx, &rec, 0)
		f.fs.freeInode(tx, f.ino)
		tx.Commit()
	}
	return nil
}

// MmapBlock emulates PMFS direct memory-mapped I/O for one file block: it
// ensures the block exists and returns a slice aliasing its device memory.
// Stores through the slice become durable only at the next Flush/Msync,
// matching §4.2's "mmap writes are not persistent until msync".
func (f *File) MmapBlock(index int64) ([]byte, error) {
	if err := f.checkOpen(); err != nil {
		return nil, err
	}
	f.Lock()
	defer f.Unlock()
	if f.closed.Load() {
		return nil, vfs.ErrClosed
	}
	// The caller may never store to the block: before the commit, zero
	// an existing one from the old EOF on and a fresh one in full.
	f.zeroGap(f.fs.loadInode(f.ino), (index+1)*BlockSize)
	plan, err := f.PrepareWriteLocked(index*BlockSize, BlockSize)
	if err != nil {
		return nil, err
	}
	if e := plan.Extents[0]; e.Created {
		f.fs.zeroBlock(e.Addr / BlockSize)
	}
	plan.Tx.Commit()
	return f.fs.dev.Slice(plan.Extents[0].Addr, BlockSize), nil
}

package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"hinfs/internal/obs"
	"hinfs/internal/server"
	"hinfs/internal/vfs"
)

// opClass is the benchmark's own classification of the calls it times.
type opClass uint8

const (
	clsWrite opClass = iota
	clsRead
	clsFsync
	clsMeta // open, create, unlink, close
	numClasses
)

var classNames = [numClasses]string{"write", "read", "fsync", "meta"}

var obsClass = [numClasses]obs.OpClass{obs.OpWrite, obs.OpRead, obs.OpFsync, obs.OpMeta}

// maxProblems bounds how many failure descriptions one client keeps.
const maxProblems = 8

// client is one closed-loop caller: it issues the next call only after
// the previous one returned. It owns its files and their DRAM shadow, so
// clients never share mutable state.
type client struct {
	in     *instance
	idx    int
	rng    *rand.Rand
	tenant string
	dir    string // directory holding the client's files, as the FS names it
	root   string // prefix the client's view strips from dir (tenant root)
	fsys   vfs.FileSystem
	remote *server.Client
	paths  []string   // FS paths of the client's files
	files  []vfs.File // open handles, parallel to paths (not on sync-churn)
	shadow shadow
	buf    []byte

	// Recording. on is set only inside the timed window; failures are
	// counted in every phase.
	on        bool
	lat       [numClasses][]uint32 // call latencies of the current sub-window, ns
	subOps    int64
	subBusy   time.Duration
	ops       int64
	phaseOps  int64
	busy      time.Duration // summed call latency over the window
	userBytes int64
	failed    int64
	problems  []string

	// Tracing (traced runs only).
	id    uint64     // request ID of the current call
	ctx   *obs.OpCtx // in-process: collects nvmm flush and buffer stall time
	spans *spanRing  // nil when untraced
	inner [2]int64   // summed ctx flush and stall ns over the window
}

var tenantNames = [...]string{"alpha", "beta"}

func newClient(in *instance, i int) *client {
	c := &client{
		in:     in,
		idx:    i,
		rng:    rand.New(rand.NewPCG(in.seed, uint64(i+1))),
		shadow: shadow{},
		buf:    make([]byte, 256*kib),
	}
	if in.w.remote {
		c.tenant = tenantNames[i]
		c.dir = "/tenants/" + c.tenant
		c.root = c.dir
	} else {
		c.dir = fmt.Sprintf("/c%d", i)
	}
	return c
}

// begin starts timing one call.
func (c *client) begin(cls opClass) time.Time {
	c.id++
	if c.ctx != nil {
		c.ctx.Reset(c.id, obsClass[cls])
	}
	return time.Now()
}

// end stops timing one call begun at t0 and records it.
func (c *client) end(cls opClass, t0 time.Time, err error) {
	d := time.Since(t0)
	if err != nil {
		c.fail("%s: %v", classNames[cls], err)
	}
	c.phaseOps++
	if !c.on {
		return
	}
	c.ops++
	c.busy += d
	c.subOps++
	c.subBusy += d
	c.lat[cls] = append(c.lat[cls], uint32(min(d, time.Duration(^uint32(0)))))
	if c.spans != nil {
		s := span{ID: c.id, Op: cls, Start: t0.UnixNano(), End: t0.UnixNano() + d.Nanoseconds(), InnerNS: -1}
		if c.ctx != nil {
			flush, stall := c.ctx.StageNS(obs.StageFlush), c.ctx.StageNS(obs.StageStall)
			c.inner[0] += flush
			c.inner[1] += stall
			s.InnerNS = flush + stall
		}
		c.spans.add(s)
	}
}

func (c *client) fail(format string, args ...any) {
	c.failed++
	if len(c.problems) < maxProblems {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// writeAt writes n seeded bytes at off of open file i.
func (c *client) writeAt(i int, off int64, n int) {
	p := c.data(n)
	t := c.begin(clsWrite)
	got, err := c.files[i].WriteAt(p, off)
	c.end(clsWrite, t, err)
	c.wrote(c.paths[i], p[:got], off)
}

func (c *client) wrote(path string, p []byte, off int64) {
	c.shadow.write(path, p, off)
	if c.on {
		c.userBytes += int64(len(p))
	}
}

// readAt reads n bytes at off of open file i and checks them against the
// shadow, outside the timed call.
func (c *client) readAt(i int, off int64, n int) {
	t := c.begin(clsRead)
	got, err := c.files[i].ReadAt(c.buf[:n], off)
	c.end(clsRead, t, err)
	if err == nil && !c.shadow.matches(c.paths[i], c.buf[:got], off, n) {
		c.fail("read %s [%d,+%d): data differs from the shadow", c.paths[i], off, n)
	}
}

func (c *client) fsync(i int) {
	t := c.begin(clsFsync)
	c.end(clsFsync, t, c.files[i].Fsync())
}

// open opens path (an FS path) through the client's view; nil on error.
func (c *client) open(path string, flags int) vfs.File {
	t := c.begin(clsMeta)
	f, err := c.fsys.Open(path[len(c.root):], flags)
	c.end(clsMeta, t, err)
	return f
}

func (c *client) close(f vfs.File) {
	t := c.begin(clsMeta)
	c.end(clsMeta, t, f.Close())
}

func (c *client) unlink(path string) bool {
	t := c.begin(clsMeta)
	err := c.fsys.Unlink(path[len(c.root):])
	c.end(clsMeta, t, err)
	if err == nil {
		c.shadow.remove(path)
	}
	return err == nil
}

// appendSync appends 1 B to 16 KiB to f, fsyncs and closes it.
func (c *client) appendSync(f vfs.File, path string) {
	p := c.data(1 + c.rng.IntN(16*kib))
	off := int64(len(c.shadow[path]))
	t := c.begin(clsWrite)
	n, err := f.WriteAt(p, 0) // the handle appends
	c.end(clsWrite, t, err)
	c.wrote(path, p[:n], off)
	t = c.begin(clsFsync)
	c.end(clsFsync, t, f.Fsync())
	c.close(f)
}

// readFile reads the whole of f in one call and checks it.
func (c *client) readFile(f vfs.File, path string) {
	n := len(c.shadow[path])
	if n > len(c.buf) {
		c.buf = make([]byte, 2*n)
	}
	t := c.begin(clsRead)
	got, err := f.ReadAt(c.buf[:n], 0)
	c.end(clsRead, t, err)
	if err == nil && !c.shadow.matches(path, c.buf[:got], 0, n) {
		c.fail("read %s: data differs from the shadow", path)
	}
}

// closeAll closes the client's handles and, for a remote client, its
// session.
func (c *client) closeAll() {
	for _, f := range c.files {
		if err := f.Close(); err != nil {
			c.fail("close: %v", err)
		}
	}
	c.files = nil
	if c.remote != nil {
		if err := c.remote.Unmount(); err != nil {
			c.fail("close session: %v", err)
		}
	}
}

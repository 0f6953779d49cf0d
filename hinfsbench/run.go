package main

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hinfs/internal/buffer"
	"hinfs/internal/journal"
	"hinfs/internal/nvmm"
	"hinfs/internal/obs"
	"hinfs/internal/obs/flight"
	"hinfs/internal/pmfs"
	"hinfs/internal/server"
	"hinfs/internal/vfs"
)

const (
	// defaultSetups is how many times a run builds its instance; setup_s
	// is the median and the last build is the one measured.
	defaultSetups = 5
	// warmup runs the workload, untimed, before the window opens.
	warmup = 500 * time.Millisecond
	// warmupLimit caps how long waiting for eviction may extend it.
	warmupLimit = 30 * time.Second
)

// runConfig selects one run. A positive ops bounds each phase by calls
// per client instead of by time (tests).
type runConfig struct {
	seed    uint64
	window  time.Duration
	setups  int
	traced  bool
	ops     int64
	corrupt bool // flip one shadow byte before the final check (tests)
}

// outcome is everything one run measured.
type outcome struct {
	setup     []time.Duration
	subs      []window // the timed window's sub-windows, in order
	ops       int64
	busy      time.Duration
	userBytes int64
	inner     [2]int64 // in-process traced: nvmm flush, buffer stall ns
	before    snap
	after     snap
	spans     []span
	attempted int64
	failed    int64
	problems  []string
}

// window is what one sub-window of the timed window measured.
type window struct {
	lat       [numClasses][]uint32 // sorted call latencies, ns
	opsPerSec float64              // Σ over clients of calls per second of call time
}

// subWindows splits the timed window; end-to-end metrics are medians
// over them, so a short disturbance moves at most one or two of the ten.
const subWindows = 10

// snap is a point-in-time copy of every layer's public stats.
type snap struct {
	dev       nvmm.Stats
	pool      buffer.Stats
	jnl       journal.Stats
	alloc     pmfs.AllocStats
	dirlock   int64
	accurate  int64
	decisions int64
	col       *obs.Snapshot
	tenants   []server.TenantStats
	flightSeq uint64
	mallocs   uint64
	numGC     uint32
	heapInuse uint64
}

func takeSnap(in *instance) snap {
	s := snap{
		dev:     in.dev.Stats(),
		pool:    in.fs.Pool().Stats(),
		jnl:     in.fs.Journal().Stats(),
		alloc:   in.fs.AllocStats(),
		dirlock: in.fs.DirLockContended(),
		col:     in.col.Snapshot(),
	}
	s.accurate, s.decisions = in.fs.Model().Accuracy()
	if in.srv != nil {
		s.tenants = in.srv.Stats()
	}
	if r := in.fs.Flight(); r != nil {
		s.flightSeq = r.Seq()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.numGC, s.heapInuse = ms.Mallocs, ms.NumGC, ms.HeapInuse
	return s
}

// runOnce builds the workload's instance cfg.setups times, timing each
// build, then warms up, measures one window and checks the image.
func runOnce(w *workload, cfg runConfig) (outcome, error) {
	var out outcome
	var in *instance
	for r := 0; r < max(cfg.setups, 1); r++ {
		if in != nil {
			if err := in.fs.Unmount(); err != nil {
				return out, fmt.Errorf("unmount between set-ups: %w", err)
			}
			in = nil
		}
		runtime.GC()
		var col *obs.Collector
		if cfg.traced {
			col = obs.New()
		}
		t0 := time.Now()
		var err error
		if in, err = newInstance(w, cfg.seed, col); err != nil {
			return out, fmt.Errorf("set-up: %w", err)
		}
		out.setup = append(out.setup, time.Since(t0))
	}
	if err := in.attach(); err != nil {
		in.teardown()
		return out, fmt.Errorf("attach: %w", err)
	}

	// Warm-up: untimed, but shadowed and checked like the window.
	evictions := in.fs.Pool().Stats().Evictions
	evicting := func() bool { return in.fs.Pool().Stats().Evictions > evictions }
	in.phase(false, warmup, cfg.ops, func() bool { return !w.warmUntilEviction || evicting() })
	if w.warmUntilEviction && cfg.ops == 0 && !evicting() {
		in.teardown()
		return out, fmt.Errorf("no buffer eviction within %v of warm-up", warmupLimit)
	}

	if cfg.traced {
		for _, c := range in.clients {
			c.spans = newSpanRing(spanRingSize)
			if c.remote != nil {
				// Request IDs then equal the wire trace IDs the server
				// records in its flight ring.
				c.id = uint64(c.idx+1) << 40
				c.remote.SetTraceBase(c.id)
			} else {
				c.ctx = new(obs.OpCtx)
			}
		}
	}
	out.before = takeSnap(in)
	for range subWindows {
		in.phase(true, cfg.window/subWindows, cfg.ops, nil)
		var sw window
		for _, c := range in.clients {
			if c.subBusy > 0 {
				sw.opsPerSec += float64(c.subOps) / c.subBusy.Seconds()
			}
			for k := range c.lat {
				sw.lat[k] = append(sw.lat[k], c.lat[k]...)
				c.lat[k] = c.lat[k][:0]
			}
			c.subOps, c.subBusy = 0, 0
		}
		for k := range sw.lat {
			slices.Sort(sw.lat[k])
		}
		out.subs = append(out.subs, sw)
	}
	out.after = takeSnap(in)

	for _, c := range in.clients {
		out.ops += c.ops
		out.busy += c.busy
		out.userBytes += c.userBytes
		out.inner[0] += c.inner[0]
		out.inner[1] += c.inner[1]
		if c.spans != nil {
			out.spans = append(out.spans, c.spans.ordered()...)
		}
	}
	if cfg.traced && in.srv != nil {
		joinFlight(in, out.spans)
	}
	out.attempted = out.ops
	if cfg.corrupt {
		corruptShadow(in)
	}
	in.teardown()
	for _, c := range in.clients {
		out.failed += c.failed
		out.problems = append(out.problems, c.problems...)
	}
	problems := verifyImage(in)
	out.failed += int64(len(problems))
	out.problems = append(out.problems, problems...)
	return out, nil
}

// phase runs every client's closed loop until d has passed and done
// reports true, or, when ops > 0, until each client made ops calls. It
// returns the phase's wall time.
func (in *instance) phase(record bool, d time.Duration, ops int64, done func() bool) time.Duration {
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range in.clients {
		c.on, c.phaseOps = record, 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			if c.ctx != nil {
				c.ctx.Attach()
				defer c.ctx.Detach()
			}
			for !stop.Load() && (ops <= 0 || c.phaseOps < ops) {
				in.w.step(c)
			}
		}()
	}
	if ops <= 0 {
		time.Sleep(d)
		for deadline := time.Now().Add(warmupLimit); done != nil && !done() && time.Now().Before(deadline); {
			time.Sleep(10 * time.Millisecond)
		}
		stop.Store(true)
	}
	wg.Wait()
	for _, c := range in.clients {
		c.on = false
	}
	return time.Since(start)
}

// teardown closes the clients and the server and unmounts the file
// system, flushing the buffer; errors count against the first client.
func (in *instance) teardown() {
	for _, c := range in.clients {
		c.closeAll()
	}
	if in.srv != nil {
		if err := in.srv.Close(); err != nil {
			in.clients[0].fail("server close: %v", err)
		}
		in.ln.Close() // already closed, unless Serve had not yet begun
		if err := <-in.served; err != nil && !errors.Is(err, vfs.ErrUnmounted) {
			in.clients[0].fail("serve: %v", err)
		}
	}
	if err := in.fs.Unmount(); err != nil {
		in.clients[0].fail("unmount: %v", err)
	}
}

// joinFlight fills each remote span's inner time from the server's
// flight record with the same trace ID: queue plus service time, so the
// span's self time is the wire. Only the ring's retained suffix joins.
func joinFlight(in *instance, spans []span) {
	off, size := in.fs.FlightRegion()
	log, err := flight.Decode(in.dev, off, size)
	if err != nil {
		in.clients[0].fail("decode flight ring: %v", err)
		return
	}
	byTrace := make(map[uint64]*flight.Record, len(log.Records))
	for i := range log.Records {
		byTrace[log.Records[i].Trace] = &log.Records[i]
	}
	for i := range spans {
		if r := byTrace[spans[i].ID]; r != nil {
			spans[i].InnerNS = int64(r.Stages[obs.StageQueue] + r.Stages[obs.StageService])
		}
	}
}

// corruptShadow flips one byte of the first client's first non-empty
// shadow file, so the final check must report a mismatch.
func corruptShadow(in *instance) {
	c := in.clients[0]
	for _, p := range c.paths {
		if b := c.shadow[p]; len(b) > 0 {
			b[len(b)/2] ^= 0xff
			return
		}
	}
}

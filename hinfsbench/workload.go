package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"

	"hinfs/internal/core"
	"hinfs/internal/nvmm"
	"hinfs/internal/obs"
	"hinfs/internal/pmfs"
	"hinfs/internal/server"
	"hinfs/internal/vfs"
)

const (
	kib = 1 << 10
	mib = 1 << 20

	// maxInodes keeps mkfs from zeroing the default 8 MiB inode table;
	// the largest workload holds about a thousand files.
	maxInodes = 4096
)

// workload is one closed-loop traffic mix and the HiNFS instance it runs
// against. Each client gets files x fileSize bytes of its own; step runs
// one call or one cycle of calls.
type workload struct {
	name     string
	why      string
	device   int64 // emulated NVMM capacity, bytes
	buffer   int   // DRAM write buffer, 4 KiB blocks
	flight   int64 // flight-recorder blocks (0 = none)
	clients  int   // closed-loop clients
	files    int
	fileSize int
	remote   bool // clients are tenants of a TCP server, not in-process callers
	keepOpen bool // clients hold every file open for the whole run
	step     func(c *client)
	// warmUntilEviction extends the warm-up until the workload itself
	// has evicted a buffer block.
	warmUntilEviction bool
}

var workloads = []*workload{bufferedRW, syncChurn, tenantsTCP}

func lookup(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// instance is one built HiNFS stack plus the clients driving it.
type instance struct {
	w       *workload
	seed    uint64
	dev     *nvmm.Device
	fs      *core.FS
	opts    core.Options
	col     *obs.Collector // non-nil on a traced run
	payload []byte         // seeded bytes every write takes its data from
	clients []*client

	srv    *server.Server
	ln     net.Listener
	served chan error // Serve's result
}

func newInstance(w *workload, seed uint64, col *obs.Collector) (*instance, error) {
	in := &instance{w: w, seed: seed, col: col}
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	in.payload = make([]byte, 2*mib)
	for i := 0; i < len(in.payload); i += 8 {
		binary.LittleEndian.PutUint64(in.payload[i:], rng.Uint64())
	}
	dev, err := nvmm.New(nvmm.DefaultConfig(w.device))
	if err != nil {
		return nil, err
	}
	in.dev = dev
	in.opts = core.Options{
		BufferBlocks: w.buffer,
		PMFS:         pmfs.Options{MaxInodes: maxInodes, FlightBlocks: w.flight},
		Obs:          col,
	}
	if in.fs, err = core.Mkfs(dev, in.opts); err != nil {
		return nil, fmt.Errorf("mkfs: %w", err)
	}
	for i := 0; i < w.clients; i++ {
		in.clients = append(in.clients, newClient(in, i))
	}
	if err := in.populate(); err != nil {
		in.fs.Unmount()
		return nil, err
	}
	return in, nil
}

// data returns n seeded payload bytes starting at a random offset.
func (c *client) data(n int) []byte {
	off := c.rng.IntN(len(c.in.payload) - n + 1)
	return c.in.payload[off : off+n]
}

// populate creates each client's files under its directory, writes them
// in full and records them in the client's shadow. No file is fsynced:
// a per-file fsync would make the benefit model mark every block eager
// and flip it back to lazy EagerDecay later, in the middle of the run.
// One FS.Sync at the end makes the population durable.
func (in *instance) populate() error {
	for _, c := range in.clients {
		if err := mkdirAll(in.fs, c.dir); err != nil {
			return err
		}
		for i := 0; i < in.w.files; i++ {
			path := fmt.Sprintf("%s/f%04d", c.dir, i)
			f, err := in.fs.Create(path)
			if err != nil {
				return err
			}
			p := c.data(in.w.fileSize)
			if _, err := f.WriteAt(p, 0); err != nil {
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			c.paths = append(c.paths, path)
			c.shadow.write(path, p, 0)
		}
	}
	return in.fs.Sync()
}

func mkdirAll(fsys vfs.FileSystem, dir string) error {
	parts, err := vfs.SplitPath(dir)
	if err != nil {
		return err
	}
	path := ""
	for _, p := range parts {
		path += "/" + p
		if err := fsys.Mkdir(path); err != nil && !errors.Is(err, vfs.ErrExist) {
			return err
		}
	}
	return nil
}

// attach connects the clients to the file system — through a TCP
// server started here on tenants-tcp — and opens their files if the
// workload keeps them open. It is not part of the timed set-up.
func (in *instance) attach() error {
	if in.w.remote {
		if err := in.serve(); err != nil {
			return err
		}
	} else {
		for _, c := range in.clients {
			c.fsys = in.fs
		}
	}
	if !in.w.keepOpen {
		return nil
	}
	for _, c := range in.clients {
		for _, p := range c.paths {
			f, err := c.fsys.Open(p[len(c.root):], vfs.ORdwr)
			if err != nil {
				return err
			}
			c.files = append(c.files, f)
		}
	}
	return nil
}

// serve starts a server configured as cmd/hinfs-server configures it —
// two scheduler workers, the flight recorder on — listening on loopback
// TCP, and connects each client to it as its own tenant.
func (in *instance) serve() error {
	tenants := map[string]server.TenantConfig{}
	for _, c := range in.clients {
		tenants[c.tenant] = server.TenantConfig{Root: c.root, Weight: 1}
	}
	srv, err := server.New(server.Config{FS: in.fs, Tenants: tenants, Workers: 2, Flight: in.fs.Flight()})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	in.srv, in.ln, in.served = srv, ln, make(chan error, 1)
	go func() { in.served <- srv.Serve(ln) }()
	for _, c := range in.clients {
		cl, err := server.Dial(ln.Addr().String(), c.tenant)
		if err != nil {
			return err
		}
		c.remote, c.fsys = cl, cl
	}
	return nil
}

// --- buffered-rw ---

const (
	rwFiles    = 16
	rwFileSize = 1 * mib
)

var rwWriteSizes = [...]int64{64, 256, 1 * kib, 4 * kib}

var bufferedRW = &workload{
	name:     "buffered-rw",
	why:      "Fits-in-buffer case: 16 x 1 MiB files, 32 MiB buffer, 1 closed-loop client, writes (64 B-4 KiB) to 4 KiB reads 2:1, no fsync; lazy buffer hits, so core/buffer/benefit cost dominates",
	device:   64 * mib,
	buffer:   8192,
	clients:  1,
	files:    rwFiles,
	fileSize: rwFileSize,
	keepOpen: true,
	step: func(c *client) {
		// 80% of operations go to the hottest 20% of files.
		hot := rwFiles / 5
		i := hot + c.rng.IntN(rwFiles-hot)
		if c.rng.IntN(10) < 8 {
			i = c.rng.IntN(hot)
		}
		if c.rng.IntN(3) < 2 {
			size := rwWriteSizes[c.rng.IntN(len(rwWriteSizes))]
			c.writeAt(i, c.rng.Int64N(rwFileSize/size)*size, int(size))
		} else {
			c.readAt(i, c.rng.Int64N(rwFileSize/(4*kib))*4*kib, 4*kib)
		}
	},
}

// --- sync-churn ---

const (
	churnFiles    = 1000
	churnFileSize = 16 * kib
)

var syncChurn = &workload{
	name:     "sync-churn",
	why:      "Varmail shape: 1000 x 16 KiB files in one directory, 1 closed-loop client; unlink+create, fsync'd appends, whole-file reads; eager NVMM writes, namespace, allocator, journal",
	device:   64 * mib,
	buffer:   8192,
	clients:  1,
	files:    churnFiles,
	fileSize: churnFileSize,
	step: func(c *client) {
		p := c.paths[c.rng.IntN(len(c.paths))]
		if c.unlink(p) {
			if f := c.open(p, vfs.OCreate|vfs.ORdwr); f != nil {
				c.shadow.write(p, nil, 0)
				c.appendSync(f, p)
			}
		}
		p = c.paths[c.rng.IntN(len(c.paths))]
		if f := c.open(p, vfs.ORdwr|vfs.OAppend); f != nil {
			c.appendSync(f, p)
		}
		p = c.paths[c.rng.IntN(len(c.paths))]
		if f := c.open(p, vfs.ORdonly); f != nil {
			c.readFile(f, p)
			c.close(f)
		}
	},
}

// --- tenants-tcp ---

const (
	tcpFiles    = 24
	tcpFileSize = 1 * mib
	tcpRead     = 16 * kib
	tcpMaxWrite = 16 * kib
)

var tenantsTCP = &workload{
	name:     "tenants-tcp",
	why:      "Larger-than-buffer case: 2 tenants x 24 x 1 MiB files over a 16 MiB buffer, 2 closed-loop TCP clients, 1/8 fsync; eviction, writeback, wire, fair scheduler, flight ring",
	device:   96 * mib,
	buffer:   4096,
	flight:   32,
	clients:  2,
	files:    tcpFiles,
	fileSize: tcpFileSize,
	remote:   true,
	keepOpen: true,
	step: func(c *client) {
		i := c.rng.IntN(tcpFiles)
		switch r := c.rng.IntN(8); {
		case r < 4:
			n := 1 + c.rng.IntN(tcpMaxWrite)
			c.writeAt(i, c.rng.Int64N(tcpFileSize-int64(n)+1), n)
		case r < 7:
			c.readAt(i, c.rng.Int64N(tcpFileSize-tcpRead+1), tcpRead)
		default:
			c.fsync(i)
		}
	},
	// The timed window opens only once the buffer has filled and the
	// workload itself is evicting.
	warmUntilEviction: true,
}

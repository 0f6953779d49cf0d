package main

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"hinfs/internal/core"
	"hinfs/internal/vfs"
)

// shadow is the DRAM copy of every file a client writes, keyed by FS
// path: what the file system must return for any read.
type shadow map[string][]byte

// write applies a write of p at off, creating the file if needed.
func (s shadow) write(path string, p []byte, off int64) {
	b := s[path]
	if end := int(off) + len(p); end > len(b) {
		b = append(b, make([]byte, end-len(b))...)
	}
	copy(b[off:], p)
	s[path] = b
}

func (s shadow) remove(path string) { delete(s, path) }

// matches reports whether got is what a read of n bytes at off of path
// must return: the shadow's bytes, cut short only at end of file.
func (s shadow) matches(path string, got []byte, off int64, n int) bool {
	b, ok := s[path]
	if !ok || off > int64(len(b)) {
		return false
	}
	want := b[off:min(int(off)+n, len(b))]
	return bytes.Equal(got, want)
}

// verifyImage remounts the device the run used, checks the namespace and
// every byte of every client's files against the shadows, and runs fsck.
// It returns one description per mismatch; the caller has unmounted the
// file system the run used.
func verifyImage(in *instance) []string {
	opts := in.opts
	opts.Obs = nil
	fs, err := core.Mount(in.dev, opts)
	if err != nil {
		return []string{fmt.Sprintf("remount: %v", err)}
	}
	var problems []string
	for _, c := range in.clients {
		problems = append(problems, verifyFiles(fs, c.dir, c.shadow)...)
	}
	for _, e := range fs.Fsck() {
		problems = append(problems, fmt.Sprintf("fsck: %v", e))
	}
	if err := fs.Unmount(); err != nil {
		problems = append(problems, fmt.Sprintf("unmount after check: %v", err))
	}
	return problems
}

// verifyFiles checks that dir holds exactly the shadow's files under it,
// with exactly the shadow's bytes.
func verifyFiles(fsys vfs.FileSystem, dir string, s shadow) []string {
	var problems []string
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return []string{fmt.Sprintf("readdir %s: %v", dir, err)}
	}
	var want, got []string
	for p := range s {
		if strings.HasPrefix(p, dir+"/") {
			want = append(want, p[len(dir)+1:])
		}
	}
	for _, e := range ents {
		got = append(got, e.Name)
	}
	sort.Strings(want)
	sort.Strings(got)
	if strings.Join(want, "/") != strings.Join(got, "/") {
		problems = append(problems, fmt.Sprintf("%s lists %d entries, shadow has %d", dir, len(got), len(want)))
	}
	var buf []byte
	for _, name := range want {
		path := dir + "/" + name
		f, err := fsys.Open(path, vfs.ORdonly)
		if err != nil {
			problems = append(problems, fmt.Sprintf("open %s: %v", path, err))
			continue
		}
		b := s[path]
		if sz := f.Size(); sz != int64(len(b)) {
			problems = append(problems, fmt.Sprintf("%s: size %d, shadow %d", path, sz, len(b)))
		}
		buf = append(buf[:0], make([]byte, len(b))...)
		n, err := f.ReadAt(buf, 0)
		switch {
		case err != nil && len(b) > 0:
			problems = append(problems, fmt.Sprintf("read %s: %v", path, err))
		case !bytes.Equal(buf[:n], b):
			problems = append(problems, fmt.Sprintf("%s: content differs from the shadow", path))
		}
		f.Close()
	}
	return problems
}

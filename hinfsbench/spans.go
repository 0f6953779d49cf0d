package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
)

// spanRingSize bounds the spans one client keeps: the most recent ones.
const spanRingSize = 1 << 16

// span is one timed call made by the benchmark. InnerNS is the part of
// it measured inside the layer below (-1 when unknown): nvmm flush plus
// buffer stall time for in-process calls, server queue plus service time
// for remote ones. Its self time, End-Start-InnerNS, is core, pmfs and
// journal software in-process, and the wire and client stub remotely.
type span struct {
	ID      uint64
	Op      opClass
	Start   int64 // unix ns
	End     int64
	InnerNS int64
}

type spanRing struct {
	buf  []span
	next int
	full bool
}

func newSpanRing(n int) *spanRing { return &spanRing{buf: make([]span, n)} }

func (r *spanRing) add(s span) {
	r.buf[r.next] = s
	if r.next++; r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
}

// ordered returns the kept spans, oldest first.
func (r *spanRing) ordered() []span {
	if !r.full {
		return append([]span(nil), r.buf[:r.next]...)
	}
	return append(append([]span(nil), r.buf[r.next:]...), r.buf[:r.next]...)
}

// writeSpans writes the spans as JSON lines to dir/<workload>.jsonl,
// replacing those of the previous traced run of the workload.
func writeSpans(dir string, w *workload, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, w.name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	self := "core+pmfs+journal"
	inner := "nvmm-flush+buffer-stall"
	if w.remote {
		self, inner = "wire", "server"
	}
	for _, s := range spans {
		fmt.Fprintf(bw, `{"id":"%016x","op":"%s","start_ns":%d,"end_ns":%d`, s.ID, classNames[s.Op], s.Start, s.End)
		if s.InnerNS >= 0 {
			fmt.Fprintf(bw, `,"%s_ns":%d,"%s_self_ns":%d`, inner, s.InnerNS, self, s.End-s.Start-s.InnerNS)
		}
		fmt.Fprintln(bw, "}")
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

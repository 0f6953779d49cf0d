package main

import (
	"math"
	"slices"

	"hinfs/internal/obs"
	"hinfs/internal/server"
)

// endToEnd derives the metrics a user of the file system sees from an
// untraced run. Latencies come from the benchmark's own timer around
// each call; every timing is the median of its per-sub-window values,
// and n is the number of calls behind all of them.
func endToEnd(o outcome) []metric {
	pct := func(name string, q float64, classes ...opClass) metric {
		m := metric{name: name, Unit: "us", sample: true}
		var vs []float64
		for _, sw := range o.subs {
			var lat []uint32
			for _, c := range classes {
				lat = append(lat, sw.lat[c]...)
			}
			if len(classes) > 1 {
				slices.Sort(lat)
			}
			m.n += int64(len(lat))
			if len(lat) > 0 {
				vs = append(vs, quantile(lat, q)/1e3)
			}
		}
		m.Value = medianOf(vs)
		return m
	}
	var setup []float64
	for _, d := range o.setup {
		setup = append(setup, d.Seconds())
	}
	ms := []metric{
		{name: "setup_s", Value: medianOf(setup), Unit: "s", n: int64(len(setup))},
		{name: "ops_per_s", Value: opsPerSec(o), Unit: "1/s", n: o.ops},
		pct("write_p50_us", 0.50, clsWrite),
		pct("read_p50_us", 0.50, clsRead),
		pct("write_p99_us", 0.99, clsWrite),
		pct("read_p99_us", 0.99, clsRead),
		pct("op_p90_us", 0.90, clsWrite, clsRead, clsFsync, clsMeta),
		pct("fsync_p50_us", 0.50, clsFsync),
		pct("fsync_p99_us", 0.99, clsFsync),
		pct("meta_p50_us", 0.50, clsMeta),
		{name: "media_bytes_per_user_byte", Value: ratio(o.after.dev.BytesFlushed-o.before.dev.BytesFlushed, o.userBytes), Unit: "B/B"},
		{name: "failed_op_frac", Value: ratio(o.failed, o.attempted), Unit: "frac"},
	}
	return unlist(ms, endToEndUnlisted)
}

// opsPerSec is the median over sub-windows of completed calls per second
// of call time, summed over clients: closed-loop throughput with the
// benchmark's own bookkeeping between calls (generating inputs,
// checking reads) left out.
func opsPerSec(o outcome) float64 {
	var vs []float64
	for _, sw := range o.subs {
		vs = append(vs, sw.opsPerSec)
	}
	return medianOf(vs)
}

// endToEndUnlisted names the end-to-end metrics printed for people but
// not listed in BENCHMARK.json, which lists only metrics every workload
// produces, never zero and steady from run to run. Fsync and metadata
// latency exist only on the workloads that issue those calls; the p99s
// of tenants-tcp vary by a factor of two between runs; failed_op_frac is
// zero on a correct run, and the JSON line's "failed" carries it.
var endToEndUnlisted = map[string]bool{
	"write_p99_us": true, "read_p99_us": true, "fsync_p50_us": true,
	"fsync_p99_us": true, "meta_p50_us": true, "failed_op_frac": true,
}

// perLayer derives the per-layer metrics of a traced run t from
// before/after snapshots of each layer's public stats; u is the untraced
// run of the same workload that measures the tracing overhead. Counts
// are per call ("_per_op") or per thousand calls ("_per_kop") over the
// timed window.
func perLayer(w *workload, u, t outcome) []metric {
	b, a := t.before, t.after
	ops := t.ops
	perOp := func(name string, d int64, unit string) metric {
		return metric{name: name, Value: ratio(d, ops), Unit: unit}
	}
	perKop := func(name string, d int64) metric {
		return metric{name: name, Value: 1000 * ratio(d, ops), Unit: "1/kop"}
	}
	pathMean := func(name string, p obs.Path) metric {
		hb, ha := b.col.Path(p), a.col.Path(p)
		return metric{name: name, Value: ratio(ha.Sum-hb.Sum, ha.Count-hb.Count), Unit: "ns", n: ha.Count - hb.Count, sample: true}
	}
	ctr := func(c obs.Counter) int64 { return a.col.Counter(c) - b.col.Counter(c) }
	var writes int64
	for _, sw := range t.subs {
		writes += int64(len(sw.lat[clsWrite]))
	}
	eager, lazy := ctr(obs.CtrEagerBlocks), ctr(obs.CtrLazyBlocks)
	verdictE, verdictL := ctr(obs.CtrBenefitEager), ctr(obs.CtrBenefitLazy)
	pb, pa := b.pool, a.pool

	ms := []metric{
		pathMean("core.lazy_write_ns", obs.PathLazyWrite),
		pathMean("core.eager_write_ns", obs.PathEagerWrite),
		pathMean("core.direct_read_ns", obs.PathDirectRead),
		pathMean("core.buffered_read_ns", obs.PathBufferedRead),
		{name: "core.eager_block_frac", Value: ratio(eager, eager+lazy), Unit: "frac"},
		{name: "benefit.eager_verdict_frac", Value: ratio(verdictE, verdictE+verdictL), Unit: "frac"},
		{name: "benefit.accuracy", Value: ratio(a.accurate-b.accurate, a.decisions-b.decisions), Unit: "frac"},
		{name: "buffer.write_hit_ratio", Value: ratio(pa.WriteHits-pb.WriteHits, pa.WriteHits-pb.WriteHits+pa.WriteMisses-pb.WriteMisses), Unit: "frac"},
		{name: "buffer.lines_fetched_per_write", Value: ratio(pa.LinesFetched-pb.LinesFetched, writes), Unit: "1/write"},
		perKop("buffer.evictions_per_kop", pa.Evictions-pb.Evictions),
		{name: "buffer.writeback_blocks_per_batch", Value: ratio(pa.WritebackBlocks-pb.WritebackBlocks, pa.WritebackBatches-pb.WritebackBatches), Unit: "1/batch"},
		perKop("buffer.stalls_per_kop", pa.Stalls-pb.Stalls),
		perOp("buffer.stall_ns_per_op", pa.StallNanos-pb.StallNanos, "ns/op"),
		perKop("buffer.drops_per_kop", pa.Drops-pb.Drops),
		perOp("journal.entries_per_op", a.jnl.EntriesLogged-b.jnl.EntriesLogged, "1/op"),
		perOp("journal.commits_per_op", a.jnl.Commits-b.jnl.Commits, "1/op"),
		perKop("journal.checkpoints_per_kop", a.jnl.Checkpoints-b.jnl.Checkpoints),
		{name: "journal.stalls", Value: float64(a.jnl.Stalls - b.jnl.Stalls), Unit: "count"},
		{name: "journal.lane_contended", Value: float64(a.jnl.LaneContended - b.jnl.LaneContended), Unit: "count"},
		perOp("pmfs.alloc_words_scanned_per_op", a.alloc.WordsScanned-b.alloc.WordsScanned, "1/op"),
		{name: "pmfs.alloc_steals", Value: float64(a.alloc.Steals - b.alloc.Steals), Unit: "count"},
		{name: "pmfs.dirlock_contended", Value: float64(a.dirlock - b.dirlock), Unit: "count"},
		perOp("nvmm.flushes_per_op", a.dev.Flushes-b.dev.Flushes, "1/op"),
		perOp("nvmm.lines_flushed_per_op", (a.dev.BytesFlushed-b.dev.BytesFlushed)/64, "1/op"),
		perOp("nvmm.fences_per_op", a.dev.Fences-b.dev.Fences, "1/op"),
		perOp("nvmm.fences_elided_per_op", a.dev.FencesElided-b.dev.FencesElided, "1/op"),
		perOp("nvmm.write_time_ns_per_op", int64(a.dev.WriteTime-b.dev.WriteTime), "ns/op"),
		perOp("nvmm.bytes_read_per_op", a.dev.BytesRead-b.dev.BytesRead, "B/op"),
		pathMean("nvmm.flush_ns", obs.PathNVMMFlush),
	}
	for _, k := range obs.CopyKinds() {
		ms = append(ms, metric{name: "obs.copy." + k.String(), Value: ratio(a.col.Copy(k).Bytes-b.col.Copy(k).Bytes, t.userBytes), Unit: "B/B"})
	}
	// Tracing overhead: the traced run's throughput against the untraced
	// run's, both medians over their sub-windows.
	overhead := metric{name: "obs.trace_overhead_frac", Unit: "frac"}
	if base := opsPerSec(u); base > 0 {
		overhead.Value = 1 - opsPerSec(t)/base
	}
	ms = append(ms, overhead)

	// Server stages, summed over tenants. Measured is the server's own
	// admission-to-completion time; the rest of the client's round trip
	// is the wire (framing, loopback TCP, client stub).
	var measured, estErr int64
	var stage [obs.NumStages]int64
	for i := range a.tenants {
		ta, tb := &a.tenants[i], tenantBefore(b.tenants, a.tenants[i].Name)
		measured += ta.MeasuredNS() - tb.MeasuredNS()
		estErr += ta.Sched.EstErrNS - tb.Sched.EstErrNS
		for _, st := range obs.Stages() {
			stage[st] += ta.StageNS[st.String()] - tb.StageNS[st.String()]
		}
	}
	var wire int64
	if w.remote {
		wire = t.busy.Nanoseconds() - measured
	}
	inner := stage[obs.StageQuota] + stage[obs.StageLock] + stage[obs.StageStall] + stage[obs.StageFlush]
	ms = append(ms,
		perOp("server.wire_ns_per_op", wire, "ns/op"),
		perOp("server.queue_ns_per_op", stage[obs.StageQueue], "ns/op"),
		perOp("server.service_ns_per_op", stage[obs.StageService], "ns/op"),
		perOp("server.flush_ns_per_op", stage[obs.StageFlush], "ns/op"),
		perOp("server.stall_ns_per_op", stage[obs.StageStall], "ns/op"),
		perOp("server.lock_ns_per_op", stage[obs.StageLock], "ns/op"),
		perOp("server.unattributed_ns_per_op", stage[obs.StageService]-inner, "ns/op"),
		perOp("server.sched_est_err_ns_per_op", estErr, "ns/op"),
		perOp("server.flight_records_per_op", int64(a.flightSeq-b.flightSeq), "1/op"),
		// The same stages as shares of the client's round-trip time.
		metric{name: "server.wire_frac", Value: ratio(wire, t.busy.Nanoseconds()), Unit: "frac"},
		metric{name: "server.queue_frac", Value: ratio(stage[obs.StageQueue], t.busy.Nanoseconds()), Unit: "frac"},
		metric{name: "server.flush_frac", Value: ratio(stage[obs.StageFlush], t.busy.Nanoseconds()), Unit: "frac"},
		metric{name: "server.unattributed_frac", Value: ratio(stage[obs.StageService]-inner, t.busy.Nanoseconds()), Unit: "frac"},
	)

	// Self time of core, pmfs and journal software: the call's duration
	// minus what the layers below it measured (nvmm flush and buffer
	// stall time). In-process the benchmark's own OpCtx collects them;
	// behind the server its service stage is the call and its stages the
	// inner parts.
	software := t.busy.Nanoseconds() - t.inner[0] - t.inner[1]
	if w.remote {
		software = stage[obs.StageService] - stage[obs.StageFlush] - stage[obs.StageStall]
	}
	ms = append(ms, perOp("core.software_ns_per_op", software, "ns/op"))

	ms = append(ms,
		metric{name: "runtime.allocs_per_op", Value: ratio(int64(a.mallocs-b.mallocs), ops), Unit: "1/op"},
		metric{name: "runtime.gc_cycles_per_kop", Value: 1000 * ratio(int64(a.numGC-b.numGC), ops), Unit: "1/kop"},
		metric{name: "runtime.heap_inuse_bytes", Value: float64(a.heapInuse), Unit: "B"},
	)
	return unlist(ms, perLayerUnlisted)
}

// perLayerUnlisted names the per-layer times printed for people but not
// listed in BENCHMARK.json: each is zero on some workload by
// construction — no eager writes or direct reads on buffered-rw, no
// allocation stalls, no server in-process — and a time that reads the
// same on every run is no measurement. The server stages are listed as
// shares of the round trip instead.
var perLayerUnlisted = map[string]bool{
	"core.eager_write_ns": true, "core.direct_read_ns": true, "buffer.stall_ns_per_op": true,
	"server.wire_ns_per_op": true, "server.queue_ns_per_op": true, "server.service_ns_per_op": true,
	"server.flush_ns_per_op": true, "server.stall_ns_per_op": true, "server.lock_ns_per_op": true,
	"server.unattributed_ns_per_op": true, "server.sched_est_err_ns_per_op": true,
}

func tenantBefore(ts []server.TenantStats, name string) *server.TenantStats {
	for i := range ts {
		if ts[i].Name == name {
			return &ts[i]
		}
	}
	return &server.TenantStats{}
}

// unlist marks every metric BENCHMARK.json lists, all but those in set.
func unlist(ms []metric, set map[string]bool) []metric {
	for i := range ms {
		ms[i].listed = !set[ms[i].name]
	}
	return ms
}

// quantile is the q-quantile of sorted values (nearest rank).
func quantile(sorted []uint32, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)])
}

func medianOf(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is num/den, or 0 when den is 0 (a layer the workload never
// reached).
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

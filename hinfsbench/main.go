// Command hinfsbench is the repository's end-to-end benchmark. It builds
// the HiNFS stack through its public constructors (nvmm.New, core.Mkfs,
// server.New, server.Dial) on the paper's Table-2 device at real time
// scale — 200 ns per flushed cacheline, 1 GB/s, no read latency — runs
// one closed-loop workload for a fixed wall-clock window, checks every
// result against a DRAM shadow, and prints each metric by name and unit.
//
//	go run ./hinfsbench --workload buffered-rw --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the same
// workload twice on fresh instances, first untraced and then traced (an
// obs.Collector attached through core.Options.Obs, an obs.OpCtx attached
// to each in-process client, spans kept in memory), and reports the
// per-layer metrics computed from before/after snapshots of every
// layer's public stats. --workload all runs every workload in turn.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The command exits 1 when any operation failed or any check found a
// mismatch, 2 on bad usage.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fl := flag.NewFlagSet("hinfsbench", flag.ContinueOnError)
	var (
		name    = fl.String("workload", "", "workload name, or all")
		seed    = fl.Uint64("seed", 1, "input seed")
		seconds = fl.Float64("seconds", 10, "timed window per run, in seconds")
		trace   = fl.Int("trace", 0, "0: end-to-end metrics; 1: untraced then traced run, per-layer metrics")
		spanDir = fl.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "hinfsbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	var wls []*workload
	if *name == "all" {
		wls = workloads
	} else if w := lookup(*name); w != nil {
		wls = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "hinfsbench: unknown workload %q; want one of", *name)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr, " or all")
		return 2
	}

	res := result{Correct: true, Metrics: map[string]metric{}}
	window := time.Duration(*seconds * float64(time.Second))
	for _, w := range wls {
		cfg := runConfig{seed: *seed, window: window, setups: defaultSetups}
		var ms []metric
		var out outcome
		var err error
		if *trace == 0 {
			out, err = runOnce(w, cfg)
			ms = endToEnd(out)
		} else {
			cfg.window /= 2
			var base outcome
			if base, err = runOnce(w, cfg); err == nil {
				printMetrics(w.name, "untraced", endToEnd(base))
				cfg.traced = true
				out, err = runOnce(w, cfg)
				out.attempted += base.attempted
				out.failed += base.failed
				out.problems = append(base.problems, out.problems...)
				ms = perLayer(w, base, out)
				if err == nil {
					err = writeSpans(*spanDir, w, out.spans)
				}
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "hinfsbench: %s: %v\n", w.name, err)
			return 1
		}
		kind := "end-to-end"
		if *trace == 1 {
			kind = "per-layer"
		}
		printMetrics(w.name, kind, ms)
		for _, p := range out.problems {
			fmt.Fprintf(os.Stderr, "hinfsbench: %s: %s\n", w.name, p)
		}
		res.Attempted += out.attempted
		res.Failed += out.failed
		if out.failed > 0 {
			res.Correct = false
		}
		for _, m := range ms {
			if !m.listed {
				continue
			}
			key := m.name
			if len(wls) > 1 {
				key = w.name + "/" + m.name
			}
			res.Metrics[key] = m
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hinfsbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metric is one named measurement. Only the metrics BENCHMARK.json
// lists enter the JSON line; every metric is printed for people, with
// its sample count.
type metric struct {
	name   string
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	n      int64   // samples behind a percentile or mean
	sample bool    // a percentile or mean, meaningless when n is 0
	listed bool
}

func printMetrics(wl, kind string, ms []metric) {
	for _, m := range ms {
		if m.sample && m.n == 0 {
			continue // the workload makes no such call
		}
		n := ""
		if m.n > 0 {
			n = fmt.Sprintf("  (n=%d)", m.n)
		}
		fmt.Printf("%-12s %-10s %-36s %16.6f %-8s%s\n", wl, kind, m.name, m.Value, m.Unit, n)
	}
}

package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// shortOps bounds each phase of a test run to this many calls per
// client, so every workload runs in well under a second.
const shortOps = 150

func shortConfig(seed uint64, traced bool) runConfig {
	return runConfig{seed: seed, setups: 1, traced: traced, ops: shortOps}
}

// benchmarkFile is BENCHMARK.json, which lists the workloads and the
// metrics the benchmark reports.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func names(list []struct{ Name string }) []string {
	var out []string
	for _, e := range list {
		out = append(out, e.Name)
	}
	return out
}

// listedNames returns the names of the listed metrics, in order.
func listedNames(ms []metric) []string {
	var out []string
	for _, m := range ms {
		if m.listed {
			out = append(out, m.name)
		}
	}
	return out
}

// TestWorkloadsShort runs every workload briefly, untraced and traced,
// and checks that each metric BENCHMARK.json lists is produced and
// finite, and that nothing failed.
func TestWorkloadsShort(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if e := bf.Workloads[i]; e.Name != w.name || e.Why != w.why {
			t.Errorf("BENCHMARK.json workload %d is %q (%s), the benchmark runs %q (%s)", i, e.Name, e.Why, w.name, w.why)
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			u, err := runOnce(w, shortConfig(1, false))
			if err != nil {
				t.Fatal(err)
			}
			tr, err := runOnce(w, shortConfig(1, true))
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range []outcome{u, tr} {
				if o.failed != 0 || o.attempted == 0 {
					t.Errorf("attempted %d, failed %d: %v", o.attempted, o.failed, o.problems)
				}
			}
			e2e, layers := endToEnd(u), perLayer(w, u, tr)
			check := func(kind string, ms []metric, want []string) {
				if got := listedNames(ms); strings.Join(got, ",") != strings.Join(want, ",") {
					t.Errorf("%s metrics %v, BENCHMARK.json lists %v", kind, got, want)
				}
				for _, m := range ms {
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s = %v", m.name, m.Value)
					}
					if m.name == "failed_op_frac" && m.Value != 0 {
						t.Errorf("failed_op_frac = %v", m.Value)
					}
				}
			}
			check("end-to-end", e2e, names(bf.EndToEnd))
			check("per-layer", layers, names(bf.PerLayer))
			if len(tr.spans) == 0 {
				t.Error("traced run kept no spans")
			}
		})
	}
}

// TestSameSeedSameCounts runs the single-client workloads twice with one
// seed: their event counts per call must repeat exactly.
func TestSameSeedSameCounts(t *testing.T) {
	for _, w := range []*workload{bufferedRW, syncChurn} {
		t.Run(w.name, func(t *testing.T) {
			var runs [2]map[string]float64
			for i := range runs {
				u, err := runOnce(w, shortConfig(7, false))
				if err != nil {
					t.Fatal(err)
				}
				tr, err := runOnce(w, shortConfig(7, true))
				if err != nil {
					t.Fatal(err)
				}
				runs[i] = map[string]float64{}
				for _, m := range perLayer(w, u, tr) {
					runs[i][m.name] = m.Value
				}
			}
			for _, name := range []string{"journal.entries_per_op", "nvmm.fences_per_op"} {
				if a, b := runs[0][name], runs[1][name]; a != b || a == 0 {
					t.Errorf("%s: %v then %v with the same seed", name, a, b)
				}
			}
		})
	}
}

// TestOracleCatchesCorruptByte flips one byte of the shadow before the
// final check: the run must report it as a failure.
func TestOracleCatchesCorruptByte(t *testing.T) {
	cfg := shortConfig(3, false)
	cfg.corrupt = true
	o, err := runOnce(bufferedRW, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if o.failed != 1 || len(o.problems) != 1 || !strings.Contains(o.problems[0], "differs from the shadow") {
		t.Fatalf("failed %d, problems %v; want the one corrupted file reported", o.failed, o.problems)
	}
}

func TestShadowMatches(t *testing.T) {
	s := shadow{}
	s.write("/f", []byte("hello"), 2)
	for _, tc := range []struct {
		got  string
		off  int64
		n    int
		want bool
	}{
		{"\x00\x00hello", 0, 7, true},
		{"llo", 4, 8, true}, // cut short at end of file
		{"ll", 4, 8, false},
		{"hellp", 2, 5, false},
	} {
		if got := s.matches("/f", []byte(tc.got), tc.off, tc.n); got != tc.want {
			t.Errorf("matches(%q, %d, %d) = %v, want %v", tc.got, tc.off, tc.n, got, tc.want)
		}
	}
	if s.matches("/g", nil, 0, 0) {
		t.Error("a file the shadow lacks matched")
	}
}

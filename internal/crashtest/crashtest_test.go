package crashtest

import (
	"reflect"
	"testing"
)

// TestExploreVarmailStock is the headline guarantee: on stock HiNFS the
// Varmail mix (deletes, create-append-fsync, read-append-fsync, reads)
// survives every explored crash point under every torn-cacheline
// permutation with zero consistency violations.
func TestExploreVarmailStock(t *testing.T) {
	rep, err := Explore(Config{Workload: "varmail", Ops: 60, Points: 40, Perms: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Points != 40 || rep.Cases != 120 {
		t.Fatalf("explored %d points / %d cases, want 40/120", rep.Points, rep.Cases)
	}
	if rep.Recovered != rep.Cases {
		t.Fatalf("only %d of %d cases remounted", rep.Recovered, rep.Cases)
	}
	if len(rep.Violations) != 0 || rep.Suppressed != 0 {
		for i, v := range rep.Violations {
			if i == 10 {
				break
			}
			t.Errorf("violation: %s", v)
		}
		t.Fatalf("%d violations on stock HiNFS (%s)", len(rep.Violations)+rep.Suppressed, rep.Summary())
	}
	if rep.RolledBack == 0 {
		t.Error("no crash point ever rolled back a transaction — exploration looks toothless")
	}
}

// TestExploreAppendStock covers the lazy-write-heavy personality: sparse
// fsyncs keep most appends buffered in DRAM across many events.
func TestExploreAppendStock(t *testing.T) {
	rep, err := Explore(Config{Workload: "append", Ops: 80, Points: 32, Perms: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 || rep.Suppressed != 0 {
		for i, v := range rep.Violations {
			if i == 10 {
				break
			}
			t.Errorf("violation: %s", v)
		}
		t.Fatalf("%d violations on stock HiNFS (%s)", len(rep.Violations)+rep.Suppressed, rep.Summary())
	}
}

// TestExploreJournalRotation runs the Varmail mix over a journal small
// enough that lane halves rotate inside the crash window. A rotated half
// is reused without re-zeroing, so every crash after a rotation recovers
// from a log area full of retired entries; none may be replayed.
func TestExploreJournalRotation(t *testing.T) {
	rep, err := Explore(Config{Workload: "varmail", Ops: 120, Points: 40, Perms: 3, Seed: 5, journalBlocks: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep.Summary())
	if rep.Rotations < 3 {
		t.Fatalf("%d half rotations inside the crash window, want at least 3 (%s)", rep.Rotations, rep.Summary())
	}
	if rep.Recovered != rep.Cases {
		t.Fatalf("only %d of %d cases remounted", rep.Recovered, rep.Cases)
	}
	if len(rep.Violations) != 0 || rep.Suppressed != 0 {
		for i, v := range rep.Violations {
			if i == 10 {
				break
			}
			t.Errorf("violation: %s", v)
		}
		t.Fatalf("%d violations with a rotating journal (%s)", len(rep.Violations)+rep.Suppressed, rep.Summary())
	}
}

// TestSeededOrderingBugDetected is the explorer's self-test: mounting
// with the deliberately broken §4.1 coupling (commit records written
// before the buffered data persists) must produce at least one reported
// violation, with a usable minimal repro.
func TestSeededOrderingBugDetected(t *testing.T) {
	rep, err := Explore(Config{Workload: "append", Ops: 80, Points: 32, Perms: 3, Seed: 7,
		UnsafeSkipOrderedCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) == 0 {
		t.Fatalf("seeded ordering bug went undetected (%s)", rep.Summary())
	}
	v := rep.Violations[0]
	if v.Event <= 0 || v.Invariant == "" {
		t.Fatalf("violation lacks a minimal repro: %+v", v)
	}
	t.Logf("first repro: %s", v)
}

// TestExploreDeterministic: identical configs must yield identical
// reports, byte for byte — the repro contract depends on it.
func TestExploreDeterministic(t *testing.T) {
	cfg := Config{Workload: "varmail", Ops: 40, Points: 12, Perms: 2, Seed: 99}
	a, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two explorations diverged:\n%s\n%s", a.Summary(), b.Summary())
	}
}

// TestEventRangeClamp: FirstEvent/LastEvent restrict the crash window.
func TestEventRangeClamp(t *testing.T) {
	base, err := Explore(Config{Workload: "append", Ops: 30, Points: 4, Perms: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	mid := (base.SetupEvents + base.TotalEvents) / 2
	rep, err := Explore(Config{Workload: "append", Ops: 30, Points: 4, Perms: 1, Seed: 3,
		FirstEvent: mid, LastEvent: mid + 40})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Points == 0 {
		t.Fatal("no points in clamped window")
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations in clamped window: %s", rep.Violations[0])
	}
	// An inverted window must fail loudly, not explore nothing.
	if _, err := Explore(Config{Workload: "append", Ops: 30, Points: 4, Perms: 1, Seed: 3,
		FirstEvent: base.TotalEvents + 100}); err == nil {
		t.Fatal("empty crash window not rejected")
	}
}

func TestPickPoints(t *testing.T) {
	pts := pickPoints(100, 1100, 64, 5)
	if len(pts) != 64 {
		t.Fatalf("got %d points, want 64", len(pts))
	}
	seen := map[int64]bool{}
	for i, p := range pts {
		if p <= 100 || p > 1100 {
			t.Fatalf("point %d out of (100, 1100]", p)
		}
		if seen[p] {
			t.Fatalf("duplicate point %d", p)
		}
		seen[p] = true
		if i > 0 && pts[i-1] >= p {
			t.Fatal("points not sorted")
		}
	}
	if !reflect.DeepEqual(pts, pickPoints(100, 1100, 64, 5)) {
		t.Fatal("pickPoints not deterministic")
	}
	// Tiny windows degrade to exhaustive enumeration.
	if got := pickPoints(10, 14, 100, 5); !reflect.DeepEqual(got, []int64{11, 12, 13, 14}) {
		t.Fatalf("exhaustive enumeration = %v", got)
	}
}

func TestPermSeeds(t *testing.T) {
	s := permSeeds(9, 4)
	if len(s) != 4 || s[0] != 0 {
		t.Fatalf("permSeeds = %v", s)
	}
	for i := 1; i < len(s); i++ {
		if s[i] == 0 {
			t.Fatal("derived seed 0 would silently mean drop-all")
		}
	}
}

// TestOracleModel exercises the prefix model directly: fsync floors,
// in-flight writes admitting both boundaries, and the one-sided
// treatment of a completed-but-unfsynced unlink.
func TestOracleModel(t *testing.T) {
	recs := []opRecord{
		{kind: opCreate, path: "/f", startEv: 1, ev: 2}, // setup: durable
		{kind: opWrite, path: "/f", off: 0, data: []byte("aaaa"), startEv: 3, ev: 6},
		{kind: opFsync, path: "/f", startEv: 7, ev: 9},
		{kind: opWrite, path: "/f", off: 4, data: []byte("bbbb"), startEv: 10, ev: 14},
	}
	const setupEv = 2
	// Crash with the second write in flight: one candidate (the fsync
	// collapsed everything older), sizes 4 and 8 admissible, floor 4.
	m := buildModel(recs, 12, setupEv)
	pm := m.files["/f"]
	if len(pm.cands) != 1 {
		t.Fatalf("%d candidates, want 1", len(pm.cands))
	}
	c := pm.cur()
	if !c.exists || !c.sizes[4] || !c.sizes[8] || c.sizes[2] || c.minSize != 4 {
		t.Fatalf("candidate %+v", c)
	}
	if string(c.mirror) != "aaaabbbb" {
		t.Fatalf("mirror = %q", c.mirror)
	}
	// Crash before the fsync completes: no floor yet, size 0 (the
	// durable create) still admissible.
	m = buildModel(recs, 8, setupEv)
	c = m.files["/f"].cur()
	if c.minSize != 0 || !c.sizes[0] || !c.sizes[4] {
		t.Fatalf("pre-fsync candidate %+v", c)
	}
	// A completed unlink is NOT durable by itself: both the gone-state
	// and the rolled-back old generation stay admissible.
	recs = append(recs, opRecord{kind: opUnlink, path: "/f", startEv: 16, ev: 18})
	m = buildModel(recs, 20, setupEv)
	pm = m.files["/f"]
	if len(pm.cands) != 2 {
		t.Fatalf("post-unlink candidates = %d, want 2", len(pm.cands))
	}
	if pm.cur().exists {
		t.Fatal("newest candidate should be the unlinked state")
	}
	if old := pm.cands[0]; !old.exists || old.minSize != 4 {
		t.Fatalf("rolled-back generation %+v", old)
	}
	// A setup-phase (durable) create resets the candidate list.
	recs = append(recs, opRecord{kind: opCreate, path: "/g", startEv: 1, ev: 2})
	m = buildModel(recs, 20, setupEv)
	if pm := m.files["/g"]; len(pm.cands) != 1 || !pm.cur().exists {
		t.Fatalf("durable create candidates %+v", pm.cands)
	}
}

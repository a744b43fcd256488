package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func gateFixture() *benchReport {
	return &benchReport{
		Tag:       "base",
		GoVersion: "go1.22",
		Configs: []benchConfig{
			{
				Name:    "small",
				Dataset: benchDataset{Distribution: "anti", Points: 2500, Dims: 5, Seed: 42},
				Executors: []benchExecutor{
					{Executor: "core", WallMS: 20, Allocs: 25000, AllocBytes: 1 << 20, SkylineSize: 600},
					{Executor: "parallel", WallMS: 11, Allocs: 1100, AllocBytes: 1 << 19, SkylineSize: 600},
					{Executor: "dist", WallMS: 16, Allocs: 15000, AllocBytes: 1 << 21,
						WireSentBytes: 250000, WireRecvBytes: 160000, SkylineSize: 600},
				},
				MapPath: benchMapPath{Points: 2500, Dims: 5, AllocsPerOpBlock: 40},
			},
		},
	}
}

func cloneReport(t *testing.T, rep *benchReport) *benchReport {
	t.Helper()
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var out benchReport
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

var gateTol = checkTolerances{wall: 1.5, allocs: 1.4, wire: 1.3}

func TestCheckIdentityPasses(t *testing.T) {
	base := gateFixture()
	if v := compareBenchReports(base, cloneReport(t, base), gateTol); len(v) != 0 {
		t.Fatalf("identity comparison flagged: %v", v)
	}
}

func TestCheckWallRegressionFails(t *testing.T) {
	base := gateFixture()
	cur := cloneReport(t, base)
	// The acceptance scenario: an injected 2× wall regression on one
	// executor must trip the gate.
	cur.Configs[0].Executors[1].WallMS *= 2
	v := compareBenchReports(base, cur, gateTol)
	if len(v) != 1 || !strings.Contains(v[0], "small/parallel: wall") {
		t.Fatalf("violations = %v, want one wall regression on small/parallel", v)
	}
}

func TestCheckTinyWallSkipped(t *testing.T) {
	base := gateFixture()
	base.Configs[0].Executors[0].WallMS = 0.4 // under minCheckWallMS
	cur := cloneReport(t, base)
	cur.Configs[0].Executors[0].WallMS = 0.9 // >2× but pure noise at this size
	if v := compareBenchReports(base, cur, gateTol); len(v) != 0 {
		t.Fatalf("sub-millisecond wall compared: %v", v)
	}
}

func TestCheckAllocAndWireRegressionsFail(t *testing.T) {
	base := gateFixture()
	cur := cloneReport(t, base)
	cur.Configs[0].Executors[0].Allocs *= 2
	cur.Configs[0].Executors[2].WireSentBytes *= 2
	cur.Configs[0].MapPath.AllocsPerOpBlock *= 3
	v := compareBenchReports(base, cur, gateTol)
	if len(v) != 3 {
		t.Fatalf("violations = %v, want alloc + wire + map-path", v)
	}
	joined := strings.Join(v, "\n")
	for _, want := range []string{"allocs 50000", "wire sent", "map-path block allocs/op"} {
		if !strings.Contains(joined, want) {
			t.Errorf("violations missing %q:\n%s", want, joined)
		}
	}
}

func TestCheckWithinTolerancePasses(t *testing.T) {
	base := gateFixture()
	cur := cloneReport(t, base)
	// 1.3× wall and 1.2× allocs sit inside the 1.5/1.4 bands.
	cur.Configs[0].Executors[0].WallMS *= 1.3
	cur.Configs[0].Executors[0].Allocs = uint64(float64(base.Configs[0].Executors[0].Allocs) * 1.2)
	if v := compareBenchReports(base, cur, gateTol); len(v) != 0 {
		t.Fatalf("in-band drift flagged: %v", v)
	}
}

func TestCheckSubsetRunAgainstFullBaseline(t *testing.T) {
	// CI runs only "small"; the committed baseline holds all three
	// configs. The gate compares the intersection and passes.
	base := gateFixture()
	base.Configs = append(base.Configs, benchConfig{
		Name:      "medium",
		Executors: []benchExecutor{{Executor: "core", WallMS: 200, Allocs: 1 << 20}},
	})
	cur := cloneReport(t, gateFixture())
	if v := compareBenchReports(base, cur, gateTol); len(v) != 0 {
		t.Fatalf("subset run flagged: %v", v)
	}
}

func TestCheckNoOverlapFails(t *testing.T) {
	base := gateFixture()
	cur := cloneReport(t, base)
	cur.Configs[0].Name = "renamed"
	v := compareBenchReports(base, cur, gateTol)
	if len(v) != 1 || !strings.Contains(v[0], "no overlapping") {
		t.Fatalf("violations = %v, want a no-overlap failure", v)
	}
}

func TestLoadBenchReportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_x.json")
	blob, err := json.Marshal(gateFixture())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := loadBenchReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tag != "base" || len(rep.Configs) != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if _, err := loadBenchReport(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	if err := os.WriteFile(path, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadBenchReport(path); err == nil {
		t.Error("empty report accepted")
	}
}

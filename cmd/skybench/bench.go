package main

// Benchmark-suite mode (-bench-tag): fixed named dataset configs
// (small / medium / large, all pinned — never scaled) pushed through
// all three executors — the in-process MapReduce simulator, the
// shared-memory parallel path, and the TCP coordinator against
// loopback workers — with wall clock, allocation, wire-byte, and
// skyline-size measurements for every config written to one
// BENCH_<tag>.json. Pinned sizes make the numbers comparable across
// commits; CI uploads the file as an artifact so the repo's perf
// trajectory accumulates.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"zskyline/internal/core"
	"zskyline/internal/dist"
	"zskyline/internal/gen"
	"zskyline/internal/parallel"
	"zskyline/internal/plan"
	"zskyline/internal/point"
	"zskyline/internal/sample"
)

type benchDataset struct {
	Distribution string `json:"distribution"`
	Points       int    `json:"points"`
	Dims         int    `json:"dims"`
	Seed         int64  `json:"seed"`
}

// benchSizes are the pinned named configurations. The sizes are part
// of the measurement contract: changing them breaks cross-commit
// comparability, so add a new name instead of editing one.
var benchSizes = map[string]int{
	"small":  2500,
	"medium": 20000,
	"large":  50000,
}

// benchConfigOrder fixes the emission order of the named configs.
var benchConfigOrder = []string{"small", "medium", "large"}

type benchExecutor struct {
	Executor      string  `json:"executor"`
	WallMS        float64 `json:"wall_ms"`
	Allocs        uint64  `json:"allocs"`
	AllocBytes    uint64  `json:"alloc_bytes"`
	WireSentBytes int64   `json:"wire_sent_bytes"`
	WireRecvBytes int64   `json:"wire_recv_bytes"`
	SkylineSize   int     `json:"skyline_size"`
}

// benchMapPath is the phase-2 map path's allocation count: one
// MapBlock over the config's data (same fixture as bench_test.go).
type benchMapPath struct {
	Points           int     `json:"points"`
	Dims             int     `json:"dims"`
	AllocsPerOpBlock float64 `json:"allocs_per_op_block"`
}

// benchConfig is one named config's full measurement set.
type benchConfig struct {
	Name      string          `json:"name"`
	Dataset   benchDataset    `json:"dataset"`
	Executors []benchExecutor `json:"executors"`
	MapPath   benchMapPath    `json:"map_path"`
}

type benchReport struct {
	Tag       string        `json:"tag"`
	GoVersion string        `json:"go_version"`
	Configs   []benchConfig `json:"configs"`
}

// measure runs f once and records wall clock plus heap-allocation
// deltas. Single-shot numbers are noisier than testing.B loops but
// cheap enough for a CI smoke job, and alloc counts are deterministic
// enough to track trends.
func measure(name string, f func() (sky int, err error)) (benchExecutor, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	sky, err := f()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return benchExecutor{}, fmt.Errorf("%s: %w", name, err)
	}
	return benchExecutor{
		Executor:    name,
		WallMS:      float64(wall.Microseconds()) / 1000,
		Allocs:      after.Mallocs - before.Mallocs,
		AllocBytes:  after.TotalAlloc - before.TotalAlloc,
		SkylineSize: sky,
	}, nil
}

func runBenchSuite(tag, configs string, workers int, seed int64, outdir string) (*benchReport, error) {
	if strings.ContainsAny(tag, "/\\ ") {
		return nil, fmt.Errorf("bench tag %q must be a plain filename fragment", tag)
	}
	names := benchConfigOrder
	if configs != "" {
		names = nil
		for _, name := range strings.Split(configs, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if _, ok := benchSizes[name]; !ok {
				return nil, fmt.Errorf("unknown bench config %q (have small, medium, large)", name)
			}
			names = append(names, name)
		}
		if len(names) == 0 {
			return nil, fmt.Errorf("no bench configs selected")
		}
	}
	rep := benchReport{Tag: tag, GoVersion: runtime.Version()}
	for _, name := range names {
		cfg, err := runBenchConfig(name, benchSizes[name], workers, seed)
		if err != nil {
			return nil, fmt.Errorf("config %s: %w", name, err)
		}
		rep.Configs = append(rep.Configs, cfg)
	}

	dir := outdir
	if dir == "" {
		dir = "."
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "BENCH_"+tag+".json")
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "skybench: wrote %s\n", path)
	return &rep, nil
}

// runBenchConfig measures one pinned config through every executor.
func runBenchConfig(name string, n, workers int, seed int64) (benchConfig, error) {
	const d = 5
	ds := gen.Synthetic(gen.AntiCorrelated, n, d, seed)
	ctx := context.Background()
	rep := benchConfig{
		Name:    name,
		Dataset: benchDataset{Distribution: gen.AntiCorrelated.String(), Points: n, Dims: d, Seed: seed},
	}

	// Executor 1: the fused MapReduce simulator.
	res, err := measure("core", func() (int, error) {
		cfg := core.Defaults()
		cfg.Workers = workers
		cfg.Seed = seed
		eng, err := core.NewEngine(cfg)
		if err != nil {
			return 0, err
		}
		sky, _, err := eng.Skyline(ctx, ds)
		return len(sky), err
	})
	if err != nil {
		return benchConfig{}, err
	}
	rep.Executors = append(rep.Executors, res)

	// Executor 2: the shared-memory shard-and-merge path.
	res, err = measure("parallel", func() (int, error) {
		sky, err := parallel.Skyline(ctx, ds, parallel.Options{Workers: workers})
		return len(sky), err
	})
	if err != nil {
		return benchConfig{}, err
	}
	rep.Executors = append(rep.Executors, res)

	// Executor 3: the TCP coordinator over loopback workers. Wire
	// totals cover the whole run — rule broadcast, block chunks, and
	// merge replies — which is the communication-volume number the
	// block framing is meant to shrink.
	var wss []*dist.WorkerServer
	defer func() {
		for _, ws := range wss {
			ws.Close()
		}
	}()
	addrs := make([]string, 2)
	for i := range addrs {
		ws, err := dist.StartWorker("127.0.0.1:0")
		if err != nil {
			return benchConfig{}, err
		}
		wss = append(wss, ws)
		addrs[i] = ws.Addr()
	}
	var wire []dist.WireStat
	res, err = measure("dist", func() (int, error) {
		cfg := dist.DefaultCoordinatorConfig()
		cfg.Seed = seed
		coord, err := dist.NewCoordinator(cfg, addrs)
		if err != nil {
			return 0, err
		}
		defer coord.Close()
		sky, _, err := coord.Skyline(ctx, ds)
		wire = coord.WireStats()
		return len(sky), err
	})
	if err != nil {
		return benchConfig{}, err
	}
	for _, w := range wire {
		res.WireSentBytes += w.Sent
		res.WireRecvBytes += w.Recv
	}
	rep.Executors = append(rep.Executors, res)

	mp, err := measureMapPath(ds, seed)
	if err != nil {
		return benchConfig{}, err
	}
	rep.MapPath = mp
	return rep, nil
}

// measureMapPath mirrors bench_test.go's mapPhaseFixture: SB locally,
// whose combine allocations scale with groups, not rows.
func measureMapPath(ds *point.Dataset, seed int64) (benchMapPath, error) {
	smp, err := sample.Ratio(ds.Points, 0.02, seed)
	if err != nil {
		return benchMapPath{}, err
	}
	mins, maxs, err := ds.Bounds()
	if err != nil {
		return benchMapPath{}, err
	}
	spec := &plan.Spec{Strategy: plan.ZDG, Local: plan.SB, Merge: plan.MergeZM,
		M: 32, Delta: 4, SampleRatio: 0.02, Bits: 16}
	r, err := plan.Learn(spec, ds.Dims, mins, maxs, smp, nil)
	if err != nil {
		return benchMapPath{}, err
	}
	blk := point.BlockOf(ds.Dims, ds.Points)
	bl := testing.AllocsPerRun(3, func() { _ = r.MapBlock(blk, nil) })
	return benchMapPath{Points: ds.Len(), Dims: ds.Dims, AllocsPerOpBlock: bl}, nil
}

package main

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"zskyline/internal/core"
	"zskyline/internal/metrics"
	"zskyline/internal/parallel"
	"zskyline/internal/plan"
	"zskyline/internal/point"
	"zskyline/internal/seq"
)

// batchSpec sizes one batch workload.
type batchSpec struct {
	name  string
	dist  distribution
	n, d  int
	tinyN int
	// datasets is how many datasets the seed draws. Queries rotate over
	// them, each queried at least once per loop, so one dataset's learned
	// partitioning does not decide the run's figures.
	datasets int
	setups   int
}

func runBatchIndep5d(o options) (*result, error) {
	return runBatch(o, batchSpec{name: "batch-indep5d", dist: independent,
		n: 500_000, d: 5, tinyN: 3000, datasets: 8, setups: 51})
}

func runBatchAnti8d(o options) (*result, error) {
	return runBatch(o, batchSpec{name: "batch-anti8d", dist: anticorrelated,
		n: 50_000, d: 8, tinyN: 1500, datasets: 16, setups: 51})
}

// batchInput is one generated dataset and its precomputed oracle.
type batchInput struct {
	blk  point.Block
	want fingerprint
}

// dataset wraps the block's rows into the point.Dataset core takes.
// Only the dataset being queried holds row views, so the collector
// never scans the others.
func (in batchInput) dataset() (*point.Dataset, error) {
	return point.NewDataset(in.blk.Dims, in.blk.Points())
}

// genBatch draws the seed's datasets and computes each one's seq.SB
// oracle, the datasets in parallel.
func genBatch(o options, s batchSpec) []batchInput {
	n := s.n
	if o.tiny {
		n = s.tinyN
	}
	rng := rand.New(rand.NewSource(o.seed))
	ins := make([]batchInput, s.datasets)
	for i := range ins {
		ins[i].blk = genBlock(rng, s.dist, n, s.d)
	}
	next := make(chan int, len(ins)) // one slot per dataset: never blocks
	for i := range ins {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				ins[i].want = fingerprintBlock(seq.SBBlock(ins[i].blk, nil))
			}
		}()
	}
	wg.Wait()
	return ins
}

// runBatch measures repeated core.Engine.Skyline calls, a fresh engine
// per query, over the seed's datasets in turn. Each result is checked
// against seq.SB over the same rows.
func runBatch(o options, s batchSpec) (*result, error) {
	ins := genBatch(o, s)
	res := newResult(s.name)

	// Set-up is what a library user does before querying: wrap the
	// rows into a validated dataset and build an engine. It is timed on
	// the first dataset.
	err := res.timeSetup(s.setups, nil, func() error {
		if _, err := ins[0].dataset(); err != nil {
			return err
		}
		_, err := core.NewEngine(core.Defaults())
		return err
	})
	if err != nil {
		return nil, err
	}

	// Warm-up: one checked query so lazy initialisation is not timed.
	// The test hook damages this result.
	ds, err := ins[0].dataset()
	if err != nil {
		return nil, err
	}
	if _, _, err := batchOp(context.Background(), nil, noSpan, ds, ins[0].want, o.corrupt, res); err != nil {
		return nil, err
	}

	run, err := batchLoop(o, ins, res, nil)
	if err != nil {
		return nil, err
	}
	res.latency("skyline", run.lat)
	res.set("ops_per_s", "1/s", run.opsPerS, len(run.lat))
	res.set("alloc_mb_per_op", "MB", run.alloc.mean()/(1<<20), len(run.alloc))
	res.set("cpu_ms_per_op", "ms", run.cpu.mean(), len(run.cpu))
	if o.trace {
		traced, err := batchLoop(o, ins, res, &tracer{})
		if err != nil {
			return nil, err
		}
		if err := traced.probes(ins, res); err != nil {
			return nil, err
		}
		traced.report(res, run.lat, ins[0].blk.Len())
		res.layer("harness.trace_overhead_frac", 1-traced.opsPerS/run.opsPerS, 1)
		res.Spans = traced.tr.stats()
		res.fillLayers()
	}
	res.finish()
	return res, nil
}

// batchRun is one measured query loop: per-query latency, allocation
// and CPU, and — when traced — each query's report and the probes.
type batchRun struct {
	tr              *tracer
	lat, alloc, cpu samples
	mallocs         samples
	opsPerS         float64
	reports         []*core.Report

	planLearn, planMaps, planShuffle, planReduces, planMerges samples
	mergeRounds                                               samples
	mapNsPerRow, sbMS, parMS                                  samples
}

// batchLoop runs checked queries for the configured seconds, rotating
// over the datasets. A non-nil tracer traces every call.
func batchLoop(o options, ins []batchInput, res *result, tr *tracer) (*batchRun, error) {
	run := &batchRun{tr: tr}
	ctx := context.Background()
	start := time.Now()
	deadline := start.Add(o.duration())
	for i := 0; i < len(ins) || time.Now().Before(deadline); i++ {
		in := ins[i%len(ins)]
		ds, err := in.dataset()
		if err != nil {
			return nil, err
		}
		// Every query starts from a collected heap, so one query's
		// garbage does not land in the next one's latency.
		runtime.GC()
		op := tr.begin("batch.query", noSpan)
		u0 := readUsage()
		rep, wall, err := batchOp(ctx, tr, op, ds, in.want, false, res)
		u1 := readUsage()
		tr.end(op)
		if err != nil {
			return nil, err
		}
		run.lat = append(run.lat, ms(wall))
		run.alloc = append(run.alloc, float64(u1.alloc-u0.alloc))
		run.mallocs = append(run.mallocs, float64(u1.mallocs-u0.mallocs))
		run.cpu = append(run.cpu, ms(u1.cpu-u0.cpu))
		run.reports = append(run.reports, rep)
	}
	run.opsPerS = float64(len(run.lat)) / time.Since(start).Seconds()
	return run, nil
}

// batchOp builds a fresh engine, runs one skyline query, checks it
// against the oracle, and returns the query's report and wall time.
func batchOp(ctx context.Context, tr *tracer, parent int, ds *point.Dataset, want fingerprint, corrupt bool, res *result) (*core.Report, time.Duration, error) {
	sp := tr.begin("core.NewEngine", parent)
	eng, err := core.NewEngine(core.Defaults())
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	sp = tr.begin("core.Engine.Skyline", parent)
	t0 := time.Now()
	sky, rep, err := eng.Skyline(ctx, ds)
	wall := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	if corrupt && len(sky) > 0 {
		sky = sky[1:]
	}
	sp = tr.begin("oracle.check", parent)
	res.check(fingerprintOf(sky) == want)
	tr.end(sp)
	return rep, wall, nil
}

// timedExec is a plan.Executor that runs plan.NewLocalExec and times
// each call plan.Run makes into it, splitting map from local skyline,
// which core's fused path does not.
type timedExec struct {
	inner *plan.LocalExec
	tr    *tracer
	root  int

	rule                  *plan.Rule
	broadcastAt           time.Time
	mapEnd, reduceStart   time.Time
	maps, reduces, merges time.Duration
	rounds                int
}

func (x *timedExec) Broadcast(ctx context.Context, r *plan.Rule) error {
	x.rule = r
	x.broadcastAt = time.Now()
	sp := x.tr.begin("plan.Broadcast", x.root)
	defer x.tr.end(sp)
	return x.inner.Broadcast(ctx, r)
}

func (x *timedExec) RunMaps(ctx context.Context, r *plan.Rule, chunks []point.Block, t *metrics.Tally) ([]plan.MapOutput, error) {
	sp := x.tr.begin("plan.RunMaps", x.root)
	t0 := time.Now()
	out, err := x.inner.RunMaps(ctx, r, chunks, t)
	x.mapEnd = time.Now()
	x.maps += x.mapEnd.Sub(t0)
	x.tr.end(sp)
	return out, err
}

func (x *timedExec) RunReduces(ctx context.Context, r *plan.Rule, groups []plan.Group, t *metrics.Tally) ([]plan.Group, error) {
	x.reduceStart = time.Now()
	if !x.mapEnd.IsZero() {
		x.tr.record("plan.Shuffle", x.root, x.mapEnd, x.reduceStart)
	}
	sp := x.tr.begin("plan.RunReduces", x.root)
	out, err := x.inner.RunReduces(ctx, r, groups, t)
	x.reduces += time.Since(x.reduceStart)
	x.tr.end(sp)
	return out, err
}

func (x *timedExec) RunMerges(ctx context.Context, r *plan.Rule, tasks [][]plan.Group, t *metrics.Tally) ([]plan.Group, error) {
	sp := x.tr.begin("plan.RunMerges", x.root)
	t0 := time.Now()
	out, err := x.inner.RunMerges(ctx, r, tasks, t)
	x.merges += time.Since(t0)
	x.rounds++
	x.tr.end(sp)
	return out, err
}

// defaultSpec is the plan.Spec core.Engine runs with core.Defaults().
func defaultSpec() (*plan.Spec, int) {
	c := core.Defaults()
	return &plan.Spec{
		Strategy: c.Strategy, Local: c.Local, Merge: c.Merge,
		M: c.M, Delta: c.Delta, SampleRatio: c.SampleRatio, Bits: c.Bits,
		Fanout: c.Fanout, Seed: c.Seed, DisableSZBFilter: c.DisableSZBFilter,
		MapTasks: 2 * c.Workers, Dominance: c.Dominance,
	}, c.Workers
}

// probeDatasets is how many of the datasets the probes run on.
const probeDatasets = 4

// probes times, from outside and on each of the first probeDatasets
// datasets, the layers core.Engine fuses: the plan phases on a
// benchmark-owned executor, a single-goroutine map over the whole
// block, the seq.SB baseline and the parallel reference executor.
// Every probe's result is oracle-checked too.
func (l *batchRun) probes(ins []batchInput, res *result) error {
	tr := l.tr
	ctx := context.Background()
	spec, workers := defaultSpec()
	for _, in := range ins[:min(len(ins), probeDatasets)] {
		ds, err := in.dataset()
		if err != nil {
			return err
		}
		root := tr.begin("plan.Run", noSpan)
		x := &timedExec{inner: plan.NewLocalExec(workers), tr: tr, root: root}
		start := time.Now()
		sky, _, err := plan.Run(ctx, spec, ds, x, nil)
		tr.end(root)
		if err != nil {
			return err
		}
		res.check(fingerprintOf(sky) == in.want)
		l.planLearn = append(l.planLearn, ms(x.broadcastAt.Sub(start)))
		l.planMaps = append(l.planMaps, ms(x.maps))
		l.planShuffle = append(l.planShuffle, ms(x.reduceStart.Sub(x.mapEnd)))
		l.planReduces = append(l.planReduces, ms(x.reduces))
		l.planMerges = append(l.planMerges, ms(x.merges))
		l.mergeRounds = append(l.mergeRounds, float64(x.rounds))

		sp := tr.begin("plan.Rule.MapBlock", noSpan)
		t0 := time.Now()
		x.rule.MapBlock(in.blk, nil)
		l.mapNsPerRow = append(l.mapNsPerRow, float64(time.Since(t0).Nanoseconds())/float64(in.blk.Len()))
		tr.end(sp)

		runtime.GC()
		sp = tr.begin("seq.SBBlock", noSpan)
		t0 = time.Now()
		sb := seq.SBBlock(in.blk, nil)
		l.sbMS = append(l.sbMS, ms(time.Since(t0)))
		tr.end(sp)
		res.check(fingerprintBlock(sb) == in.want)

		runtime.GC()
		sp = tr.begin("parallel.Skyline", noSpan)
		t0 = time.Now()
		psky, err := parallel.Skyline(ctx, ds, parallel.Options{})
		l.parMS = append(l.parMS, ms(time.Since(t0)))
		tr.end(sp)
		if err != nil {
			return err
		}
		res.check(fingerprintOf(psky) == in.want)
	}
	return nil
}

// report turns the traced run into per-layer metrics: medians over
// the traced queries' core.Reports, and over the probe repetitions.
func (l *batchRun) report(res *result, untraced samples, rows int) {
	var learn, phase2, merge, filtered, yield, dom, region, pruned, shuffled, records samples
	for _, r := range l.reports {
		learn = append(learn, ms(r.Preprocess))
		phase2 = append(phase2, ms(r.Phase2))
		merge = append(merge, ms(r.Phase3))
		filtered = append(filtered, float64(r.MapperFiltered)/float64(rows))
		if r.Candidates > 0 {
			yield = append(yield, float64(r.SkylineSize)/float64(r.Candidates))
		}
		dom = append(dom, float64(r.Tally.DominanceTests))
		region = append(region, float64(r.Tally.RegionTests))
		pruned = append(pruned, float64(r.Tally.PointsPruned))
		shuffled = append(shuffled, float64(r.Tally.BytesShuffled))
		records = append(records, float64(r.Tally.RecordsEmitted))
	}
	n := len(l.reports)
	res.layer("core.learn_ms", learn.median(), n)
	res.layer("core.phase2_ms", phase2.median(), n)
	res.layer("core.merge_ms", merge.median(), n)
	res.layer("core.filtered_frac", filtered.median(), n)
	res.layer("core.candidate_yield", yield.median(), len(yield))
	res.layer("core.dominance_tests", dom.median(), n)
	res.layer("core.region_tests", region.median(), n)
	res.layer("core.points_pruned", pruned.median(), n)
	res.layer("core.bytes_shuffled", shuffled.median(), n)
	res.layer("core.records_emitted", records.median(), n)
	res.layer("core.allocs_per_op", l.mallocs.median(), len(l.mallocs))
	res.layer("core.speedup_vs_sb", l.sbMS.median()/untraced.median(), len(l.sbMS))

	res.layer("plan.learn_ms", l.planLearn.median(), len(l.planLearn))
	res.layer("plan.maps_ms", l.planMaps.median(), len(l.planMaps))
	res.layer("plan.shuffle_ms", l.planShuffle.median(), len(l.planShuffle))
	res.layer("plan.reduces_ms", l.planReduces.median(), len(l.planReduces))
	res.layer("plan.merge_ms", l.planMerges.median(), len(l.planMerges))
	res.layer("plan.merge_rounds", l.mergeRounds.median(), len(l.mergeRounds))
	res.layer("plan.map_ns_per_row", l.mapNsPerRow.median(), len(l.mapNsPerRow))
	res.layer("seq.sb_ms", l.sbMS.median(), len(l.sbMS))
	res.layer("parallel.skyline_ms", l.parMS.median(), len(l.parMS))
}

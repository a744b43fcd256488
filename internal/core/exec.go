package core

import (
	"context"
	"sync/atomic"
	"time"

	"zskyline/internal/mapreduce"
	"zskyline/internal/metrics"
	"zskyline/internal/obs"
	"zskyline/internal/plan"
	"zskyline/internal/point"
)

// mrExec schedules plan phases as jobs on the MapReduce simulator. It
// implements plan.MapReducer so phase 2 stays one fused job — keeping
// the simulator's shuffle/straggler/fault accounting — and runs phase 3
// as a second job. Both jobs shuffle plan.Groups (a block of rows plus
// its Z-address column), never single rows, so each address is encoded
// once by the mapper that routes its row and reused by the local
// skyline and every merge round: the encode-once path LocalExec and
// dist run. The embedded LocalExec serves the plain map/reduce task
// interfaces, which plan.Run bypasses here.
type mrExec struct {
	*plan.LocalExec
	cluster *mapreduce.Cluster
	splits  int
	dims    int

	job1, job2 *mapreduce.JobStats
}

// groupJob is the shape of both simulator jobs: values are groups keyed
// by an int (gid in job 1, merge task in job 2), and every record
// count is kept in rows, not group fragments.
func groupJob[I any](name string, rows func(I) int, reducers, dims int, tally *metrics.Tally) mapreduce.Job[I, int, plan.Group, plan.Group] {
	return mapreduce.Job[I, int, plan.Group, plan.Group]{
		Name:      name,
		Partition: func(key, n int) int { return key % n },
		Reducers:  reducers,
		// A group ships its rows and their Z-addresses once, plus its key.
		SizeOf: func(_ int, g plan.Group) int {
			return 8 + g.Len()*8*dims + len(g.ZCol.Data)*8
		},
		InputRows:  rows,
		ValueRows:  plan.Group.Len,
		OutputRows: plan.Group.Len,
		Tally:      tally,
	}
}

// MapReduce runs MapReduce job 1 (Algorithm 3) and returns the
// candidate groups in deterministic gid order. Each row-range chunk is
// one map task running r.MapBlock — SZB filter, routing, and the
// chunk-local skyline as combiner — and each reducer shuffles its
// group's fragments together and runs r.LocalSkylineGroup.
func (ex *mrExec) MapReduce(ctx context.Context, r *plan.Rule, chunks []point.Block, tally *metrics.Tally) ([]plan.Group, int64, error) {
	// Per-task drop counts are stored, not added, so a speculative
	// duplicate of a map task cannot count its drops twice.
	filtered := make([]atomic.Int64, len(chunks))
	splits := make([][]point.Block, len(chunks))
	for i := range chunks {
		splits[i] = chunks[i : i+1 : i+1]
	}
	job := groupJob("skyline-candidates", point.Block.Len, r.Groups(), ex.dims, tally)
	job.Map = func(tc *mapreduce.TaskContext, chunk point.Block, emit func(int, plan.Group)) error {
		out := r.MapBlock(chunk, tally)
		filtered[tc.Task].Store(out.Filtered)
		for _, g := range out.Groups {
			emit(g.Gid, g)
		}
		return nil
	}
	job.Reduce = func(_ *mapreduce.TaskContext, _ int, frags []plan.Group, emit func(plan.Group)) error {
		groups, _ := plan.Shuffle([]plan.MapOutput{{Groups: frags}})
		for _, g := range groups {
			emit(r.LocalSkylineGroup(g, tally))
		}
		return nil
	}
	start := time.Now()
	groups, stats, err := mapreduce.Run(ctx, ex.cluster, job, splits)
	if err != nil {
		return nil, 0, err
	}
	ex.job1 = stats
	var dropped int64
	for i := range filtered {
		dropped += filtered[i].Load()
	}

	// The simulator fuses phase 2 into one job; reconstruct the
	// taxonomy's map and local-skyline spans from the job's phase walls
	// (the MapReducer observability contract).
	if sp := obs.SpanFrom(ctx); sp != nil {
		candidates := 0
		for _, g := range groups {
			candidates += g.Len()
		}
		mapSp := sp.ChildAt("map", start, stats.MapWall)
		mapSp.SetAttr("tasks", len(stats.MapStats))
		mapSp.SetAttr("filtered", dropped)
		mapSp.SetAttr("fused", "simulator")
		mapSp.SetAttr("shuffle_bytes", stats.ShuffleBytes)
		redSp := sp.ChildAt("local-skyline", start.Add(stats.MapWall), stats.ReduceWall)
		redSp.SetAttr("groups", len(stats.ReduceStats))
		redSp.SetAttr("candidates", candidates)
		redSp.SetAttr("fused", "simulator")
		redSp.SetAttr("reduce_balance", stats.ReduceInputBalance().String())
	}
	// Reducer r holds gid r, so the output is already in gid order.
	return groups, dropped, nil
}

// taskGroup is a job-2 input record: one candidate group tagged with
// the merge task it belongs to.
type taskGroup struct {
	task int
	g    plan.Group
}

func (tg taskGroup) rows() int { return tg.g.Len() }

// RunMerges runs MapReduce job 2 (§5.3): every merge task becomes one
// reducer, and each reducer runs r.MergeGroupsZ over its groups. The
// merged groups keep their Z-address columns, so tree-merge rounds
// reuse every address. Each call is one round; the rounds' statistics
// accumulate into one skyline-merge job.
func (ex *mrExec) RunMerges(ctx context.Context, r *plan.Rule, tasks [][]plan.Group, tally *metrics.Tally) ([]plan.Group, error) {
	var recs []taskGroup
	outs := make([]plan.Group, len(tasks))
	for t, groups := range tasks {
		outs[t] = plan.Group{Gid: t, Block: point.Block{Dims: ex.dims}}
		for _, g := range groups {
			recs = append(recs, taskGroup{task: t, g: g})
		}
	}
	if len(recs) == 0 {
		return outs, nil
	}
	job := groupJob("skyline-merge", taskGroup.rows, len(tasks), ex.dims, tally)
	job.Map = func(_ *mapreduce.TaskContext, tg taskGroup, emit func(int, plan.Group)) error {
		emit(tg.task, tg.g)
		return nil
	}
	job.Reduce = func(_ *mapreduce.TaskContext, task int, groups []plan.Group, emit func(plan.Group)) error {
		out := r.MergeGroupsZ(groups, tally)
		out.Gid = task
		emit(out)
		return nil
	}
	merged, stats, err := mapreduce.Run(ctx, ex.cluster, job, mapreduce.SplitSlice(recs, ex.splits))
	if err != nil {
		return nil, err
	}
	if ex.job2 == nil {
		ex.job2 = stats
	} else {
		ex.job2.Merge(stats)
	}
	if sp := obs.SpanFrom(ctx); sp != nil {
		sp.SetAttr("fused", "simulator")
		sp.SetAttr("shuffle_bytes", stats.ShuffleBytes)
	}
	for _, g := range merged {
		outs[g.Gid] = g
	}
	return outs, nil
}

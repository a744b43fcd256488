package plan

import (
	"context"
	"fmt"
	"time"

	"zskyline/internal/dominance"
	"zskyline/internal/metrics"
	"zskyline/internal/obs"
	"zskyline/internal/point"
	"zskyline/internal/sample"
)

// Report describes one pipeline run at the plan level: the phase
// numbers every substrate shares. Substrates wrap it with their own
// execution statistics (job stats, worker counts).
type Report struct {
	// Phase wall-clock durations. Preprocess covers ingest, sampling,
	// rule learning, and the broadcast.
	Preprocess time.Duration
	Phase2     time.Duration
	Phase3     time.Duration
	Total      time.Duration

	// SampleSize is the number of sampled points; SampleSkySize the
	// size of the sample skyline loaded into every mapper.
	SampleSize    int
	SampleSkySize int

	// Groups is the number of groups (= phase-2 reducers); Partitions
	// the number of Z-partitions before grouping; PrunedPartitions how
	// many were dropped as fully dominated.
	Groups           int
	Partitions       int
	PrunedPartitions int

	// Filtered counts input points dropped by the SZB-tree filter or by
	// pruned partitions before the shuffle.
	Filtered int64
	// Candidates is the phase-2 output size; PerGroupCandidates its
	// per-group breakdown (indexed by gid).
	Candidates         int
	PerGroupCandidates []int
	// SkylineSize is |S|.
	SkylineSize int
}

// Run executes the full three-phase pipeline on ex over an in-memory
// dataset: copy it into contiguous blocks (folding bounds in the same
// pass), learn the rule from a sample, map/combine/reduce to per-group
// skyline candidates, merge them into the global skyline, and close
// that under a non-transitive relation (VerifyCandidates).
//
// When ctx carries an obs trace (obs.ContextWithTrace), Run emits the
// library's uniform span taxonomy — learn, map, local-skyline,
// merge/round-N and, when it runs, verify — under the context's
// current span, so every substrate produces structurally identical
// trace reports.
func Run(ctx context.Context, spec *Spec, ds *point.Dataset, ex Executor, tally *metrics.Tally) ([]point.Point, *Report, error) {
	rep := &Report{}
	if ds == nil || ds.Len() == 0 {
		return nil, rep, nil
	}
	if ds.Dims <= 0 {
		return nil, nil, fmt.Errorf("plan: dataset has no dimensionality")
	}
	n := ds.Len()
	total := time.Now()

	// ---- Phase 1: preprocessing on the master ----
	learnSpan, lctx := obs.StartSpan(ctx, "learn")
	t0 := time.Now()
	blocks, mins, maxs := ingest(ds, spec)
	smp, err := sample.Ratio(ds.Points, spec.SampleRatio, spec.Seed)
	if err != nil {
		learnSpan.End()
		return nil, nil, err
	}
	rep.SampleSize = len(smp)
	r, err := Learn(spec, ds.Dims, mins, maxs, smp, tally)
	if err != nil {
		learnSpan.End()
		return nil, nil, err
	}
	if err := ex.Broadcast(lctx, r); err != nil {
		learnSpan.End()
		return nil, nil, err
	}
	rep.Preprocess = time.Since(t0)
	rep.Groups = r.groups
	rep.Partitions = r.parts
	rep.PrunedPartitions = r.pruned
	rep.SampleSkySize = r.skySize
	learnSpan.SetAttr("strategy", spec.Strategy)
	learnSpan.SetAttr("points", n)
	learnSpan.SetAttr("sample", rep.SampleSize)
	learnSpan.SetAttr("sample_skyline", rep.SampleSkySize)
	learnSpan.SetAttr("groups", rep.Groups)
	learnSpan.SetAttr("partitions", rep.Partitions)
	learnSpan.SetAttr("pruned", rep.PrunedPartitions)
	learnSpan.End()

	// ---- Phase 2: compute skyline candidates ----
	t1 := time.Now()
	groups, filtered, err := runPhase2(ctx, spec, r, blocks, ex, tally)
	if err != nil {
		return nil, nil, err
	}
	rep.Phase2 = time.Since(t1)
	rep.Filtered = filtered
	perGroup := make([]int, r.groups)
	for _, g := range groups {
		rep.Candidates += g.Len()
		if g.Gid >= 0 && g.Gid < r.groups {
			perGroup[g.Gid] += g.Len()
		}
	}
	rep.PerGroupCandidates = perGroup

	// ---- Phase 3: merge skyline candidates ----
	t2 := time.Now()
	sky, err := MergePhase(ctx, ex, r, groups, spec.TreeMerge, tally)
	if err != nil {
		return nil, nil, err
	}
	sky, err = VerifyCandidates(ctx, r.prov, sky, func(visit func(point.Block)) error {
		for _, b := range blocks {
			visit(b)
		}
		return nil
	}, tally)
	if err != nil {
		return nil, nil, err
	}
	rep.Phase3 = time.Since(t2)
	rep.SkylineSize = len(sky)
	rep.Total = time.Since(total)
	if sp := obs.SpanFrom(ctx); sp != nil {
		if id := obs.RequestIDFrom(ctx); id != "" {
			sp.SetAttr("request_id", id)
		}
		sp.SetAttr("points", n)
		sp.SetAttr("skyline", rep.SkylineSize)
		sp.SetAttr("candidates", rep.Candidates)
		sp.SetAttr("candidate_balance", metrics.NewBalance(rep.PerGroupCandidates).String())
	}
	return sky, rep, nil
}

// VerifyCandidates is the closure pass for non-transitive dominance
// relations, shared by every executor. Local and merge phases then
// produce a candidate superset (an eliminated point can still dominate
// a candidate), so every candidate is retested against the full
// dataset, which scan hands to visit block by block — from memory, or
// re-streamed from a file so the caller never holds it. Elimination
// cites a real dataset point, which is sound under any irreflexive
// relation; candidates are compacted copies, so their own source rows
// are merely coordinate-equal and never self-eliminate. Transitive
// relations (Pareto included) return sky unchanged without calling
// scan.
func VerifyCandidates(ctx context.Context, prov dominance.Provider, sky []point.Point, scan func(visit func(point.Block)) error, tally *metrics.Tally) ([]point.Point, error) {
	if dominance.IsPareto(prov) || prov.Caps().Transitive || len(sky) == 0 {
		return sky, nil
	}
	sp, _ := obs.StartSpan(ctx, "verify")
	defer sp.End()
	sp.SetAttr("candidates", len(sky))
	cand := point.BlockOf(len(sky[0]), sky)
	err := scan(func(b point.Block) { cand = dominance.FilterBlock(prov, cand, b, tally) })
	if err != nil {
		return nil, err
	}
	sp.SetAttr("skyline", cand.Len())
	return cand.Points(), nil
}

// ingest copies the dataset into contiguous blocks of ChunkSize rows
// (1<<16 when unset), folding the running bounds in the same pass.
func ingest(ds *point.Dataset, spec *Spec) (blocks []point.Block, mins, maxs []float64) {
	batch := spec.ChunkSize
	if batch <= 0 {
		batch = 1 << 16
	}
	for lo := 0; lo < len(ds.Points); lo += batch {
		b := point.BlockOf(ds.Dims, ds.Points[lo:min(lo+batch, len(ds.Points))])
		mins, maxs = b.UpdateBounds(mins, maxs)
		blocks = append(blocks, b)
	}
	return blocks, mins, maxs
}

// runPhase2 prefers the substrate's fused map-reduce when offered,
// falling back to map tasks + coordinator-side shuffle + reduce tasks.
// The split path emits the taxonomy's map and local-skyline spans; a
// fused MapReducer is responsible for emitting them itself (see the
// interface contract).
func runPhase2(ctx context.Context, spec *Spec, r *Rule, blocks []point.Block, ex Executor, tally *metrics.Tally) ([]Group, int64, error) {
	chunks := spec.chunkBlocks(blocks)
	if mr, ok := ex.(MapReducer); ok {
		return mr.MapReduce(ctx, r, chunks, tally)
	}
	mapSpan, mctx := obs.StartSpan(ctx, "map")
	mapSpan.SetAttr("tasks", len(chunks))
	outs, err := ex.RunMaps(mctx, r, chunks, tally)
	if err != nil {
		mapSpan.End()
		return nil, 0, err
	}
	groups, filtered := Shuffle(outs)
	mapSpan.SetAttr("filtered", filtered)
	mapSpan.End()
	redSpan, rctx := obs.StartSpan(ctx, "local-skyline")
	redSpan.SetAttr("groups", len(groups))
	groups, err = ex.RunReduces(rctx, r, groups, tally)
	if err != nil {
		redSpan.End()
		return nil, 0, err
	}
	candidates := 0
	for _, g := range groups {
		candidates += g.Len()
	}
	redSpan.SetAttr("candidates", candidates)
	redSpan.End()
	return groups, filtered, nil
}

// MergePhase is phase 3 (§5.3): one merge task over all candidate
// groups, or — with tree set — rounds of pairwise merge tasks until a
// single result remains, checking ctx between rounds. Each round is
// one merge/round-N span.
func MergePhase(ctx context.Context, ex Executor, r *Rule, groups []Group, tree bool, tally *metrics.Tally) ([]point.Point, error) {
	if len(groups) == 0 {
		return nil, nil
	}
	if !tree || len(groups) <= 2 {
		sp, mctx := obs.StartSpan(ctx, "merge/round-1")
		sp.SetAttr("tasks", 1)
		sp.SetAttr("groups", len(groups))
		outs, err := ex.RunMerges(mctx, r, [][]Group{groups}, tally)
		if err != nil {
			sp.End()
			return nil, err
		}
		sp.SetAttr("skyline", outs[0].Len())
		sp.End()
		return outs[0].Block.Points(), nil
	}
	for round := 1; len(groups) > 1; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		tasks := make([][]Group, 0, (len(groups)+1)/2)
		for i := 0; i+1 < len(groups); i += 2 {
			tasks = append(tasks, []Group{groups[i], groups[i+1]})
		}
		sp, mctx := obs.StartSpan(ctx, fmt.Sprintf("merge/round-%d", round))
		sp.SetAttr("tasks", len(tasks))
		sp.SetAttr("groups", len(groups))
		outs, err := ex.RunMerges(mctx, r, tasks, tally)
		if err != nil {
			sp.End()
			return nil, err
		}
		sp.End()
		// Merged groups keep their Z-address columns (when the executor
		// carries them) so the next round's merge reuses every address.
		next := make([]Group, 0, len(outs)+1)
		for i, g := range outs {
			g.Gid = i
			next = append(next, g)
		}
		if len(groups)%2 == 1 {
			last := groups[len(groups)-1]
			last.Gid = len(next)
			next = append(next, last)
		}
		groups = next
	}
	return groups[0].Points(), nil
}

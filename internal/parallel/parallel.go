// Package parallel computes skylines on shared-memory multicores
// without the MapReduce machinery: the input is sharded across
// goroutines, each shard is solved with Z-search, and the shard
// skylines are combined with a parallel Z-merge reduction tree. The
// phase logic and the reduction shape live in internal/plan; this
// package is the thin shared-memory entry point for users who want
// the paper's algorithms but run on one machine, not a simulated
// cluster.
package parallel

import (
	"context"
	"runtime"

	"zskyline/internal/dominance"
	"zskyline/internal/metrics"
	"zskyline/internal/obs"
	"zskyline/internal/plan"
	"zskyline/internal/point"
	"zskyline/internal/zorder"
)

// Options tunes Skyline.
type Options struct {
	// Workers is the shard/goroutine count; 0 selects GOMAXPROCS.
	Workers int
	// Bits is the Z-order resolution; 0 selects 16 (capped for very
	// high dimensionality).
	Bits int
	// Fanout is the ZB-tree fanout; 0 selects the default.
	Fanout int
	// Tally receives work counters; may be nil.
	Tally *metrics.Tally
	// Dominance selects the dominance relation (see internal/dominance);
	// the zero value is classic Pareto dominance.
	Dominance dominance.Descriptor
}

func (o Options) normalize(dims int) Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Bits <= 0 {
		switch {
		case dims <= 16:
			o.Bits = 16
		case dims <= 64:
			o.Bits = 12
		default:
			o.Bits = 8
		}
	}
	return o
}

// Skyline computes the exact skyline of ds using opts.Workers
// goroutines, honoring ctx between merge rounds.
//
// When ctx carries an obs trace, Skyline emits the library's uniform
// span taxonomy: learn covers encoder construction, map covers the
// positional sharding, local-skyline the per-shard Z-search, and
// merge/round-N the pairwise reduction (via plan.MergePhase).
func Skyline(ctx context.Context, ds *point.Dataset, opts Options) ([]point.Point, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, nil
	}
	opts = opts.normalize(ds.Dims)

	// "Learning" here is only bounds + encoder setup: the shared-memory
	// path shards positionally instead of partitioning by Z-address.
	learnSpan, _ := obs.StartSpan(ctx, "learn")
	learnSpan.SetAttr("strategy", "positional")
	prov, err := opts.Dominance.Provider()
	if err != nil {
		learnSpan.End()
		return nil, err
	}
	mins, maxs, err := ds.Bounds()
	if err != nil {
		learnSpan.End()
		return nil, err
	}
	enc, err := zorder.NewEncoder(ds.Dims, opts.Bits, mins, maxs)
	if err != nil {
		learnSpan.End()
		return nil, err
	}
	r := plan.NewLocalRuleUnder(prov, enc, opts.Fanout, plan.ZS, plan.MergeZM)
	ex := plan.NewLocalExec(opts.Workers)
	learnSpan.SetAttr("groups", opts.Workers)
	learnSpan.End()

	// Shard positionally and solve each shard with Z-search. The input
	// is packed into one contiguous block, Z-encoded once as a single
	// bulk pass, and sharded by re-slicing — every shard is a zero-copy
	// view of the same flat array and the same address column, so the
	// reduce and merge phases never encode a point again.
	mapSpan, _ := obs.StartSpan(ctx, "map")
	block := point.BlockOf(ds.Dims, ds.Points)
	zc := enc.EncodeBlock(zorder.ZCol{}, block)
	parts := block.SplitN(opts.Workers)
	shards := make([]plan.Group, 0, len(parts))
	off := 0
	for s, b := range parts {
		shards = append(shards, plan.Group{Gid: s, Block: b, ZCol: zc.Slice(off, off+b.Len())})
		off += b.Len()
	}
	mapSpan.SetAttr("tasks", len(shards))
	mapSpan.SetAttr("filtered", 0)
	mapSpan.End()

	redSpan, rctx := obs.StartSpan(ctx, "local-skyline")
	redSpan.SetAttr("groups", len(shards))
	skys, err := ex.RunReduces(rctx, r, shards, opts.Tally)
	if err != nil {
		redSpan.End()
		return nil, err
	}
	candidates := 0
	for _, g := range skys {
		candidates += g.Len()
	}
	redSpan.SetAttr("candidates", candidates)
	redSpan.End()

	// Parallel pairwise Z-merge reduction.
	sky, err := plan.MergePhase(ctx, ex, r, skys, true, opts.Tally)
	if err != nil {
		return nil, err
	}

	// Non-transitive relations leave the merge with a candidate
	// superset (an eliminated shard point can still dominate a
	// candidate); close it against the full input.
	return plan.VerifyCandidates(ctx, prov, sky, func(visit func(point.Block)) error {
		visit(block)
		return nil
	}, opts.Tally)
}

// Package plan holds the paper's three-phase skyline pipeline exactly
// once, independent of where it runs. The phase logic — learn the
// partitioning rule from a sample (§5.1), filter/route/combine points
// in mappers (§5.2, Algorithm 3), reduce each group to its skyline
// candidates, and merge candidates into the global skyline (§5.3,
// Algorithm 4) — lives here; the execution substrates supply only an
// Executor that says where tasks run:
//
//   - internal/core adapts the in-process MapReduce simulator
//     (combiner + shuffle accounting, stragglers, faults);
//   - internal/dist adapts a TCP coordinator and framed-transport
//     workers (internal/transport);
//   - internal/parallel adapts a shared-memory goroutine pool
//     (plan.LocalExec).
//
// A Rule is the learned phase-1 artifact. It is directly executable
// in-process and, for the Z-order strategies, serializable (RuleData)
// so a coordinator can broadcast it to remote workers — the paper's
// distributed-cache step.
package plan

import (
	"fmt"

	"zskyline/internal/dominance"
	"zskyline/internal/point"
	"zskyline/internal/zbtree"
	"zskyline/internal/zorder"
)

// Strategy selects the partitioning/grouping scheme of phase 1.
type Strategy int

// The partitioning strategies of the paper's evaluation (§6.1).
const (
	// Grid is classic equal-width grid partitioning [9][11].
	Grid Strategy = iota
	// Angle is angle-based partitioning [8].
	Angle
	// Random is hash partitioning [18].
	Random
	// NaiveZ is plain Z-order equal-frequency partitioning (§4.1).
	NaiveZ
	// ZHG is Z-order partitioning plus Heuristic Grouping (§4.2).
	ZHG
	// ZDG is Z-order partitioning plus Dominance-based Grouping (§4.3),
	// the paper's headline strategy.
	ZDG
)

// String names the strategy as the paper does.
func (s Strategy) String() string {
	switch s {
	case Grid:
		return "Grid"
	case Angle:
		return "Angle"
	case Random:
		return "Random"
	case NaiveZ:
		return "Naive-Z"
	case ZHG:
		return "ZHG"
	case ZDG:
		return "ZDG"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// UsesZOrder reports whether the strategy routes by Z-address and may
// apply the SZB-tree mapper filter of Algorithm 3.
func (s Strategy) UsesZOrder() bool { return s == NaiveZ || s == ZHG || s == ZDG }

// LocalAlgo selects the per-group skyline algorithm of phase 2.
type LocalAlgo int

// Local skyline algorithms (§6.1).
const (
	// SB sorts by coordinate sum then filters (block-nested-loops).
	SB LocalAlgo = iota
	// ZS is Z-search over a ZB-tree, the state of the art.
	ZS
)

// String names the local algorithm.
func (a LocalAlgo) String() string {
	if a == SB {
		return "SB"
	}
	return "ZS"
}

// MergeAlgo selects the phase-3 candidate merging algorithm.
type MergeAlgo int

// Merge algorithms compared in §6.3.
const (
	// MergeZM is the paper's Z-merge (Algorithm 4).
	MergeZM MergeAlgo = iota
	// MergeZS recomputes the skyline of all candidates with Z-search.
	MergeZS
	// MergeSB recomputes it with the sort-based filter.
	MergeSB
)

// String names the merge algorithm.
func (a MergeAlgo) String() string {
	switch a {
	case MergeZM:
		return "ZM"
	case MergeZS:
		return "ZS"
	default:
		return "SB"
	}
}

// Spec parameterizes one pipeline run: what to compute, not where.
// The zero value is not valid; substrates fill it from their configs.
type Spec struct {
	// Strategy is the phase-1 partitioning scheme.
	Strategy Strategy
	// Local is the per-group skyline algorithm of phase 2.
	Local LocalAlgo
	// Merge is the phase-3 candidate merging algorithm.
	Merge MergeAlgo
	// M is the target number of groups (the paper's M); also the grid /
	// angle / random partition count for the baselines.
	M int
	// Delta is the partition expansion factor delta >= 1: Z-order
	// strategies first cut the curve into M*Delta partitions (§4.2).
	Delta int
	// SampleRatio is the reservoir sampling ratio of phase 1.
	SampleRatio float64
	// Bits is the Z-order grid resolution per dimension.
	Bits int
	// Fanout is the ZB-tree node capacity; 0 selects the default.
	Fanout int
	// Seed drives sampling (and nothing else; the pipeline is
	// deterministic given data and seed).
	Seed int64
	// DisableSZBFilter turns off the Algorithm 3 mapper filter against
	// the sample-skyline ZB-tree (ablation experiments).
	DisableSZBFilter bool
	// TreeMerge runs phase 3 as rounds of pairwise merge tasks instead
	// of the paper's single merge reducer.
	TreeMerge bool
	// MapTasks is the phase-2 map task count when ChunkSize is zero.
	MapTasks int
	// ChunkSize, when positive, bounds the points per map task and
	// overrides MapTasks — the chunking the RPC substrate uses.
	ChunkSize int
	// Dominance selects the dominance relation the pipeline computes
	// under; the zero value is classic Pareto dominance. Learn consults
	// the provider's capabilities and disables the Pareto-derived
	// optimizations (SZB-tree mapper filter, dominance-based partition
	// grouping) that the relation does not keep sound.
	Dominance dominance.Descriptor
}

// Validate checks the spec's algorithmic parameters.
func (s *Spec) Validate() error {
	if s.M < 1 {
		return fmt.Errorf("plan: M must be >= 1, got %d", s.M)
	}
	if s.Delta < 1 {
		return fmt.Errorf("plan: Delta must be >= 1, got %d", s.Delta)
	}
	if s.SampleRatio <= 0 || s.SampleRatio > 1 {
		return fmt.Errorf("plan: SampleRatio must be in (0,1], got %v", s.SampleRatio)
	}
	if s.Bits < 1 || s.Bits > zorder.MaxBits {
		return fmt.Errorf("plan: Bits must be in [1,%d], got %d", zorder.MaxBits, s.Bits)
	}
	if _, err := s.Dominance.Provider(); err != nil {
		return err
	}
	return nil
}

// fanout resolves the ZB-tree fanout default.
func (s *Spec) fanout() int {
	if s.Fanout <= 0 {
		return zbtree.DefaultFanout
	}
	return s.Fanout
}

// Group is one group's worth of routed points or skyline candidates —
// the unit phase-2 reducers and phase-3 merge tasks operate on. The
// payload is a contiguous Block, so a group crosses an executor
// boundary (goroutine, simulator shuffle, TCP) as one flat array.
//
// ZCol is the group's Z-address column on the encode-once path:
// when non-empty it holds one address per block row, encoded with the
// rule's bounds encoder (Rule.Encoder) at the map phase, and travels
// with the block through shuffle, reduce, and merge so no later phase
// re-encodes. An empty ZCol is always legal — consumers fall back to
// encoding locally — but a non-empty one MUST satisfy the invariant
// (row count equal to the block's, addresses from the rule's bounds
// encoder); Shuffle and the kernels check shape and drop columns that
// do not line up.
type Group struct {
	Gid   int
	Block point.Block
	ZCol  zorder.ZCol
}

// Len returns the group's row count.
func (g Group) Len() int { return g.Block.Len() }

// Points materializes zero-copy row views of the group's block.
func (g Group) Points() []point.Point { return g.Block.Points() }

// MapOutput is one map task's result: the chunk-local skyline
// candidates per group, plus how many input points the task dropped
// (SZB-tree filter or pruned partitions).
type MapOutput struct {
	Groups   []Group
	Filtered int64
}

// Shuffle gathers map outputs into per-group candidate blocks in
// deterministic first-seen group order — the coordinator-side shuffle
// of the RPC and shared-memory substrates — and sums the filter drops.
// Z-address columns are concatenated alongside their blocks; a group
// whose contributions do not all carry a consistent column loses it
// (the reduce kernel then re-encodes, trading speed, never
// correctness).
func Shuffle(outs []MapOutput) ([]Group, int64) {
	type acc struct {
		bb *point.BlockBuilder
		zc zorder.ZCol
		ok bool // every contribution so far carried a matching column
	}
	byGroup := map[int]*acc{}
	var order []int
	var filtered int64
	for _, out := range outs {
		filtered += out.Filtered
		for _, g := range out.Groups {
			if g.Block.Dims <= 0 {
				continue
			}
			a, seen := byGroup[g.Gid]
			if !seen {
				a = &acc{bb: point.NewBlockBuilder(g.Block.Dims, g.Block.Len()),
					zc: zorder.ZCol{Words: g.ZCol.Words}, ok: g.ZCol.Words > 0}
				byGroup[g.Gid] = a
				order = append(order, g.Gid)
			}
			a.bb.AppendBlock(g.Block)
			if a.ok && g.ZCol.Words == a.zc.Words && g.ZCol.Len() == g.Block.Len() {
				a.zc.AppendCol(g.ZCol)
			} else {
				a.ok = false
			}
		}
	}
	groups := make([]Group, len(order))
	for i, gid := range order {
		a := byGroup[gid]
		groups[i] = Group{Gid: gid, Block: a.bb.Build()}
		if a.ok {
			groups[i].ZCol = a.zc
		}
	}
	return groups, filtered
}

// chunkBlocks applies the spec's chunking policy to drained blocks
// without copying: explicit ChunkSize re-slices each block to at most
// ChunkSize rows; otherwise the blocks are cut into approximately
// MapTasks near-equal chunks. Chunk boundaries never cross source
// block boundaries, so every chunk stays a contiguous view.
func (s *Spec) chunkBlocks(blocks []point.Block) []point.Block {
	var out []point.Block
	if s.ChunkSize > 0 {
		for _, b := range blocks {
			out = append(out, b.ChunkBy(s.ChunkSize)...)
		}
		return out
	}
	n := s.MapTasks
	if n <= 0 {
		n = 8
	}
	if len(blocks) == 1 {
		return blocks[0].SplitN(n)
	}
	var total int
	for _, b := range blocks {
		total += b.Len()
	}
	if total == 0 {
		return nil
	}
	target := (total + n - 1) / n
	for _, b := range blocks {
		out = append(out, b.ChunkBy(target)...)
	}
	return out
}

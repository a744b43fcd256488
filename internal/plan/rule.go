package plan

import (
	"fmt"

	"zskyline/internal/dominance"
	"zskyline/internal/grouping"
	"zskyline/internal/metrics"
	"zskyline/internal/partition"
	"zskyline/internal/point"
	"zskyline/internal/zbtree"
	"zskyline/internal/zorder"
)

// Rule is the learned phase-1 artifact: how to route a point to its
// group (or drop it), how to compute a group's local skyline, and how
// to merge candidate groups. One Rule drives every substrate; the
// Z-order variants additionally serialize to RuleData for broadcast.
type Rule struct {
	local     LocalAlgo
	merge     MergeAlgo
	fanout    int
	filterOff bool

	// prov is the dominance relation every kernel of this rule computes
	// under (never nil; Pareto by default), with its capability flags
	// cached. Learn disables the SZB-tree filter and dominance-based
	// partition pruning when the relation does not transfer Pareto
	// eliminations (ParetoImplies false), and RunSource appends a
	// full-dataset verification pass when the relation is not
	// transitive.
	prov dominance.Provider
	caps dominance.Caps

	// enc quantizes over the data bounds; merge always uses it. localEnc
	// is the phase-2 local-skyline encoder: the same bounds encoder for
	// Z-order strategies, a unit-box encoder for the baselines (which
	// learn no bounds encoder of their own).
	enc      *zorder.Encoder
	localEnc *zorder.Encoder

	// assignFn routes for the non-Z baselines (Grid / Angle / Random).
	assignFn func(p point.Point) (gid int, ok bool)
	// pivots + groupOf route for the Z-order strategies: binary-search
	// the Z-address into a partition, then map partition -> group.
	pivots  []zorder.ZAddr
	groupOf map[int]int
	// szb is the sample-skyline ZB-tree of Algorithm 3 (Pareto, over
	// the sampleSky block); nil when the strategy does not filter.
	szb *zbtree.BlockTree
	// sampleSky is the broadcastable sample skyline backing szb.
	sampleSky point.Block

	dims       int
	bits       int
	mins, maxs []float64

	groups  int
	parts   int
	pruned  int
	skySize int
}

// Learn builds the routing rule from the sample — phase 1 (§5.1) for
// all six strategies. mins/maxs are the dataset bounds; dims its width.
func Learn(spec *Spec, dims int, mins, maxs []float64, smp []point.Point, tally *metrics.Tally) (*Rule, error) {
	enc, err := zorder.NewEncoder(dims, spec.Bits, mins, maxs)
	if err != nil {
		return nil, err
	}
	prov, err := spec.Dominance.Provider()
	if err != nil {
		return nil, err
	}
	r := &Rule{
		local:     spec.Local,
		merge:     spec.Merge,
		fanout:    spec.fanout(),
		filterOff: spec.DisableSZBFilter,
		prov:      prov,
		caps:      prov.Caps(),
		enc:       enc,
		localEnc:  enc,
		sampleSky: point.Block{Dims: dims},
		dims:      dims,
		bits:      spec.Bits,
		mins:      mins,
		maxs:      maxs,
	}
	// The SZB-tree mapper filter eliminates points the Pareto sample
	// skyline dominates; that elimination transfers to the provider's
	// relation only when Pareto dominance implies provider dominance.
	if !r.caps.ParetoImplies {
		r.filterOff = true
	}

	switch spec.Strategy {
	case Grid:
		g, err := partition.NewGrid(smp, spec.M)
		if err != nil {
			return nil, err
		}
		r.assignFn = func(p point.Point) (int, bool) { return g.Assign(p), true }
		r.groups, r.parts = g.N(), g.N()
		return r.withUnitLocalEncoder()
	case Angle:
		a, err := partition.NewAngle(smp, spec.M)
		if err != nil {
			return nil, err
		}
		r.assignFn = func(p point.Point) (int, bool) { return a.Assign(p), true }
		r.groups, r.parts = a.N(), a.N()
		return r.withUnitLocalEncoder()
	case Random:
		rp, err := partition.NewRandom(spec.M)
		if err != nil {
			return nil, err
		}
		r.assignFn = func(p point.Point) (int, bool) { return rp.Assign(p), true }
		r.groups, r.parts = rp.N(), rp.N()
		return r.withUnitLocalEncoder()
	case NaiveZ, ZHG, ZDG:
	default:
		return nil, fmt.Errorf("plan: unknown strategy %v", spec.Strategy)
	}

	// Z-order strategies.
	parts := spec.M
	if spec.Strategy != NaiveZ {
		parts = spec.M * spec.Delta
	}
	zc, err := partition.NewZCurve(enc, smp, parts)
	if err != nil {
		return nil, err
	}
	skyBlk, skyZ := zbtree.ZSearchGroup(nil, enc, spec.fanout(), point.BlockOf(dims, smp), zorder.ZCol{}, tally)
	skyPts := skyBlk.Points()
	r.skySize = len(skyPts)
	// Naive-Z is the bare §4.1 partitioner: pivots only, no sample
	// skyline broadcast, no grouping. Only the grouped strategies run
	// Algorithm 3's SZB-tree mapper filter.
	if spec.Strategy != NaiveZ {
		r.sampleSky = skyBlk
		r.szb = zbtree.BuildStore(zbtree.NewStoreWithZCol(enc, skyBlk, skyZ), r.fanout, nil, tally)
	}

	var pg *grouping.PGMap
	switch spec.Strategy {
	case NaiveZ:
		pg = grouping.Identity(zc.Infos())
	case ZHG:
		zc = zc.Redistribute(smp, sconsOf(skyPts, spec.M))
		pg, err = grouping.Heuristic(zc.Infos(), spec.M)
	case ZDG:
		zc = zc.Redistribute(smp, sconsOf(skyPts, spec.M))
		if r.caps.ParetoImplies {
			pg, err = grouping.Dominance(enc, zc.Infos(), spec.M)
		} else {
			// Dominance-based grouping prunes partitions whose every
			// point is Pareto-dominated — unsound when the provider
			// keeps some Pareto-dominated points. Degrade to heuristic
			// grouping, which only balances and never prunes.
			pg, err = grouping.Heuristic(zc.Infos(), spec.M)
		}
	}
	if err != nil {
		return nil, err
	}
	r.pivots = zc.Pivots()
	r.groupOf = pg.Assign
	r.groups = pg.Groups
	r.parts = zc.N()
	r.pruned = len(pg.Pruned)
	return r, nil
}

// sconsOf is the redistribute() skyline-per-partition cap of
// Algorithms 1 and 2.
func sconsOf(skyPts []point.Point, m int) int {
	scons := len(skyPts) / m
	if scons < 1 {
		scons = 1
	}
	return scons
}

// withUnitLocalEncoder swaps the local-skyline encoder for a unit-box
// one. The baselines learn no bounds encoder, and exact correctness
// does not depend on bounds (clamping only weakens pruning), so the
// unit box — where generated data lives — is a safe default.
func (r *Rule) withUnitLocalEncoder() (*Rule, error) {
	u, err := zorder.NewUnitEncoder(r.dims, r.bits)
	if err != nil {
		return nil, err
	}
	r.localEnc = u
	return r, nil
}

// NewLocalRuleUnder builds a routing-less rule over enc for
// substrates that shard positionally (the shared-memory executor):
// only the local skyline and merge kernels are meaningful on it. A nil
// provider means Pareto.
func NewLocalRuleUnder(prov dominance.Provider, enc *zorder.Encoder, fanout int, local LocalAlgo, merge MergeAlgo) *Rule {
	if fanout <= 0 {
		fanout = zbtree.DefaultFanout
	}
	if prov == nil {
		prov = dominance.Pareto{}
	}
	return &Rule{local: local, merge: merge, fanout: fanout, prov: prov, caps: prov.Caps(),
		enc: enc, localEnc: enc, dims: enc.Dims()}
}

// Groups returns the number of groups (= phase-2 reducers).
func (r *Rule) Groups() int { return r.groups }

// Partitions returns the partition count before grouping.
func (r *Rule) Partitions() int { return r.parts }

// PrunedPartitions returns how many partitions grouping dropped as
// fully dominated.
func (r *Rule) PrunedPartitions() int { return r.pruned }

// SampleSkySize returns the sample-skyline size (0 for the baselines).
func (r *Rule) SampleSkySize() int { return r.skySize }

// Encoder returns the rule's bounds encoder.
func (r *Rule) Encoder() *zorder.Encoder { return r.enc }

// Provider returns the dominance relation the rule's kernels compute
// under (never nil).
func (r *Rule) Provider() dominance.Provider {
	if r.prov == nil {
		return dominance.Pareto{}
	}
	return r.prov
}

// partitionOf binary-searches the Z-address into its partition
// (Algorithm 3's searchPT step).
func (r *Rule) partitionOf(a zorder.ZAddr) int {
	lo, hi := 0, len(r.pivots)
	for lo < hi {
		mid := (lo + hi) / 2
		if zorder.Compare(a, r.pivots[mid]) < 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// LocalSkylineGroup is phase 2's reduce on the encode-once path: it
// runs the configured local kernel over g, reusing the group's
// Z-address column when its shape matches the rule's bounds encoder,
// and returns candidates carrying their own column (unless the merge
// phase is SB, which has no use for one).
func (r *Rule) LocalSkylineGroup(g Group, tally *metrics.Tally) Group {
	out := Group{Gid: g.Gid, Block: point.Block{Dims: g.Block.Dims}}
	n := g.Block.Len()
	if n == 0 {
		return out
	}
	carryZ := r.merge != MergeSB
	if r.local == ZS {
		if g.ZCol.Len() == n && g.ZCol.Words == r.enc.Words() {
			// Encode-once: the column is bounds-encoded, so the kernel must
			// run under the bounds encoder to keep the store consistent. For
			// every rule that produces columns localEnc == enc anyway.
			out.Block, out.ZCol = zbtree.ZSearchGroup(r.prov, r.enc, r.fanout, g.Block, g.ZCol, tally)
		} else {
			out.Block, out.ZCol = zbtree.ZSearchGroup(r.prov, r.localEnc, r.fanout, g.Block, zorder.ZCol{}, tally)
			if r.localEnc != r.enc {
				// Wrong provenance for the merge phase: the column was built
				// by the unit-box local encoder.
				out.ZCol = zorder.ZCol{}
			}
		}
		if !carryZ {
			out.ZCol = zorder.ZCol{}
		} else if out.ZCol.Len() != out.Block.Len() {
			out.ZCol = r.enc.EncodeBlock(zorder.ZCol{}, out.Block)
		}
		return out
	}
	out.Block = dominance.SkylineBlock(r.prov, g.Block, tally)
	if carryZ {
		out.ZCol = r.enc.EncodeBlock(zorder.ZCol{}, out.Block)
	}
	return out
}

// MapBlock is phase 2's map+combine over one contiguous chunk: filter
// each row against the SZB-tree, route it to its group (first-seen
// order), and emit the chunk-local skyline per group. Routing reuses one grid/Z-address scratch pair across all rows and
// routed points accumulate in per-group arenas, so the per-point cost
// is zero allocations (the old path paid an encoded ZB-tree entry per
// point). On the Z-order path the address computed for routing is
// appended to the group's Z-address column, so it is encoded exactly
// once per query: combine, shuffle, reduce, and merge all reuse it.
func (r *Rule) MapBlock(b point.Block, tally *metrics.Tally) MapOutput {
	builders := map[int]*point.BlockBuilder{}
	var zcols map[int]*zorder.ZCol
	var order []int
	var out MapOutput

	var g []uint32
	var z zorder.ZAddr
	zRoute := r.assignFn == nil
	if zRoute {
		g = make([]uint32, r.enc.Dims())
		z = make(zorder.ZAddr, r.enc.Words())
		zcols = map[int]*zorder.ZCol{}
	}
	rows := b.Len()
	for i := 0; i < rows; i++ {
		p := b.Row(i)
		var gid int
		var ok bool
		if !zRoute {
			gid, ok = r.assignFn(p)
		} else {
			g = r.enc.GridInto(g, p)
			if r.szb != nil && !r.filterOff && r.szb.DominatesPoint(g, p) {
				ok = false
			} else {
				z = r.enc.EncodeGridInto(z, g)
				gid, ok = r.groupOf[r.partitionOf(z)]
			}
		}
		if !ok {
			out.Filtered++
			continue
		}
		bb := builders[gid]
		if bb == nil {
			bb = point.NewBlockBuilder(b.Dims, 0)
			builders[gid] = bb
			if zRoute {
				zcols[gid] = &zorder.ZCol{Words: r.enc.Words()}
			}
			order = append(order, gid)
		}
		bb.Append(p)
		if zRoute {
			zcols[gid].AppendAddr(z)
		}
	}
	tally.AddPointsPruned(out.Filtered)
	out.Groups = make([]Group, len(order))
	for i, gid := range order {
		in := Group{Gid: gid, Block: builders[gid].Build()}
		if zRoute {
			in.ZCol = *zcols[gid]
		}
		out.Groups[i] = r.LocalSkylineGroup(in, tally)
	}
	return out
}

// MergeGroupsZ is one phase-3 merge task on the encode-once path. For
// the Z-order merges it concatenates the groups' blocks and Z-address
// columns into one shared columnar store (encoding only rows whose
// groups arrived without a column), builds index-based ZB-trees over
// row ranges of that store, and Z-merges (or Z-searches) without
// materializing a single per-point entry. The result carries its own
// column so tree-merge rounds keep reusing addresses. Under a
// non-transitive relation the result is a candidate superset that the
// pipeline's final verification pass closes.
func (r *Rule) MergeGroupsZ(groups []Group, tally *metrics.Tally) Group {
	out := Group{Block: point.Block{Dims: r.dims}}
	total := 0
	for _, g := range groups {
		total += g.Len()
	}
	if total == 0 {
		return out
	}
	if r.merge == MergeSB {
		bb := point.NewBlockBuilder(r.dims, total)
		for _, g := range groups {
			bb.AppendBlock(g.Block)
		}
		out.Block = dominance.SkylineBlock(r.prov, bb.Build(), tally)
		return out
	}
	blocks := make([]point.Block, len(groups))
	cols := make([]zorder.ZCol, len(groups))
	for i, g := range groups {
		blocks[i], cols[i] = g.Block, g.ZCol
	}
	st, ranges := zbtree.StoreOf(r.enc, blocks, cols)
	var rows []int32
	if r.merge == MergeZS {
		rows = zbtree.BuildStore(st, r.fanout, r.prov, tally).SkylineRows()
	} else { // MergeZM: fold Z-merge over per-group trees (Algorithm 4)
		rows = zbtree.MergeRanges(st, r.fanout, r.prov, ranges, tally).Rows()
	}
	out.Block, out.ZCol = st.CompactRows(rows)
	return out
}

// RuleData is the gob-serializable form of a Z-order rule — what a
// coordinator broadcasts to remote workers (the paper's
// distributed-cache step). The sample skyline ships as one flat block
// frame rather than a slice of per-point allocations.
type RuleData struct {
	Dims, Bits    int
	Mins, Maxs    []float64
	Pivots        [][]uint64
	GroupOf       map[int]int
	Groups        int
	SampleSkyline point.Block
	Fanout        int
	Local         LocalAlgo
	Merge         MergeAlgo
	DisableFilter bool
	// Dominance is the wire descriptor of the rule's dominance
	// provider; the zero value means classic Pareto, so payloads from
	// peers that predate providers keep their meaning.
	Dominance dominance.Descriptor
}

// Data serializes the rule. Only Z-order rules serialize: the
// baselines close over in-memory partitioners and are in-process only.
func (r *Rule) Data() (*RuleData, error) {
	if r.assignFn != nil || r.groupOf == nil {
		return nil, fmt.Errorf("plan: only Z-order rules serialize for broadcast")
	}
	rd := &RuleData{
		Dims:          r.dims,
		Bits:          r.bits,
		Mins:          r.mins,
		Maxs:          r.maxs,
		GroupOf:       r.groupOf,
		Groups:        r.groups,
		SampleSkyline: r.sampleSky,
		Fanout:        r.fanout,
		Local:         r.local,
		Merge:         r.merge,
		DisableFilter: r.filterOff,
		Dominance:     r.Provider().Descriptor(),
	}
	rd.Pivots = make([][]uint64, len(r.pivots))
	for i, p := range r.pivots {
		rd.Pivots[i] = p.Clone()
	}
	return rd, nil
}

// FromData compiles a broadcast rule back into executable form.
func FromData(rd *RuleData) (*Rule, error) {
	enc, err := zorder.NewEncoder(rd.Dims, rd.Bits, rd.Mins, rd.Maxs)
	if err != nil {
		return nil, err
	}
	prov, err := rd.Dominance.Provider()
	if err != nil {
		return nil, err
	}
	r := &Rule{
		local:     rd.Local,
		merge:     rd.Merge,
		fanout:    rd.Fanout,
		filterOff: rd.DisableFilter,
		prov:      prov,
		caps:      prov.Caps(),
		enc:       enc,
		localEnc:  enc,
		groupOf:   rd.GroupOf,
		sampleSky: rd.SampleSkyline,
		dims:      rd.Dims,
		bits:      rd.Bits,
		mins:      rd.Mins,
		maxs:      rd.Maxs,
		groups:    rd.Groups,
		parts:     len(rd.Pivots) + 1,
		skySize:   rd.SampleSkyline.Len(),
	}
	if r.fanout <= 0 {
		r.fanout = zbtree.DefaultFanout
	}
	for _, p := range rd.Pivots {
		if len(p) != enc.Words() {
			return nil, fmt.Errorf("plan: pivot has %d words, want %d", len(p), enc.Words())
		}
		r.pivots = append(r.pivots, zorder.ZAddr(p))
	}
	if rd.SampleSkyline.Len() > 0 {
		if rd.SampleSkyline.Dims != rd.Dims {
			return nil, fmt.Errorf("plan: sample skyline has %d dims, want %d", rd.SampleSkyline.Dims, rd.Dims)
		}
		r.szb = zbtree.BuildStore(zbtree.NewStore(enc, rd.SampleSkyline), r.fanout, nil, nil)
	}
	return r, nil
}

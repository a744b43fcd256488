package zbtree

import (
	"context"

	"zskyline/internal/dominance"
	"zskyline/internal/metrics"
	"zskyline/internal/point"
	"zskyline/internal/zorder"
)

// The walks. Each operation has exactly one, and it runs under the
// tree's dominance relation. The grid-level cuts are Pareto facts, so
// each is gated on the capability that transfers it to the relation
// (see package dominance):
//
//   - positive cuts ("everything in this region is grid-dominated, so
//     skip/evict it wholesale") need Caps.ParetoImplies;
//   - negative cuts ("nothing in this region can grid-dominate p, so
//     don't descend") need Caps.ImpliesPareto;
//   - branch stashing in Z-merge ("these regions are incomparable")
//     needs only ImpliesPareto: grid incomparability rules out Pareto
//     dominance in both directions, hence relation dominance too.
//
// Pareto has every capability, and its leaf tests call point.Dominates
// directly. Without a capability a walk degrades to testing rows one
// by one, which is always sound. For non-transitive relations Z-search
// yields a candidate superset; SkylineRows closes it with a
// verification pass over the stored rows.
//
// Every walk counts its region and dominance tests in a per-call tests
// value and adds it to the tally once per exported call, so concurrent
// read-only walks share no mutable state.

// tests counts one call's region and dominance tests.
type tests struct{ region, dominance int64 }

// flush adds the counts to tally.
func (c *tests) flush(tally *metrics.Tally) {
	if c.region != 0 {
		tally.AddRegionTests(c.region)
	}
	if c.dominance != 0 {
		tally.AddDominanceTests(c.dominance)
	}
}

// dominates is the tree's relation; Pareto skips the interface call.
// It is too large to inline, so the two hot leaf loops (dominatesPoint
// and removeDominated) branch on t.pareto themselves and call the
// inlinable point.Dominates directly.
func (t *BlockTree) dominates(p, q point.Point) bool {
	if t.pareto {
		return point.Dominates(p, q)
	}
	return t.prov.Dominates(p, q)
}

// DominatesPoint reports whether some stored row dominates the point p
// with grid coordinates g (exact float semantics; grid tests only
// prune). This is the SZB-filter probe of Algorithm 3.
func (t *BlockTree) DominatesPoint(g []uint32, p point.Point) bool {
	var c tests
	ok := t.dominatesPoint(t.root, g, p, &c)
	c.flush(t.tally)
	return ok
}

func (t *BlockTree) dominatesPoint(n int32, g []uint32, p point.Point, c *tests) bool {
	if n < 0 {
		return false
	}
	c.region++
	r := t.region(n)
	if t.caps.ImpliesPareto && zorder.RegionCannotDominatePointGrid(r, g) {
		return false
	}
	if t.caps.ParetoImplies && zorder.GridStrictDominates(r.MaxG, g) {
		// Every row of this (non-empty) subtree dominates p.
		return true
	}
	nd := &t.nodes[n]
	if nd.isLeaf() {
		c.dominance += int64(len(nd.rows))
		if t.pareto {
			data, d := t.st.blk.Data, t.dims
			for _, e := range nd.rows {
				lo := int(e) * d
				if point.Dominates(data[lo:lo+d:lo+d], p) {
					return true
				}
			}
			return false
		}
		for _, e := range nd.rows {
			if t.prov.Dominates(t.st.row(e), p) {
				return true
			}
		}
		return false
	}
	for _, k := range nd.kids {
		if t.dominatesPoint(k, g, p, c) {
			return true
		}
	}
	return false
}

// dominatesRegion reports whether some single stored row strictly
// Pareto-dominates every float point that could lie in region r.
// Callers gate it on ParetoImplies.
func (t *BlockTree) dominatesRegion(n int32, r zorder.Region, c *tests) bool {
	if n < 0 {
		return false
	}
	c.region++
	nr := t.region(n)
	// Every row here has grid >= nr.MinG per dim; if the subtree's best
	// corner is not strictly below r's min corner everywhere, no row
	// qualifies.
	if !zorder.GridStrictDominates(nr.MinG, r.MinG) {
		return false
	}
	if zorder.GridStrictDominates(nr.MaxG, r.MinG) {
		return true
	}
	nd := &t.nodes[n]
	if nd.isLeaf() {
		for _, e := range nd.rows {
			if zorder.GridStrictDominates(t.st.cell(e), r.MinG) {
				return true
			}
		}
		return false
	}
	for _, k := range nd.kids {
		if t.dominatesRegion(k, r, c) {
			return true
		}
	}
	return false
}

// RemoveDominatedBy deletes every stored row that the point p (grid g)
// dominates and returns how many were removed. Interior regions are
// left as-is (valid supersets), matching the paper's strategy of
// re-balancing once at the end of a merge.
func (t *BlockTree) RemoveDominatedBy(g []uint32, p point.Point) int {
	var c tests
	removed := t.removeDominatedBy(g, p, &c)
	c.flush(t.tally)
	return removed
}

func (t *BlockTree) removeDominatedBy(g []uint32, p point.Point, c *tests) int {
	if t.root < 0 {
		return 0
	}
	removed := t.removeDominated(t.root, g, p, c)
	if t.nodes[t.root].count == 0 {
		t.root = -1
	}
	return removed
}

func (t *BlockTree) removeDominated(n int32, g []uint32, p point.Point, c *tests) int {
	c.region++
	if t.caps.ImpliesPareto && zorder.GridSomeGreater(g, t.region(n).MaxG) {
		// p's grid exceeds every row here in some dimension.
		return 0
	}
	nd := &t.nodes[n]
	if nd.isLeaf() {
		c.dominance += int64(len(nd.rows))
		kept := nd.rows[:0]
		for _, e := range nd.rows {
			var dom bool
			if t.pareto {
				dom = point.Dominates(p, t.st.row(e))
			} else {
				dom = t.prov.Dominates(p, t.st.row(e))
			}
			if !dom {
				kept = append(kept, e)
			}
		}
		removed := len(nd.rows) - len(kept)
		nd.rows = kept
		nd.count = int32(len(kept))
		return removed
	}
	removed := 0
	kept := nd.kids[:0]
	for _, k := range nd.kids {
		if t.caps.ParetoImplies && zorder.PointGridDominatesRegion(g, t.region(k)) {
			// Entire child dominated: certified at grid level.
			removed += int(t.nodes[k].count)
			continue
		}
		removed += t.removeDominated(k, g, p, c)
		if t.nodes[k].count > 0 {
			kept = append(kept, k)
		}
	}
	nd.kids = kept
	nd.count -= int32(removed)
	return removed
}

// CountDominatedBy returns how many stored rows the point p (grid g)
// dominates, without mutating the tree. Whole subtrees count at once
// when their region is certifiably dominated at the grid level.
func (t *BlockTree) CountDominatedBy(g []uint32, p point.Point) int {
	var c tests
	n := t.countDominated(t.root, g, p, &c)
	c.flush(t.tally)
	return n
}

func (t *BlockTree) countDominated(n int32, g []uint32, p point.Point, c *tests) int {
	if n < 0 {
		return 0
	}
	c.region++
	r := t.region(n)
	if t.caps.ImpliesPareto && zorder.GridSomeGreater(g, r.MaxG) {
		return 0
	}
	if t.caps.ParetoImplies && zorder.PointGridDominatesRegion(g, r) {
		return int(t.nodes[n].count)
	}
	nd := &t.nodes[n]
	count := 0
	if nd.isLeaf() {
		c.dominance += int64(len(nd.rows))
		for _, e := range nd.rows {
			if t.dominates(p, t.st.row(e)) {
				count++
			}
		}
		return count
	}
	for _, k := range nd.kids {
		count += t.countDominated(k, g, p, c)
	}
	return count
}

// DominatorsOf returns every stored point that dominates the point p
// (grid g), in Z-order — the "why is p not in the skyline"
// explanation. Subtrees whose region cannot hold a dominator are
// pruned.
func (t *BlockTree) DominatorsOf(g []uint32, p point.Point) []point.Point {
	var c tests
	var rows []int32
	t.dominators(t.root, g, p, &rows, &c)
	c.flush(t.tally)
	return t.points(rows)
}

func (t *BlockTree) dominators(n int32, g []uint32, p point.Point, out *[]int32, c *tests) {
	if n < 0 {
		return
	}
	c.region++
	if t.caps.ImpliesPareto && zorder.RegionCannotDominatePointGrid(t.region(n), g) {
		return
	}
	nd := &t.nodes[n]
	if nd.isLeaf() {
		c.dominance += int64(len(nd.rows))
		for _, e := range nd.rows {
			if t.dominates(t.st.row(e), p) {
				*out = append(*out, e)
			}
		}
		return
	}
	for _, k := range nd.kids {
		t.dominators(k, g, p, out, c)
	}
}

// RangeQuery returns every stored point p with lo <= p <= hi
// componentwise, in Z-order, pruning subtrees whose region cannot
// intersect the box.
func (t *BlockTree) RangeQuery(lo, hi point.Point) []point.Point {
	return t.points(t.rangeRows(lo, hi))
}

func (t *BlockTree) rangeRows(lo, hi point.Point) []int32 {
	var c tests
	var out []int32
	t.rangeWalk(t.root, t.st.enc.Grid(lo), t.st.enc.Grid(hi), lo, hi, &out, &c)
	c.flush(t.tally)
	return out
}

func (t *BlockTree) rangeWalk(n int32, gLo, gHi []uint32, lo, hi point.Point, out *[]int32, c *tests) {
	if n < 0 {
		return
	}
	c.region++
	// Conservative disjointness: some dimension of the node's region
	// lies entirely outside the box's grid shadow.
	r := t.region(n)
	for k := range gLo {
		if r.MinG[k] > gHi[k] || r.MaxG[k] < gLo[k] {
			return
		}
	}
	nd := &t.nodes[n]
	if nd.isLeaf() {
		for _, e := range nd.rows {
			if inBox(t.st.row(e), lo, hi) {
				*out = append(*out, e)
			}
		}
		return
	}
	for _, k := range nd.kids {
		t.rangeWalk(k, gLo, gHi, lo, hi, out, c)
	}
}

func inBox(p, lo, hi point.Point) bool {
	for k := range p {
		if p[k] < lo[k] || p[k] > hi[k] {
			return false
		}
	}
	return true
}

// SkylineWithin computes the constrained skyline: the skyline of the
// stored points inside the box [lo, hi]. Constraints change the answer
// fundamentally (points dominated only by out-of-box points re-enter),
// so this is a range query followed by a Z-search over the survivors'
// rows.
func (t *BlockTree) SkylineWithin(lo, hi point.Point) []point.Point {
	return buildRows(t.st, t.fanout, t.prov, t.rangeRows(lo, hi), t.tally).Skyline()
}

// Skyline returns the points of SkylineRows.
func (t *BlockTree) Skyline() []point.Point { return t.points(t.SkylineRows()) }

// SkylineRows runs Z-search over the tree and returns the skyline's
// rows in Z-order: a depth-first traversal in Z-order that keeps the
// running skyline in a second tree over the same store. Because
// Z-order is a topological order for Pareto dominance (a dominator's
// address is never larger than its dominatee's), each row only needs
// testing against already-accepted rows; grid-level ties are repaired
// by the per-acceptance RemoveDominatedBy sweep.
func (t *BlockTree) SkylineRows() []int32 {
	var c tests
	sky := t.empty()
	t.zsearch(t.root, sky, &c)
	rows := sky.Rows()
	if !t.caps.Transitive {
		rows = t.verify(rows, &c)
	}
	c.flush(t.tally)
	return rows
}

func (t *BlockTree) zsearch(n int32, sky *BlockTree, c *tests) {
	if n < 0 {
		return
	}
	if t.caps.ParetoImplies && sky.dominatesRegion(sky.root, t.region(n), c) {
		return
	}
	nd := &t.nodes[n]
	if nd.isLeaf() {
		for _, e := range nd.rows {
			g, p := t.st.cell(e), t.st.row(e)
			if sky.dominatesPoint(sky.root, g, p, c) {
				continue
			}
			sky.removeDominatedBy(g, p, c)
			sky.appendRow(e)
		}
		return
	}
	for _, k := range nd.kids {
		t.zsearch(k, sky, c)
	}
}

// verify drops candidate rows that some other stored row dominates —
// the closing pass for non-transitive relations. A row is exempt from
// its own test by index, so coordinate-equal duplicates are compared
// and survive exactly when the relation lets them.
func (t *BlockTree) verify(cands []int32, c *tests) []int32 {
	all := t.Rows()
	kept := cands[:0]
	for _, r := range cands {
		ok := true
		for _, q := range all {
			if q == r {
				continue
			}
			c.dominance++
			if t.dominates(t.st.row(q), t.st.row(r)) {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, r)
		}
	}
	return kept
}

// SkylineProgressive streams skyline points as Z-search discovers
// them, for first-results-fast consumers. Emission is deferred until
// the traversal's Z-address moves strictly past a row's own address:
// under a transitive relation that implies Pareto dominance a row can
// then only be evicted by an equal-address tie, so every emitted point
// is final. Other relations stream the finished skyline. The channel
// closes when the traversal completes or ctx is cancelled.
func (t *BlockTree) SkylineProgressive(ctx context.Context) <-chan point.Point {
	out := make(chan point.Point)
	go func() {
		defer close(out)
		var pending []int32 // accepted rows sharing the current address
		emit := func() bool {
			for _, e := range pending {
				select {
				case out <- t.st.row(e):
				case <-ctx.Done():
					return false
				}
			}
			pending = pending[:0]
			return true
		}
		if !t.caps.ImpliesPareto || !t.caps.Transitive {
			pending = t.SkylineRows()
			emit()
			return
		}
		var c tests
		if t.progressive(ctx, t.root, t.empty(), &pending, emit, &c) {
			emit()
		}
		c.flush(t.tally)
	}()
	return out
}

func (t *BlockTree) progressive(ctx context.Context, n int32, sky *BlockTree, pending *[]int32, emit func() bool, c *tests) bool {
	if n < 0 {
		return true
	}
	select {
	case <-ctx.Done():
		return false
	default:
	}
	if t.caps.ParetoImplies && sky.dominatesRegion(sky.root, t.region(n), c) {
		return true
	}
	nd := &t.nodes[n]
	if !nd.isLeaf() {
		for _, k := range nd.kids {
			if !t.progressive(ctx, k, sky, pending, emit, c) {
				return false
			}
		}
		return true
	}
	for _, e := range nd.rows {
		// The traversal's address advanced: everything pending is final.
		if len(*pending) > 0 && t.st.zc.Compare(int((*pending)[0]), int(e)) < 0 && !emit() {
			return false
		}
		g, p := t.st.cell(e), t.st.row(e)
		if sky.dominatesPoint(sky.root, g, p, c) {
			continue
		}
		if sky.removeDominatedBy(g, p, c) > 0 {
			// Ties: drop evicted rows from the pending buffer too.
			kept := (*pending)[:0]
			for _, pe := range *pending {
				if !t.dominates(p, t.st.row(pe)) {
					kept = append(kept, pe)
				}
			}
			*pending = kept
		}
		sky.appendRow(e)
		*pending = append(*pending, e)
	}
	return true
}

// incomparableWith reports, conservatively and descending at most
// depth levels, that no row under n and no float point of region r
// can Pareto-dominate one another, so a whole src branch can be
// stashed without opening it — the fast path that gives Z-merge its
// speed.
func (t *BlockTree) incomparableWith(n int32, r zorder.Region, depth int, c *tests) bool {
	if n < 0 {
		return false
	}
	c.region++
	if zorder.RegionsIncomparable(t.region(n), r) {
		return true
	}
	nd := &t.nodes[n]
	if depth == 0 || nd.isLeaf() {
		return false
	}
	for _, k := range nd.kids {
		if !t.incomparableWith(k, r, depth-1, c) {
			return false
		}
	}
	return true
}

// mergeBlock implements Z-merge (Algorithm 4): it merges the candidate
// tree src ("new coming data points") into sky ("the existing skyline
// set"), both over one Store, under sky's relation, and returns a
// freshly balanced tree over the survivors. The traversal is BFS over
// src: whole branches are discarded when an existing skyline row
// dominates their RZ-region, stashed when they are incomparable with
// the skyline tree, and opened otherwise; surviving leaf rows prune
// the sky rows they dominate before the final rebalance. Each input
// must individually hold mutually non-dominated rows (a skyline
// candidate set); for non-transitive relations the result is a
// candidate superset that the pipeline's final verification closes.
func mergeBlock(sky, src *BlockTree) *BlockTree {
	if sky.st != src.st {
		panic("zbtree: mergeBlock requires both trees to share one Store")
	}
	if src.Len() == 0 {
		return sky
	}
	if sky.Len() == 0 {
		return src
	}
	var c tests
	var stash, survivors []int32
	queue := []int32{src.root}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		r := src.region(n)
		if sky.caps.ParetoImplies && sky.dominatesRegion(sky.root, r, &c) {
			continue
		}
		if sky.caps.ImpliesPareto && sky.incomparableWith(sky.root, r, 2, &c) {
			stash = src.appendRows(n, stash)
			continue
		}
		nd := &src.nodes[n]
		if !nd.isLeaf() {
			queue = append(queue, nd.kids...)
			continue
		}
		for _, e := range nd.rows {
			g, p := sky.st.cell(e), sky.st.row(e)
			if sky.dominatesPoint(sky.root, g, p, &c) {
				continue
			}
			sky.removeDominatedBy(g, p, &c)
			survivors = append(survivors, e)
		}
	}
	c.flush(sky.tally)
	all := sky.Rows()
	all = append(all, survivors...)
	all = append(all, stash...)
	return buildRows(sky.st, sky.fanout, sky.prov, all, sky.tally)
}

// MergeRanges left-folds mergeBlock over per-range trees of st, in
// order, and returns the merged tree. Each [lo, hi) row range must
// hold a skyline candidate set (see mergeBlock). This is the one
// Z-merge fold: the pipeline's phase-3 tasks and incremental
// maintenance both run it.
func MergeRanges(st *Store, fanout int, prov dominance.Provider, ranges [][2]int32, tally *metrics.Tally) *BlockTree {
	acc := NewBlockTree(st, fanout, prov, tally)
	for _, rg := range ranges {
		seg := make([]int32, 0, rg[1]-rg[0])
		for i := rg[0]; i < rg[1]; i++ {
			seg = append(seg, i)
		}
		acc = mergeBlock(acc, buildRows(st, fanout, prov, seg, tally))
	}
	return acc
}

// ZSearchGroup is the block-native "ZS" entry point: it indexes b's
// rows and returns their exact skyline under prov (nil means Pareto)
// together with the survivors' Z-addresses, both compacted so they
// never pin the input arenas. When zc holds one enc-encoded address
// per row (the pipeline's encode-once path) it is reused verbatim;
// otherwise the block is encoded here.
func ZSearchGroup(prov dominance.Provider, enc *zorder.Encoder, fanout int, b point.Block, zc zorder.ZCol, tally *metrics.Tally) (point.Block, zorder.ZCol) {
	if b.Len() == 0 {
		return point.Block{Dims: b.Dims}, zorder.ZCol{Words: enc.Words()}
	}
	var st *Store
	if zc.Len() == b.Len() && zc.Words == enc.Words() {
		st = NewStoreWithZCol(enc, b, zc)
	} else {
		st = NewStore(enc, b)
	}
	return st.CompactRows(BuildStore(st, fanout, prov, tally).SkylineRows())
}

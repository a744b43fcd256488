// Package zbtree implements the ZB-tree of Lee et al. [5] that the
// paper builds on: a balanced tree over Z-addresses whose leaves hold
// data rows and whose internal nodes hold the RZ-region of their
// subtree. There is one tree, BlockTree: its nodes live in one slab
// and reference rows of a shared columnar Store (points, Z-addresses
// and grid coordinates, each computed once). On it the package
// provides
//
//   - Z-search (SkylineRows, ZSearchGroup): the centralized skyline
//     algorithm ("ZS" in the paper's evaluation), which visits rows in
//     Z-order and prunes whole subtrees with RZ-region tests;
//   - Z-merge (MergeRanges): the paper's Algorithm 4 for
//     merging skyline candidate sets, the third-phase workhorse;
//   - the SZB-filter probe of Algorithm 3 (DominatesPoint); and
//   - index queries: range, constrained and progressive skylines,
//     dominators and dominance counts.
//
// All region-level pruning uses the conservative grid tests of package
// zorder, so results are exact with respect to the original float
// coordinates (see DESIGN.md §5). Each tree computes under one
// dominance relation; see walk.go for how the grid cuts are gated on
// its capabilities.
package zbtree

import (
	"fmt"
	"sort"

	"zskyline/internal/dominance"
	"zskyline/internal/metrics"
	"zskyline/internal/point"
	"zskyline/internal/zorder"
)

// DefaultFanout is the node capacity used when callers pass 0.
const DefaultFanout = 16

// Store is the shared columnar backing of a BlockTree: the flat point
// block, its Z-address column, and the grid coordinates, all
// stride-indexed by row. Trees built over the same Store reference rows
// by index, which is what lets the pipeline encode each point's
// Z-address exactly once per query and merge candidate sets without
// rematerializing them. A Store is never mutated after construction.
type Store struct {
	enc  *zorder.Encoder
	blk  point.Block
	zc   zorder.ZCol
	grid []uint32 // Dims() stride per row, quantized once at store build
}

// NewStore encodes b's rows into a fresh Z-address column and grid
// arena — one quantization pass for the whole block.
func NewStore(enc *zorder.Encoder, b point.Block) *Store {
	st := &Store{enc: enc, blk: b}
	st.zc, st.grid = enc.EncodeBlockGrid(zorder.ZCol{}, nil, b)
	return st
}

// NewStoreWithZCol builds a Store over a block whose Z-addresses were
// already encoded upstream (the encode-once path). The grid arena is
// re-quantized from the rows, not de-interleaved from zc: zc must hold
// one enc-encoded address per row of b, so row i's grid is exactly the
// one zc.At(i) was interleaved from, and the store is what NewStore
// would have produced from the same encoder.
func NewStoreWithZCol(enc *zorder.Encoder, b point.Block, zc zorder.ZCol) *Store {
	if zc.Len() != b.Len() || zc.Words != enc.Words() {
		panic(fmt.Sprintf("zbtree: zcol shape %d×%d does not match block %d rows under a %d-word encoder",
			zc.Len(), zc.Words, b.Len(), enc.Words()))
	}
	st := &Store{enc: enc, blk: b, zc: zc}
	d := enc.Dims()
	st.grid = make([]uint32, b.Len()*d)
	for i := 0; i < b.Len(); i++ {
		enc.GridInto(st.grid[i*d:(i+1)*d], b.Row(i))
	}
	return st
}

// StoreOf concatenates blocks into one Store. Block i's column cols[i]
// is reused when it holds one enc-encoded address per row; otherwise
// the block is encoded here. ranges[i] is block i's [lo, hi) row span
// in the store — the per-candidate-set ranges MergeRanges folds over.
func StoreOf(enc *zorder.Encoder, blocks []point.Block, cols []zorder.ZCol) (st *Store, ranges [][2]int32) {
	total := 0
	for _, b := range blocks {
		total += b.Len()
	}
	w := enc.Words()
	bb := point.NewBlockBuilder(enc.Dims(), total)
	zc := zorder.ZCol{Words: w, Data: make([]uint64, 0, total*w)}
	ranges = make([][2]int32, len(blocks))
	for i, b := range blocks {
		lo := int32(bb.Len())
		bb.AppendBlock(b)
		if cols[i].Len() == b.Len() && cols[i].Words == w {
			zc.AppendCol(cols[i])
		} else {
			zc.AppendCol(enc.EncodeBlock(zorder.ZCol{}, b))
		}
		ranges[i] = [2]int32{lo, int32(bb.Len())}
	}
	return NewStoreWithZCol(enc, bb.Build(), zc), ranges
}

// row returns the float point of row i (zero-copy view).
func (st *Store) row(i int32) point.Point { return st.blk.Row(int(i)) }

// cell returns the grid coordinates of row i (zero-copy view).
func (st *Store) cell(i int32) []uint32 {
	d := st.enc.Dims()
	lo := int(i) * d
	return st.grid[lo : lo+d : lo+d]
}

// addr returns the Z-address of row i (zero-copy view).
func (st *Store) addr(i int32) zorder.ZAddr { return st.zc.At(int(i)) }

// CompactRows copies the given rows out into a fresh block and
// Z-column, so results never pin the (potentially much larger) input
// arenas.
func (st *Store) CompactRows(rows []int32) (point.Block, zorder.ZCol) {
	blk := point.Block{Dims: st.blk.Dims}
	zc := zorder.ZCol{Words: st.zc.Words}
	if len(rows) == 0 {
		return blk, zc
	}
	blk.Data = make([]float64, 0, len(rows)*st.blk.Dims)
	zc.Data = make([]uint64, 0, len(rows)*st.zc.Words)
	for _, r := range rows {
		blk.Data = append(blk.Data, st.row(r)...)
		zc.AppendRow(st.zc, int(r))
	}
	return blk, zc
}

// bnode is one slab-allocated tree node, addressed by index into
// BlockTree.nodes. kids == nil marks a leaf. minRow/maxRow reference
// store rows whose Z-addresses bound the subtree; they (and the region
// arenas) are left as stale supersets after RemoveDominatedBy
// compaction — Z-merge re-balances once at the end.
type bnode struct {
	kids   []int32 // child node ids; nil for leaves
	rows   []int32 // leaf rows in Z-order
	count  int32
	minRow int32
	maxRow int32
}

func (n *bnode) isLeaf() bool { return n.kids == nil }

// BlockTree is a ZB-tree whose nodes live in one slab and whose
// entries are row indices into a shared Store: no per-node heap
// allocation on the bulk-load path and no per-point address or grid
// copies anywhere. Every walk computes under the tree's dominance
// relation. Read-only walks (DominatesPoint, SkylineRows,
// SkylineProgressive, RangeQuery, SkylineWithin, DominatorsOf,
// CountDominatedBy) are safe to run concurrently on one tree: they
// count their tests in per-call locals. RemoveDominatedBy mutates and
// needs exclusive access.
type BlockTree struct {
	st     *Store
	dims   int
	fanout int
	prov   dominance.Provider
	caps   dominance.Caps
	pareto bool
	tally  *metrics.Tally
	nodes  []bnode
	// regs holds each node's region corners side by side, MinG then
	// MaxG, 2*dims stride per node id.
	regs []uint32
	root int32 // -1 when empty
}

// NewBlockTree returns an empty tree over st computing under prov (nil
// means Pareto). fanout <= 0 selects DefaultFanout; tally may be nil.
func NewBlockTree(st *Store, fanout int, prov dominance.Provider, tally *metrics.Tally) *BlockTree {
	if fanout <= 0 {
		fanout = DefaultFanout
	}
	if fanout < 2 {
		fanout = 2
	}
	if prov == nil {
		prov = dominance.Pareto{}
	}
	return &BlockTree{st: st, dims: st.enc.Dims(), fanout: fanout, prov: prov, caps: prov.Caps(),
		pareto: dominance.IsPareto(prov), tally: tally, root: -1}
}

// empty returns an empty tree sharing t's store, fanout, relation and
// tally.
func (t *BlockTree) empty() *BlockTree {
	return NewBlockTree(t.st, t.fanout, t.prov, t.tally)
}

// newNode appends a zeroed node to the slab and grows the region
// arena in tandem, returning its id. Callers must re-index t.nodes
// after calling (the slab may move).
func (t *BlockTree) newNode() int32 {
	id := int32(len(t.nodes))
	t.nodes = append(t.nodes, bnode{minRow: -1, maxRow: -1})
	for i := 0; i < 2*t.dims; i++ {
		t.regs = append(t.regs, 0)
	}
	return id
}

// region returns node n's RZ-region as views into the corner arena.
func (t *BlockTree) region(n int32) zorder.Region {
	d := t.dims
	r := t.regs[int(n)*2*d : (int(n)+1)*2*d]
	return zorder.Region{MinG: r[:d:d], MaxG: r[d:]}
}

// setRegion recomputes node n's RZ-region spanning rows a <= b, writing
// straight into the arena: row a's stored grid masked to the rows'
// common Z-prefix, so no address is decoded.
func (t *BlockTree) setRegion(n, a, b int32) {
	r := t.region(n)
	cpl := zorder.CommonPrefixLen(t.st.addr(a), t.st.addr(b), t.st.enc.TotalBits())
	t.st.enc.RegionInto(r.MinG, r.MaxG, t.st.cell(a), cpl)
}

// setPointRegion sets node n's region to the degenerate region of one
// row.
func (t *BlockTree) setPointRegion(n, row int32) {
	r := t.region(n)
	copy(r.MinG, t.st.cell(row))
	copy(r.MaxG, t.st.cell(row))
}

// Len returns the number of rows in the tree.
func (t *BlockTree) Len() int {
	if t.root < 0 {
		return 0
	}
	return int(t.nodes[t.root].count)
}

// Compact copies the stored rows, in Z-order, out into a fresh block
// and Z-column (see Store.CompactRows).
func (t *BlockTree) Compact() (point.Block, zorder.ZCol) { return t.st.CompactRows(t.Rows()) }

// Rows returns all stored row indices in Z-order.
func (t *BlockTree) Rows() []int32 {
	out := make([]int32, 0, t.Len())
	return t.appendRows(t.root, out)
}

// Points returns the stored rows' points in Z-order, as views into the
// store.
func (t *BlockTree) Points() []point.Point { return t.points(t.Rows()) }

// points maps store rows to their (zero-copy) points.
func (t *BlockTree) points(rows []int32) []point.Point {
	out := make([]point.Point, len(rows))
	for i, r := range rows {
		out[i] = t.st.row(r)
	}
	return out
}

func (t *BlockTree) appendRows(n int32, out []int32) []int32 {
	if n < 0 {
		return out
	}
	nd := &t.nodes[n]
	if nd.isLeaf() {
		return append(out, nd.rows...)
	}
	for _, c := range nd.kids {
		out = t.appendRows(c, out)
	}
	return out
}

// BuildStore bulk-loads a balanced tree over every row of st.
func BuildStore(st *Store, fanout int, prov dominance.Provider, tally *metrics.Tally) *BlockTree {
	rows := make([]int32, st.blk.Len())
	for i := range rows {
		rows[i] = int32(i)
	}
	return buildRows(st, fanout, prov, rows, tally)
}

// buildRows bulk-loads a balanced tree holding the given store rows,
// sorting them by Z-address first (stably, so ties keep input order).
// It takes ownership of rows and sorts it in place; the slice becomes
// the leaf-row arena.
func buildRows(st *Store, fanout int, prov dominance.Provider, rows []int32, tally *metrics.Tally) *BlockTree {
	t := NewBlockTree(st, fanout, prov, tally)
	if len(rows) == 0 {
		return t
	}
	sort.SliceStable(rows, func(i, j int) bool {
		return st.zc.Compare(int(rows[i]), int(rows[j])) < 0
	})
	// Leaves: subslices of the sorted permutation arena.
	nLeaves := (len(rows) + t.fanout - 1) / t.fanout
	nNodes := nLeaves + nLeaves/(t.fanout-1) + 2
	t.nodes = make([]bnode, 0, nNodes)
	t.regs = make([]uint32, 0, nNodes*2*t.dims)
	level := make([]int32, 0, nLeaves)
	for lo := 0; lo < len(rows); lo += t.fanout {
		hi := lo + t.fanout
		if hi > len(rows) {
			hi = len(rows)
		}
		id := t.newNode()
		nd := &t.nodes[id]
		nd.rows = rows[lo:hi:hi]
		nd.count = int32(hi - lo)
		nd.minRow = rows[lo]
		nd.maxRow = rows[hi-1]
		t.setRegion(id, nd.minRow, nd.maxRow)
		level = append(level, id)
	}
	// Internal levels: kid lists are subslices of one per-level arena.
	for len(level) > 1 {
		arena := append([]int32(nil), level...)
		up := level[:0]
		for lo := 0; lo < len(arena); lo += t.fanout {
			hi := lo + t.fanout
			if hi > len(arena) {
				hi = len(arena)
			}
			kids := arena[lo:hi:hi]
			id := t.newNode()
			nd := &t.nodes[id]
			nd.kids = kids
			for _, c := range kids {
				nd.count += t.nodes[c].count
			}
			nd.minRow = t.nodes[kids[0]].minRow
			nd.maxRow = t.nodes[kids[len(kids)-1]].maxRow
			t.setRegion(id, nd.minRow, nd.maxRow)
			up = append(up, id)
		}
		level = up
	}
	t.root = level[0]
	return t
}

// appendRow inserts a row whose Z-address is >= every address already in
// the tree (rightmost-edge insertion) — the only mutation Z-search
// needs, since skyline rows arrive in Z-order. It panics on an
// out-of-order insert: a silently corrupted index would invalidate
// every later dominance test.
func (t *BlockTree) appendRow(row int32) {
	if t.root < 0 {
		id := t.newNode()
		nd := &t.nodes[id]
		nd.rows = make([]int32, 1, t.fanout)
		nd.rows[0] = row
		nd.count = 1
		nd.minRow, nd.maxRow = row, row
		t.setPointRegion(id, row)
		t.root = id
		return
	}
	if t.st.zc.Compare(int(row), int(t.nodes[t.root].maxRow)) < 0 {
		panic(fmt.Sprintf("zbtree: append out of Z-order: row %d < row %d", row, t.nodes[t.root].maxRow))
	}
	if up := t.appendAt(t.root, row); up >= 0 {
		id := t.newNode()
		old, sib := t.root, up
		nd := &t.nodes[id]
		nd.kids = make([]int32, 2, t.fanout)
		nd.kids[0], nd.kids[1] = old, sib
		nd.count = t.nodes[old].count + t.nodes[sib].count
		nd.minRow = t.nodes[old].minRow
		nd.maxRow = t.nodes[sib].maxRow
		t.setRegion(id, nd.minRow, nd.maxRow)
		t.root = id
	}
}

// appendAt inserts row under node n (rightmost path) and returns the
// id of a new right sibling if n overflowed, else -1.
func (t *BlockTree) appendAt(n, row int32) int32 {
	if t.nodes[n].isLeaf() {
		if len(t.nodes[n].rows) < t.fanout {
			nd := &t.nodes[n]
			nd.rows = append(nd.rows, row)
			nd.count++
			nd.maxRow = row
			t.setRegion(n, nd.minRow, nd.maxRow)
			return -1
		}
		id := t.newNode()
		nd := &t.nodes[id]
		nd.rows = make([]int32, 1, t.fanout)
		nd.rows[0] = row
		nd.count = 1
		nd.minRow, nd.maxRow = row, row
		t.setPointRegion(id, row)
		return id
	}
	last := t.nodes[n].kids[len(t.nodes[n].kids)-1]
	up := t.appendAt(last, row)
	if up >= 0 && len(t.nodes[n].kids) < t.fanout {
		t.nodes[n].kids = append(t.nodes[n].kids, up)
		up = -1
	}
	if up < 0 {
		nd := &t.nodes[n]
		nd.count++
		nd.maxRow = row
		t.setRegion(n, nd.minRow, nd.maxRow)
		return -1
	}
	// n is full: push the new sibling up wrapped in a fresh node.
	id := t.newNode()
	nd := &t.nodes[id]
	nd.kids = make([]int32, 1, t.fanout)
	nd.kids[0] = up
	nd.count = t.nodes[up].count
	nd.minRow = t.nodes[up].minRow
	nd.maxRow = t.nodes[up].maxRow
	r, ur := t.region(id), t.region(up)
	copy(r.MinG, ur.MinG)
	copy(r.MaxG, ur.MaxG)
	return id
}

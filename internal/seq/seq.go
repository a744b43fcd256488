// Package seq implements the centralized (single-worker) skyline
// kernel the paper uses as its SB local algorithm and as the baseline:
//
//   - SB ("sort-based"): sort by the sum of coordinates first, then a
//     single filtering pass (§6.1). Sorting by a monotone score makes
//     the window append-only. SBRows is the one loop; SB and SBBlock
//     are its slice and block adapters, and dominance.SkylineBlock
//     runs it for every relation that implies Pareto dominance.
//   - BruteForce and Filter: the quadratic oracles tests and the
//     benchmark check against.
//
// The paper's third algorithm, Z-search (ZS), lives in package zbtree
// because it is built on the ZB-tree index.
package seq

import (
	"slices"

	"zskyline/internal/metrics"
	"zskyline/internal/point"
)

// BruteForce computes the skyline by comparing all pairs. It is the
// O(n^2 d) oracle the rest of the test suite is validated against.
// Duplicate points (identical coordinates) are all retained, since
// equal points do not dominate one another.
func BruteForce(pts []point.Point) []point.Point {
	var out []point.Point
	for i, p := range pts {
		dominated := false
		for j, q := range pts {
			if i == j {
				continue
			}
			if point.Dominates(q, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	return out
}

// SB is the slice adapter of SBRows: it returns the skyline points of
// pts (the input's own point values, not copies) in SBRows order. The
// input is not reordered. Every point must have the dimensionality of
// the first (point.BlockOf panics otherwise).
func SB(pts []point.Point, tally *metrics.Tally) []point.Point {
	if len(pts) == 0 {
		return nil
	}
	rows := SBRows(point.BlockOf(len(pts[0]), pts), nil, tally)
	out := make([]point.Point, len(rows))
	for i, r := range rows {
		out[i] = pts[r]
	}
	return out
}

// SBBlock is the block adapter of SBRows: the skyline rows of b,
// compacted into a fresh block in ascending coordinate-sum order.
func SBBlock(b point.Block, tally *metrics.Tally) point.Block {
	return compactRows(b, SBRows(b, nil, tally))
}

// SBRows is the sort-by-sum window: stable-sort b's row indices by
// coordinate sum (ties in coordinate order), then keep each row that
// no earlier survivor dominates. It returns the surviving rows in that
// order, so callers can map the skyline back to their own rows without
// matching coordinates.
//
// dom is the relation's row test; nil selects Pareto dominance, which
// the loop calls directly. A non-nil dom must imply Pareto dominance:
// a dominator's sum is then never larger, and the tie order puts it
// first, so no later row can dominate an earlier one and the window
// only grows.
func SBRows(b point.Block, dom func(a point.Block, i int, b point.Block, j int) bool, tally *metrics.Tally) []int32 {
	n := b.Len()
	if n == 0 {
		return nil
	}
	sums := make([]float64, n)
	perm := make([]int32, n)
	for i := 0; i < n; i++ {
		sums[i] = point.SumCoords(b.Row(i))
		perm[i] = int32(i)
	}
	slices.SortStableFunc(perm, func(a, c int32) int {
		switch sa, sc := sums[a], sums[c]; {
		case sa < sc:
			return -1
		case sa > sc:
			return 1
		}
		// Rounding can tie a dominator with a row it dominates; in
		// coordinate order the dominator comes first.
		pa, pc := b.Row(int(a)), b.Row(int(c))
		switch {
		case point.Less(pa, pc):
			return -1
		case point.Less(pc, pa):
			return 1
		}
		return 0
	})
	window := make([]int32, 0, 64)
	var tests int64
	for _, ri := range perm {
		p := b.Row(int(ri))
		dominated := false
		// The test is chosen per row, not per pair, so the Pareto scan
		// stays a tight loop around the inlined point.Dominates.
		if dom == nil {
			for _, wi := range window {
				tests++
				if point.Dominates(b.Row(int(wi)), p) {
					dominated = true
					break
				}
			}
		} else {
			for _, wi := range window {
				tests++
				if dom(b, int(wi), b, int(ri)) {
					dominated = true
					break
				}
			}
		}
		if !dominated {
			window = append(window, ri)
		}
	}
	tally.AddDominanceTests(tests)
	return window
}

// Filter removes from candidates every point dominated by some point
// in against (exact float tests).
func Filter(candidates, against []point.Point, tally *metrics.Tally) []point.Point {
	var out []point.Point
	var tests int64
	for _, p := range candidates {
		dominated := false
		for _, q := range against {
			tests++
			if point.Dominates(q, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	tally.AddDominanceTests(tests)
	return out
}

// compactRows copies the selected rows of b into a fresh block, so
// results never pin the input arena.
func compactRows(b point.Block, rows []int32) point.Block {
	out := point.Block{Dims: b.Dims}
	if len(rows) == 0 {
		return out
	}
	out.Data = make([]float64, 0, len(rows)*b.Dims)
	for _, r := range rows {
		out.Data = append(out.Data, b.Row(int(r))...)
	}
	return out
}

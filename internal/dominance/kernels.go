package dominance

import (
	"zskyline/internal/metrics"
	"zskyline/internal/point"
	"zskyline/internal/seq"
)

// Provider-generic skyline kernels. Each operation has one loop:
// SkylineBlock runs the sort-by-sum window of package seq for every
// relation that implies Pareto dominance (Pareto itself included, with
// no per-test interface call) and the eviction window below for the
// rest; FilterBlock is the one block filter.

// SkylineBlock computes the exact provider skyline of b, compacting
// survivors into a fresh block.
//
// When the relation implies Pareto, rows are processed in coordinate-
// sum order with ties in coordinate order, which is then a topological
// order for the provider (a dominator always comes first), so the
// window is append-only — seq.SBRows. Otherwise rows are processed in input
// order with window eviction (block-nested loops). For non-transitive
// relations the window is a candidate superset, so a final pass
// retests every candidate against the full block; elimination by a
// real row is sound under any irreflexive relation, which makes the
// combined result exact.
func SkylineBlock(prov Provider, b point.Block, tally *metrics.Tally) point.Block {
	n := b.Len()
	if n == 0 {
		return point.Block{Dims: b.Dims}
	}
	caps := prov.Caps()
	var window []int32
	if caps.ImpliesPareto {
		var dom func(point.Block, int, point.Block, int) bool
		if !IsPareto(prov) {
			dom = prov.DominatesRows
		}
		window = seq.SBRows(b, dom, tally)
	} else {
		window = evictionRows(prov, b, tally)
	}
	if !caps.Transitive {
		window = filterRows(prov, b, window, b, tally)
	}
	return compactRows(b, window)
}

// evictionRows is the block-nested-loops window: each row is tested
// against the survivors so far, evicting the ones it dominates and
// being dropped if one of them dominates it. It returns the surviving
// rows of b.
func evictionRows(prov Provider, b point.Block, tally *metrics.Tally) []int32 {
	n := b.Len()
	window := make([]int32, 0, 64)
	var tests int64
	for i := 0; i < n; i++ {
		dominated := false
		w := window[:0]
		for k, wi := range window {
			tests++
			if prov.DominatesRows(b, int(wi), b, i) {
				dominated = true
				w = append(w, window[k:]...)
				break
			}
			tests++
			if prov.DominatesRows(b, i, b, int(wi)) {
				continue // evict the window row
			}
			w = append(w, wi)
		}
		window = w
		if !dominated {
			window = append(window, int32(i))
		}
	}
	tally.AddDominanceTests(tests)
	return window
}

// FilterBlock removes from candidates every row dominated by some row
// of against, compacting survivors. Because eliminations cite a real
// point, the filter is membership-sound under any irreflexive
// relation, transitive or not; against the full dataset it closes a
// candidate superset to the exact skyline, since coordinate-equal rows
// never dominate each other under an irreflexive relation.
func FilterBlock(prov Provider, candidates, against point.Block, tally *metrics.Tally) point.Block {
	n := candidates.Len()
	if n == 0 {
		return point.Block{Dims: candidates.Dims}
	}
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	return compactRows(candidates, filterRows(prov, candidates, rows, against, tally))
}

// filterRows is the one filter loop: it keeps the rows of cands that no
// row of against dominates, reusing the rows slice for the result.
func filterRows(prov Provider, cands point.Block, rows []int32, against point.Block, tally *metrics.Tally) []int32 {
	m := against.Len()
	kept := rows[:0]
	var tests int64
	for _, ci := range rows {
		dominated := false
		for j := 0; j < m; j++ {
			tests++
			if prov.DominatesRows(against, j, cands, int(ci)) {
				dominated = true
				break
			}
		}
		if !dominated {
			kept = append(kept, ci)
		}
	}
	tally.AddDominanceTests(tests)
	return kept
}

// Skyline is the slice adapter of SkylineBlock.
func Skyline(prov Provider, pts []point.Point, tally *metrics.Tally) []point.Point {
	if len(pts) == 0 {
		return nil
	}
	return SkylineBlock(prov, point.BlockOf(len(pts[0]), pts), tally).Points()
}

// BruteForce is the quadratic per-provider oracle: keep p iff no other
// point dominates it under prov. The reference that every executor is
// property-tested against.
func BruteForce(prov Provider, pts []point.Point) []point.Point {
	var out []point.Point
	for i, p := range pts {
		dominated := false
		for j, q := range pts {
			if i == j {
				continue
			}
			if prov.Dominates(q, p) {
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

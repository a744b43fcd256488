package plan

import (
	"testing"

	"zskyline/internal/dominance"
	"zskyline/internal/gen"
	"zskyline/internal/point"
	"zskyline/internal/sample"
)

// allocFixture learns a ZDG rule with SB as the local algorithm over
// 4n anti-correlated rows: SB's combine allocations depend on the group
// count, not the row count, so what scales with rows is routing alone.
func allocFixture(t *testing.T, n int, desc dominance.Descriptor) (*Rule, point.Block) {
	t.Helper()
	ds := gen.Synthetic(gen.AntiCorrelated, 4*n, 5, 42)
	smp, err := sample.Ratio(ds.Points, 0.02, 42)
	if err != nil {
		t.Fatal(err)
	}
	mins, maxs, err := ds.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	spec := &Spec{Strategy: ZDG, Local: SB, Merge: MergeZM,
		M: 32, Delta: 4, SampleRatio: 0.02, Bits: 16, Dominance: desc}
	r, err := Learn(spec, ds.Dims, mins, maxs, smp, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r, point.BlockOf(ds.Dims, ds.Points)
}

// assertNoPerRowAllocs maps the first n rows of blk and then all of
// them with the same rule. Per-group arenas grow by doubling, so the
// extra rows may cost a few allocations per group, never one per row.
// It returns the allocations of the full map.
func assertNoPerRowAllocs(t *testing.T, label string, r *Rule, blk point.Block, n int) float64 {
	t.Helper()
	small := blk.Slice(0, n)
	smallAllocs := testing.AllocsPerRun(3, func() { _ = r.MapBlock(small, nil) })
	bigAllocs := testing.AllocsPerRun(3, func() { _ = r.MapBlock(blk, nil) })
	if smallAllocs <= 0 {
		t.Fatalf("%s: implausible block allocs %v", label, smallAllocs)
	}
	perRow := (bigAllocs - smallAllocs) / float64(blk.Len()-n)
	t.Logf("%s: map allocs %.0f at %d rows, %.0f at %d rows (%.4f per extra row)",
		label, smallAllocs, n, bigAllocs, blk.Len(), perRow)
	if perRow > 0.05 {
		t.Errorf("%s: MapBlock allocates %.3f times per row, want none", label, perRow)
	}
	return bigAllocs
}

// The block map path must not allocate per row: routing reuses one
// grid/Z-address scratch pair and rows land in per-group arenas.
func TestMapBlockAllocReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is slow")
	}
	const n = 10000
	r, blk := allocFixture(t, n, dominance.Descriptor{})
	assertNoPerRowAllocs(t, "zdg/sb", r, blk, n)
}

// The pluggable-dominance layer must be free for the default relation:
// a rule learned with an explicit pareto descriptor must allocate
// exactly like a rule learned with the zero descriptor on the block map
// path, and neither may allocate per row.
func TestParetoProviderNoRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement is slow")
	}
	const n = 10000
	zero, blk := allocFixture(t, n, dominance.Descriptor{})
	named, _ := allocFixture(t, n, dominance.Descriptor{Kind: dominance.KindPareto})
	zeroAllocs := testing.AllocsPerRun(3, func() { _ = zero.MapBlock(blk, nil) })
	namedAllocs := assertNoPerRowAllocs(t, "pareto descriptor", named, blk, n)
	t.Logf("block map allocs: zero descriptor %.0f, pareto descriptor %.0f", zeroAllocs, namedAllocs)
	// Allow 1% jitter: AllocsPerRun wobbles by a count or two on
	// internal map growth, but a provider-layer regression would cost
	// allocations per row, i.e. thousands here.
	if namedAllocs > zeroAllocs*1.01+1 {
		t.Errorf("pareto descriptor regresses block map allocs: %v vs %v", namedAllocs, zeroAllocs)
	}
}

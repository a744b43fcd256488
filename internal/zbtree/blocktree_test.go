package zbtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"zskyline/internal/point"
	"zskyline/internal/seq"
	"zskyline/internal/zorder"
)

// genBlock produces n points of d dims under one of three correlation
// profiles — the standard skyline benchmark families.
func genBlock(rng *rand.Rand, kind string, n, d int) point.Block {
	bb := point.NewBlockBuilder(d, n)
	for i := 0; i < n; i++ {
		row := bb.Extend()
		switch kind {
		case "correlated":
			base := rng.Float64()
			for k := range row {
				row[k] = 0.8*base + 0.2*rng.Float64()
			}
		case "anti":
			sum := 0.5 + 0.5*rng.Float64()
			for k := range row {
				row[k] = sum * rng.Float64()
			}
		default: // independent
			for k := range row {
				row[k] = rng.Float64()
			}
		}
	}
	return bb.Build()
}

func sortedPoints(pts []point.Point) []point.Point {
	out := append([]point.Point(nil), pts...)
	point.SortLexicographic(out)
	return out
}

func samePointSet(t *testing.T, label string, got, want []point.Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, want %d", label, len(got), len(want))
	}
	g, w := sortedPoints(got), sortedPoints(want)
	for i := range g {
		if !g[i].Equal(w[i]) {
			t.Fatalf("%s: point %d = %v, want %v", label, i, g[i], w[i])
		}
	}
}

// The block-native ZS path must agree point for point with the
// brute-force oracle across correlation profiles and dimensionalities,
// with and without a precomputed Z-address column.
func TestZSearchBlockMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, kind := range []string{"correlated", "independent", "anti"} {
		for _, d := range []int{2, 3, 5, 7, 10} {
			b := genBlock(rng, kind, 400, d)
			enc, err := zorder.NewUnitEncoder(d, 12)
			if err != nil {
				t.Fatal(err)
			}
			oracle := seq.BruteForce(b.Points())
			block, _ := ZSearchGroup(nil, enc, 8, b, zorder.ZCol{}, nil)
			samePointSet(t, kind+"/block", block.Points(), oracle)

			// Encode-once path: a pre-built column must give the same
			// answer and a consistent survivor column.
			zc := enc.EncodeBlock(zorder.ZCol{}, b)
			gBlk, gZC := ZSearchGroup(nil, enc, 8, b, zc, nil)
			samePointSet(t, kind+"/group", gBlk.Points(), oracle)
			if gZC.Len() != gBlk.Len() {
				t.Fatalf("%s: survivor zcol %d rows, block %d", kind, gZC.Len(), gBlk.Len())
			}
			for i := 0; i < gBlk.Len(); i++ {
				if !zorder.Equal(gZC.At(i), enc.Encode(gBlk.Row(i))) {
					t.Fatalf("%s: survivor %d carries wrong z-address", kind, i)
				}
			}
		}
	}
}

// mergeBlock over a shared store must agree with the brute-force
// skyline of the union.
func TestMergeBlockMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, kind := range []string{"correlated", "independent", "anti"} {
		for _, d := range []int{2, 4, 8} {
			enc, err := zorder.NewUnitEncoder(d, 10)
			if err != nil {
				t.Fatal(err)
			}
			a := genBlock(rng, kind, 300, d)
			b := genBlock(rng, kind, 250, d)
			skyA := seq.BruteForce(a.Points())
			skyB := seq.BruteForce(b.Points())
			want := seq.BruteForce(append(a.Points(), b.Points()...))

			// Shared store over the concatenation of both candidate sets.
			st, ranges := StoreOf(enc, []point.Block{point.BlockOf(d, skyA), point.BlockOf(d, skyB)}, make([]zorder.ZCol, 2))
			rowsOf := func(rg [2]int32) []int32 {
				var rows []int32
				for i := rg[0]; i < rg[1]; i++ {
					rows = append(rows, i)
				}
				return rows
			}
			ta := buildRows(st, 8, nil, rowsOf(ranges[0]), nil)
			tb := buildRows(st, 8, nil, rowsOf(ranges[1]), nil)
			merged := mergeBlock(ta, tb)
			if err := validate(merged); err != nil {
				t.Fatal(err)
			}
			got, _ := st.CompactRows(merged.Rows())
			samePointSet(t, kind+"/merge", got.Points(), want)
		}
	}
}

// NewStoreWithZCol must reproduce NewStore exactly: same addresses,
// and grids that are both the rows' quantization and what the shared
// addresses encode. Rows outside the encoder's box (clamped) and
// multi-word addresses are included.
func TestStoreWithZColMatchesNewStore(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, shape := range []struct{ d, bits int }{{5, 11}, {8, 16}, {17, 16}, {3, 32}} {
		b := genBlock(rng, "anti", 150, shape.d)
		b.Row(0)[0], b.Row(1)[shape.d-1] = -0.5, 1.5
		enc, err := zorder.NewUnitEncoder(shape.d, shape.bits)
		if err != nil {
			t.Fatal(err)
		}
		fresh := NewStore(enc, b)
		reused := NewStoreWithZCol(enc, b, enc.EncodeBlock(zorder.ZCol{}, b))
		for i := int32(0); i < int32(b.Len()); i++ {
			if !zorder.Equal(fresh.addr(i), reused.addr(i)) {
				t.Fatalf("%+v row %d: z mismatch", shape, i)
			}
			fg, rg, dg := fresh.cell(i), reused.cell(i), enc.DecodeGrid(reused.addr(i))
			for k := range fg {
				if fg[k] != rg[k] || rg[k] != dg[k] {
					t.Fatalf("%+v row %d dim %d: grid %d vs %d, address encodes %d", shape, i, k, fg[k], rg[k], dg[k])
				}
			}
		}
	}
}

// Every node region a BlockTree masks from its boundary row's grid must
// equal the region of its boundary addresses.
func TestBlockTreeRegionsMatchAddresses(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, d := range []int{2, 8, 17} {
		b := genBlock(rng, "independent", 300, d)
		enc, err := zorder.NewUnitEncoder(d, 12)
		if err != nil {
			t.Fatal(err)
		}
		st := NewStore(enc, b)
		bt := BuildStore(st, 4, nil, nil)
		for n := range bt.nodes {
			nd := &bt.nodes[n]
			lo, hi := st.addr(nd.minRow), st.addr(nd.maxRow)
			want := enc.RegionOf(lo, hi)
			got := bt.region(int32(n))
			for k := 0; k < d; k++ {
				if got.MinG[k] != want.MinG[k] || got.MaxG[k] != want.MaxG[k] {
					t.Fatalf("d=%d node %d dim %d: region [%d,%d], want [%d,%d]",
						d, n, k, got.MinG[k], got.MaxG[k], want.MinG[k], want.MaxG[k])
				}
			}
		}
	}
}

// Quick property: block ZS equals brute force for arbitrary seeds
// (mirrors TestQuickSkylinePermutationInvariant's generator).
func TestQuickBlockSkylineMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		pts, enc := quickPoints(seed, 250, 6)
		want := seq.BruteForce(pts)
		got, _ := ZSearchGroup(nil, enc, 2+int(uint64(seed)%13), point.BlockOf(enc.Dims(), pts), zorder.ZCol{}, nil)
		if got.Len() != len(want) {
			return false
		}
		g, w := sortedPoints(got.Points()), sortedPoints(want)
		for i := range g {
			if !g[i].Equal(w[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Quick property: folding mergeBlock over many candidate sets sharing
// one store equals the brute-force skyline of the union.
func TestQuickMergeBlockFoldMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		pts, enc := quickPoints(seed, 300, 5)
		if len(pts) == 0 {
			return true
		}
		b := point.BlockOf(enc.Dims(), pts)
		st := NewStore(enc, b)
		// Partition rows into up to 4 contiguous runs, skyline each, fold.
		r := rand.New(rand.NewSource(seed ^ 0x9e37))
		parts := 1 + r.Intn(4)
		acc := NewBlockTree(st, 8, nil, nil)
		for i := 0; i < parts; i++ {
			lo, hi := i*len(pts)/parts, (i+1)*len(pts)/parts
			rows := make([]int32, 0, hi-lo)
			for j := lo; j < hi; j++ {
				rows = append(rows, int32(j))
			}
			part := buildRows(st, 8, nil, rows, nil)
			skyRows := part.SkylineRows()
			acc = mergeBlock(acc, buildRows(st, 8, nil, skyRows, nil))
		}
		got, _ := st.CompactRows(acc.Rows())
		want := seq.BruteForce(pts)
		if got.Len() != len(want) {
			return false
		}
		g, w := sortedPoints(got.Points()), sortedPoints(want)
		for i := range g {
			if !g[i].Equal(w[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// A tree grown by appendRow must hold the bulk build's rows in the same
// Z-order, and every node region it maintains incrementally must equal
// the region of the node's boundary addresses.
func TestBlockTreeAppendMatchesBulk(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	b := genBlock(rng, "independent", 120, 4)
	enc, err := zorder.NewUnitEncoder(4, 9)
	if err != nil {
		t.Fatal(err)
	}
	st := NewStore(enc, b)
	bulk := BuildStore(st, 4, nil, nil)
	inc := NewBlockTree(st, 4, nil, nil)
	for _, row := range bulk.Rows() {
		inc.appendRow(row)
	}
	if inc.Len() != bulk.Len() {
		t.Fatalf("incremental %d rows, bulk %d", inc.Len(), bulk.Len())
	}
	bi, bu := inc.Rows(), bulk.Rows()
	for i := range bi {
		if st.zc.Compare(int(bi[i]), int(bu[i])) != 0 {
			t.Fatalf("row %d: incremental z-order diverges from bulk", i)
		}
	}
	for n := range inc.nodes {
		nd := &inc.nodes[n]
		want := enc.RegionOf(st.addr(nd.minRow), st.addr(nd.maxRow))
		got := inc.region(int32(n))
		for k := range want.MinG {
			if got.MinG[k] != want.MinG[k] || got.MaxG[k] != want.MaxG[k] {
				t.Fatalf("node %d dim %d: region [%d,%d], want [%d,%d]",
					n, k, got.MinG[k], got.MaxG[k], want.MinG[k], want.MaxG[k])
			}
		}
	}
}

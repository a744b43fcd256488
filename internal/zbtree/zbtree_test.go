package zbtree

import (
	"fmt"
	"math/rand"
	"testing"

	"zskyline/internal/dominance"
	"zskyline/internal/metrics"
	"zskyline/internal/point"
	"zskyline/internal/seq"
	"zskyline/internal/zorder"
)

func unitEnc(t testing.TB, dims, bits int) *zorder.Encoder {
	t.Helper()
	e, err := zorder.NewUnitEncoder(dims, bits)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func randPts(r *rand.Rand, n, d, domain int) []point.Point {
	pts := make([]point.Point, n)
	for i := range pts {
		p := make(point.Point, d)
		for k := range p {
			if domain > 0 {
				p[k] = float64(r.Intn(domain)) / float64(domain)
			} else {
				p[k] = r.Float64()
			}
		}
		pts[i] = p
	}
	return pts
}

func sameSet(t *testing.T, got, want []point.Point, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d points, want %d", label, len(got), len(want))
	}
	g := append([]point.Point(nil), got...)
	w := append([]point.Point(nil), want...)
	point.SortLexicographic(g)
	point.SortLexicographic(w)
	for i := range g {
		if !g[i].Equal(w[i]) {
			t.Fatalf("%s: [%d] = %v, want %v", label, i, g[i], w[i])
		}
	}
}

// treeOf indexes pts into a tree over a fresh store under prov (nil
// means Pareto).
func treeOf(enc *zorder.Encoder, fanout int, pts []point.Point, prov dominance.Provider) *BlockTree {
	return BuildStore(NewStore(enc, point.BlockOf(enc.Dims(), pts)), fanout, prov, nil)
}

// zsearch is the Pareto skyline of pts through ZSearchGroup.
func zsearch(enc *zorder.Encoder, fanout int, pts []point.Point, tally *metrics.Tally) []point.Point {
	blk, _ := ZSearchGroup(nil, enc, fanout, point.BlockOf(enc.Dims(), pts), zorder.ZCol{}, tally)
	return blk.Points()
}

// mergeOf Z-merges candidate sets in order through MergeRanges over one
// store.
func mergeOf(enc *zorder.Encoder, fanout int, prov dominance.Provider, tally *metrics.Tally, sets ...[]point.Point) *BlockTree {
	blocks := make([]point.Block, len(sets))
	for i, s := range sets {
		blocks[i] = point.BlockOf(enc.Dims(), s)
	}
	st, ranges := StoreOf(enc, blocks, make([]zorder.ZCol, len(sets)))
	return MergeRanges(st, fanout, prov, ranges, tally)
}

// height returns the number of levels (0 for an empty tree).
func height(t *BlockTree) int {
	h := 0
	for n := t.root; n >= 0; {
		h++
		if t.nodes[n].isLeaf() {
			break
		}
		n = t.nodes[n].kids[0]
	}
	return h
}

// validate checks the structural invariants: balance, non-empty nodes,
// Z-ordered leaves and children, counts, and rows and child regions
// inside their node's region.
func validate(t *BlockTree) error {
	if t.root < 0 {
		return nil
	}
	st := t.st
	inside := func(g []uint32, r zorder.Region) bool {
		for k := range g {
			if g[k] < r.MinG[k] || g[k] > r.MaxG[k] {
				return false
			}
		}
		return true
	}
	leafDepth := -1
	var check func(n int32, depth int) (int32, error)
	check = func(n int32, depth int) (int32, error) {
		nd := &t.nodes[n]
		r := t.region(n)
		if nd.isLeaf() {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return 0, fmt.Errorf("unbalanced: leaf at depth %d and %d", leafDepth, depth)
			}
			if len(nd.rows) == 0 {
				return 0, fmt.Errorf("empty leaf")
			}
			for i, e := range nd.rows {
				if i > 0 && st.zc.Compare(int(nd.rows[i-1]), int(e)) > 0 {
					return 0, fmt.Errorf("leaf rows out of Z-order")
				}
				if !inside(st.cell(e), r) {
					return 0, fmt.Errorf("row %v outside region [%v,%v]", st.cell(e), r.MinG, r.MaxG)
				}
			}
			if nd.count != int32(len(nd.rows)) {
				return 0, fmt.Errorf("leaf count %d != %d", nd.count, len(nd.rows))
			}
			return nd.count, nil
		}
		if len(nd.kids) == 0 {
			return 0, fmt.Errorf("empty internal node")
		}
		var total int32
		for i, k := range nd.kids {
			cnt, err := check(k, depth+1)
			if err != nil {
				return 0, err
			}
			total += cnt
			if i > 0 && st.zc.Compare(int(t.nodes[nd.kids[i-1]].maxRow), int(t.nodes[k].minRow)) > 0 {
				return 0, fmt.Errorf("children out of Z-order")
			}
			kr := t.region(k)
			if !inside(kr.MinG, r) || !inside(kr.MaxG, r) {
				return 0, fmt.Errorf("child region escapes parent")
			}
		}
		if total != nd.count {
			return 0, fmt.Errorf("internal count %d != %d", nd.count, total)
		}
		return total, nil
	}
	_, err := check(t.root, 0)
	return err
}

func TestBuildEmptyAndSmall(t *testing.T) {
	enc := unitEnc(t, 2, 8)
	tr := treeOf(enc, 4, nil, nil)
	if tr.Len() != 0 || height(tr) != 0 {
		t.Errorf("empty tree: len=%d h=%d", tr.Len(), height(tr))
	}
	tr = treeOf(enc, 4, []point.Point{{0.5, 0.5}}, nil)
	if tr.Len() != 1 || height(tr) != 1 {
		t.Errorf("singleton: len=%d h=%d", tr.Len(), height(tr))
	}
	if err := validate(tr); err != nil {
		t.Fatal(err)
	}
}

func TestBuildInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 3, 4, 5, 16, 17, 64, 100, 257, 1000} {
		for _, fanout := range []int{2, 3, 4, 16} {
			enc := unitEnc(t, 3, 10)
			tr := treeOf(enc, fanout, randPts(rng, n, 3, 0), nil)
			if tr.Len() != n {
				t.Fatalf("n=%d fanout=%d: Len=%d", n, fanout, tr.Len())
			}
			if err := validate(tr); err != nil {
				t.Fatalf("n=%d fanout=%d: %v", n, fanout, err)
			}
		}
	}
}

func TestEntriesAreZSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	enc := unitEnc(t, 4, 8)
	tr := treeOf(enc, 8, randPts(rng, 500, 4, 0), nil)
	rows := tr.Rows()
	if len(rows) != 500 {
		t.Fatalf("Rows len = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if tr.st.zc.Compare(int(rows[i-1]), int(rows[i])) > 0 {
			t.Fatalf("rows out of Z-order at %d", i)
		}
	}
}

// Appending rows in Z-order one by one must keep every invariant and
// hold the same rows, in the same order, as a bulk build.
func TestAppendMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	enc := unitEnc(t, 3, 8)
	for _, n := range []int{1, 2, 7, 33, 200, 1025} {
		st := NewStore(enc, point.BlockOf(3, randPts(rng, n, 3, 0)))
		bulk := BuildStore(st, 4, nil, nil)
		tr := NewBlockTree(st, 4, nil, nil)
		for _, row := range bulk.Rows() {
			tr.appendRow(row)
		}
		if tr.Len() != n {
			t.Fatalf("append n=%d: Len=%d", n, tr.Len())
		}
		if err := validate(tr); err != nil {
			t.Fatalf("append n=%d: %v", n, err)
		}
		got, want := tr.Rows(), bulk.Rows()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("append vs build mismatch at %d", i)
			}
		}
	}
}

func TestAppendOutOfOrderPanics(t *testing.T) {
	enc := unitEnc(t, 2, 8)
	st := NewStore(enc, point.BlockOf(2, []point.Point{{0.9, 0.9}, {0.1, 0.1}}))
	tr := NewBlockTree(st, 4, nil, nil)
	tr.appendRow(0)
	defer func() {
		if recover() == nil {
			t.Error("out-of-order append did not panic")
		}
	}()
	tr.appendRow(1)
}

func TestDominatesPoint(t *testing.T) {
	enc := unitEnc(t, 2, 8)
	tr := treeOf(enc, 4, []point.Point{{0.5, 0.5}, {0.1, 0.9}}, nil)
	cases := []struct {
		p    point.Point
		want bool
	}{
		{point.Point{0.6, 0.6}, true},  // dominated by (0.5,0.5)
		{point.Point{0.5, 0.5}, false}, // equal, not dominated
		{point.Point{0.4, 0.4}, false}, // dominates the tree point
		{point.Point{0.2, 0.95}, true}, // dominated by (0.1,0.9)
		{point.Point{0.05, 0.05}, false},
	}
	for _, c := range cases {
		if got := tr.DominatesPoint(enc.Grid(c.p), c.p); got != c.want {
			t.Errorf("DominatesPoint(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// Property: DominatesPoint agrees with a linear scan.
func TestDominatesPointAgreesWithScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 60; iter++ {
		d := 1 + rng.Intn(5)
		enc := unitEnc(t, d, 6) // coarse grid: exercise tie handling
		pts := randPts(rng, 150, d, 8)
		tr := treeOf(enc, 4, pts, nil)
		for probe := 0; probe < 30; probe++ {
			q := randPts(rng, 1, d, 8)[0]
			want := false
			for _, p := range pts {
				if point.Dominates(p, q) {
					want = true
					break
				}
			}
			if got := tr.DominatesPoint(enc.Grid(q), q); got != want {
				t.Fatalf("DominatesPoint(%v) = %v, want %v", q, got, want)
			}
		}
	}
}

// Property: RemoveDominatedBy removes exactly the dominated points.
func TestRemoveDominatedBy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 60; iter++ {
		d := 1 + rng.Intn(4)
		enc := unitEnc(t, d, 6)
		pts := randPts(rng, 120, d, 6)
		tr := treeOf(enc, 4, pts, nil)
		q := randPts(rng, 1, d, 6)[0]
		var want []point.Point
		wantRemoved := 0
		for _, p := range pts {
			if point.Dominates(q, p) {
				wantRemoved++
			} else {
				want = append(want, p)
			}
		}
		got := tr.RemoveDominatedBy(enc.Grid(q), q)
		if got != wantRemoved {
			t.Fatalf("removed %d, want %d", got, wantRemoved)
		}
		sameSet(t, tr.Points(), want, "survivors")
		if tr.Len() != len(want) {
			t.Fatalf("Len=%d want %d", tr.Len(), len(want))
		}
	}
}

func TestRemoveAllThenEmpty(t *testing.T) {
	enc := unitEnc(t, 2, 8)
	tr := treeOf(enc, 2, []point.Point{{0.5, 0.5}, {0.6, 0.6}, {0.9, 0.9}}, nil)
	q := point.Point{0.01, 0.01}
	if got := tr.RemoveDominatedBy(enc.Grid(q), q); got != 3 {
		t.Fatalf("removed %d, want 3", got)
	}
	if tr.Len() != 0 {
		t.Error("tree should be empty")
	}
}

func TestDominatesAllOfRegion(t *testing.T) {
	enc := unitEnc(t, 2, 8)
	tr := treeOf(enc, 4, []point.Point{{0.1, 0.1}}, nil)
	var c tests
	// Region well above the point.
	hi := enc.Encode(point.Point{0.6, 0.6})
	r := enc.RegionOf(enc.Encode(point.Point{0.5, 0.5}), hi)
	if !tr.dominatesRegion(tr.root, r, &c) {
		t.Error("point should dominate the whole region")
	}
	// Region containing the point itself can never be fully dominated.
	r2 := enc.RegionOf(enc.Encode(point.Point{0, 0}), hi)
	if tr.dominatesRegion(tr.root, r2, &c) {
		t.Error("region containing the dominator cannot be fully dominated")
	}
	if c.region == 0 {
		t.Error("region walk counted no tests")
	}
}

func TestSkylineMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 80; iter++ {
		d := 1 + rng.Intn(6)
		bits := []int{4, 8, 16}[rng.Intn(3)]
		n := rng.Intn(300)
		domain := 0
		if iter%3 == 0 {
			domain = 2 + rng.Intn(8) // tie-heavy
		}
		enc := unitEnc(t, d, bits)
		pts := randPts(rng, n, d, domain)
		sameSet(t, zsearch(enc, 4+rng.Intn(12), pts, nil), seq.BruteForce(pts), "zsearch")
	}
}

func TestSkylineAntiChain(t *testing.T) {
	enc := unitEnc(t, 2, 16)
	var pts []point.Point
	for i := 0; i < 64; i++ {
		pts = append(pts, point.Point{float64(i) / 64, float64(63-i) / 64})
	}
	if got := zsearch(enc, 8, pts, nil); len(got) != 64 {
		t.Fatalf("anti-chain skyline = %d, want 64", len(got))
	}
}

func TestSkylineDuplicates(t *testing.T) {
	enc := unitEnc(t, 2, 8)
	pts := []point.Point{{0.3, 0.3}, {0.3, 0.3}, {0.7, 0.7}}
	if got := zsearch(enc, 4, pts, nil); len(got) != 2 {
		t.Fatalf("duplicates: skyline = %v, want both copies of (0.3,0.3)", got)
	}
}

// The skyline rows rebuilt into a tree (what the merge phase consumes)
// must validate and hold exactly the oracle skyline.
func TestSkylineTreeValidatesAndMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	enc := unitEnc(t, 4, 10)
	pts := randPts(rng, 400, 4, 0)
	tr := treeOf(enc, 8, pts, nil)
	skyTree := buildRows(tr.st, 8, nil, tr.SkylineRows(), nil)
	if err := validate(skyTree); err != nil {
		t.Fatal(err)
	}
	sameSet(t, skyTree.Points(), seq.BruteForce(pts), "skyline tree")
}

func TestMergeTwoSkylines(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 60; iter++ {
		d := 1 + rng.Intn(5)
		enc := unitEnc(t, d, 8)
		a := randPts(rng, 100+rng.Intn(100), d, 0)
		b := randPts(rng, 100+rng.Intn(100), d, 0)
		merged := mergeOf(enc, 8, nil, nil, seq.BruteForce(a), seq.BruteForce(b))
		if err := validate(merged); err != nil {
			t.Fatal(err)
		}
		want := seq.BruteForce(append(append([]point.Point{}, a...), b...))
		sameSet(t, merged.Points(), want, "merge")
	}
}

func TestMergeWithEmpty(t *testing.T) {
	enc := unitEnc(t, 2, 8)
	st := NewStore(enc, point.BlockOf(2, []point.Point{{0.1, 0.9}, {0.9, 0.1}}))
	empty := NewBlockTree(st, 4, nil, nil)
	if got := mergeBlock(empty, BuildStore(st, 4, nil, nil)); got.Len() != 2 {
		t.Errorf("merge(empty, sky) len = %d", got.Len())
	}
	if got := mergeBlock(BuildStore(st, 4, nil, nil), empty); got.Len() != 2 {
		t.Errorf("merge(sky, empty) len = %d", got.Len())
	}
}

func TestMergeDisjointIncomparableSets(t *testing.T) {
	// Two anti-chain halves that are mutually incomparable: stash path.
	enc := unitEnc(t, 2, 10)
	var a, b []point.Point
	for i := 0; i < 20; i++ {
		a = append(a, point.Point{float64(i) / 100, float64(40-i) / 100})
		b = append(b, point.Point{float64(60+i) / 100, float64(20-i) / 1000})
	}
	merged := mergeOf(enc, 4, nil, nil, seq.BruteForce(a), seq.BruteForce(b))
	want := seq.BruteForce(append(append([]point.Point{}, a...), b...))
	sameSet(t, merged.Points(), want, "disjoint merge")
}

// MergeRanges over many candidate sets equals the union's skyline.
func TestMergeAllManyGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for iter := 0; iter < 20; iter++ {
		d := 2 + rng.Intn(4)
		enc := unitEnc(t, d, 8)
		var all []point.Point
		var skies [][]point.Point
		groups := 2 + rng.Intn(6)
		for g := 0; g < groups; g++ {
			pts := randPts(rng, 50+rng.Intn(100), d, 0)
			all = append(all, pts...)
			skies = append(skies, seq.BruteForce(pts))
		}
		sameSet(t, mergeOf(enc, 8, nil, nil, skies...).Points(), seq.BruteForce(all), "merge-all")
	}
}

func TestTallyCountsRegionTests(t *testing.T) {
	tal := &metrics.Tally{}
	rng := rand.New(rand.NewSource(23))
	enc := unitEnc(t, 5, 10)
	zsearch(enc, 8, randPts(rng, 500, 5, 0), tal)
	s := tal.Snapshot()
	if s.RegionTests == 0 || s.DominanceTests == 0 {
		t.Errorf("tally = %+v, want nonzero region and dominance tests", s)
	}
}

// Z-merge should do far fewer point dominance tests than recomputing
// the union skyline with SB when the sets are large and incomparable.
func TestMergeCheaperThanRecompute(t *testing.T) {
	enc := unitEnc(t, 2, 16)
	var a, b []point.Point
	for i := 0; i < 400; i++ {
		a = append(a, point.Point{float64(i) / 1000, float64(999-i) / 1000})
		b = append(b, point.Point{float64(500+i/2) / 1000, float64(400-i) / 1000})
	}
	talM := &metrics.Tally{}
	mergeOf(enc, 16, nil, talM, seq.BruteForce(a), seq.BruteForce(b))
	talS := &metrics.Tally{}
	seq.SB(append(append([]point.Point{}, a...), b...), talS)
	if talM.Snapshot().DominanceTests >= talS.Snapshot().DominanceTests {
		t.Errorf("Z-merge used %d point tests vs SB %d; expected fewer",
			talM.Snapshot().DominanceTests, talS.Snapshot().DominanceTests)
	}
}

func BenchmarkZSearch5k5d(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	enc := unitEnc(b, 5, 16)
	pts := randPts(rng, 5000, 5, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		zsearch(enc, 16, pts, nil)
	}
}

func BenchmarkMergeAnti(b *testing.B) {
	enc := unitEnc(b, 2, 16)
	var a2, b2 []point.Point
	for i := 0; i < 2000; i++ {
		a2 = append(a2, point.Point{float64(i) / 4000, float64(3999-i) / 4000})
		b2 = append(b2, point.Point{float64(2000+i) / 4000, float64(1999-i) / 4000})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mergeOf(enc, 16, nil, nil, a2, b2)
	}
}

func TestDominatorsOf(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for iter := 0; iter < 40; iter++ {
		d := 2 + rng.Intn(3)
		enc := unitEnc(t, d, 8)
		pts := randPts(rng, 200, d, 6)
		tr := treeOf(enc, 8, pts, nil)
		q := randPts(rng, 1, d, 6)[0]
		var want []point.Point
		for _, p := range pts {
			if point.Dominates(p, q) {
				want = append(want, p)
			}
		}
		sameSet(t, tr.DominatorsOf(enc.Grid(q), q), want, "dominators")
	}
}

func TestCountDominatedByMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for iter := 0; iter < 40; iter++ {
		d := 2 + rng.Intn(3)
		enc := unitEnc(t, d, 8)
		pts := randPts(rng, 200, d, 6)
		tr := treeOf(enc, 8, pts, nil)
		q := randPts(rng, 1, d, 6)[0]
		want := 0
		for _, p := range pts {
			if point.Dominates(q, p) {
				want++
			}
		}
		if got := tr.CountDominatedBy(enc.Grid(q), q); got != want {
			t.Fatalf("count = %d, want %d", got, want)
		}
	}
}

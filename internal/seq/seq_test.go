package seq

import (
	"fmt"
	"math/rand"
	"testing"

	"zskyline/internal/metrics"
	"zskyline/internal/point"
)

func randomPoints(r *rand.Rand, n, d int, domain int) []point.Point {
	pts := make([]point.Point, n)
	for i := range pts {
		p := make(point.Point, d)
		for k := range p {
			if domain > 0 {
				p[k] = float64(r.Intn(domain)) // integer grid: lots of ties
			} else {
				p[k] = r.Float64()
			}
		}
		pts[i] = p
	}
	return pts
}

func sameSkyline(t *testing.T, got, want []point.Point, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d points, want %d", label, len(got), len(want))
	}
	g := make([]point.Point, len(got))
	w := make([]point.Point, len(want))
	copy(g, got)
	copy(w, want)
	point.SortLexicographic(g)
	point.SortLexicographic(w)
	for i := range g {
		if !g[i].Equal(w[i]) {
			t.Fatalf("%s: skyline[%d] = %v, want %v", label, i, g[i], w[i])
		}
	}
}

func TestKnownSkyline2D(t *testing.T) {
	// The hotels example from the paper's Figure 1: distance vs rate.
	pts := []point.Point{
		{1, 9}, // p1: nearest, most expensive
		{2, 6},
		{4, 4},
		{6, 3},
		{7, 2},
		{8, 5}, // dominated by (7,2)? 7<8, 2<5 yes
		{9, 1},
	}
	want := []point.Point{{1, 9}, {2, 6}, {4, 4}, {6, 3}, {7, 2}, {9, 1}}
	sameSkyline(t, BruteForce(pts), want, "brute")
	sameSkyline(t, SB(pts, nil), want, "sb")
}

func TestEmptyAndSingleton(t *testing.T) {
	if got := SB(nil, nil); len(got) != 0 {
		t.Errorf("SB(nil) = %v", got)
	}
	one := []point.Point{{1, 2}}
	if got := SB(one, nil); len(got) != 1 {
		t.Errorf("SB singleton = %v", got)
	}
}

func TestAllIdenticalPoints(t *testing.T) {
	pts := []point.Point{{3, 3}, {3, 3}, {3, 3}}
	for _, algo := range []struct {
		name string
		f    func([]point.Point, *metrics.Tally) []point.Point
	}{{"sb", SB}, {"brute", func(p []point.Point, _ *metrics.Tally) []point.Point { return BruteForce(p) }}} {
		if got := algo.f(pts, nil); len(got) != 3 {
			t.Errorf("%s on identical points kept %d, want 3", algo.name, len(got))
		}
	}
}

func TestTotallyOrderedChain(t *testing.T) {
	// p_i = (i, i, i): only the first survives.
	var pts []point.Point
	for i := 10; i > 0; i-- {
		pts = append(pts, point.Point{float64(i), float64(i), float64(i)})
	}
	want := []point.Point{{1, 1, 1}}
	sameSkyline(t, SB(pts, nil), want, "sb")
}

func TestAntiChain(t *testing.T) {
	// Anti-correlated diagonal: every point is a skyline point.
	var pts []point.Point
	for i := 0; i < 20; i++ {
		pts = append(pts, point.Point{float64(i), float64(19 - i)})
	}
	if got := SB(pts, nil); len(got) != 20 {
		t.Errorf("SB kept %d, want 20", len(got))
	}
}

// Property: SB agrees with BruteForce on random inputs, across
// dimensionalities and tie-heavy integer domains.
func TestAlgorithmsAgreeWithOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 120; iter++ {
		d := 1 + rng.Intn(6)
		n := rng.Intn(120)
		domain := 0
		if iter%2 == 0 {
			domain = 2 + rng.Intn(6) // force ties and duplicates
		}
		pts := randomPoints(rng, n, d, domain)
		want := BruteForce(pts)
		sameSkyline(t, SB(pts, nil), want, "sb")
	}
}

// A dominator whose coordinate sum rounds to its victim's must still
// be processed first: 1e300+0.4 and 1e300+0.5 are the same float.
func TestSBSumTiesUnderRounding(t *testing.T) {
	for _, pts := range [][]point.Point{
		{{1e300, 0.5}, {1e300, 0.4}},
		{{1e300, 0.4}, {1e300, 0.5}},
		{{0.5, 1e300, -1e300}, {0.4, 1e300, -1e300}, {0.5, 1e300, -1e300}},
	} {
		sameSkyline(t, SB(pts, nil), BruteForce(pts), fmt.Sprint(pts))
	}
}

func TestInputNotMutated(t *testing.T) {
	pts := []point.Point{{5, 5}, {1, 1}, {3, 3}}
	orig := make([]point.Point, len(pts))
	for i, p := range pts {
		orig[i] = p.Clone()
	}
	SB(pts, nil)
	for i := range pts {
		if !pts[i].Equal(orig[i]) {
			t.Fatalf("input mutated at %d: %v", i, pts[i])
		}
	}
	// Order must also be preserved for SB (it copies before sorting).
	if !pts[0].Equal(point.Point{5, 5}) {
		t.Error("SB reordered its input")
	}
}

func TestFilter(t *testing.T) {
	cands := []point.Point{{1, 5}, {4, 4}, {6, 6}}
	against := []point.Point{{5, 5}, {2, 9}}
	got := Filter(cands, against, nil)
	// (6,6) dominated by (5,5); others survive.
	sameSkyline(t, got, []point.Point{{1, 5}, {4, 4}}, "filter")
	if got := Filter(nil, against, nil); len(got) != 0 {
		t.Errorf("Filter(nil) = %v", got)
	}
	if got := Filter(cands, nil, nil); len(got) != 3 {
		t.Errorf("Filter against nothing dropped points: %v", got)
	}
}

func TestTallyCounts(t *testing.T) {
	pts := randomPoints(rand.New(rand.NewSource(3)), 200, 3, 0)
	tal := &metrics.Tally{}
	SB(pts, tal)
	tests := tal.Snapshot().DominanceTests
	if tests == 0 {
		t.Error("SB recorded no dominance tests")
	}
	// The window is append-only and a row stops at its first
	// dominator, so no pair is tested twice.
	if max := int64(len(pts) * (len(pts) - 1) / 2); tests > max {
		t.Errorf("SB used %d tests, more than the %d pairs", tests, max)
	}
}

func BenchmarkSB1k5d(b *testing.B) {
	pts := randomPoints(rand.New(rand.NewSource(1)), 1000, 5, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SB(pts, nil)
	}
}

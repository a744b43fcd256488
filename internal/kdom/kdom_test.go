// Package kdom_test holds the property tests of k-dominant skylines
// (Chan et al., SIGMOD 2006) as the facade exposes them:
// zskyline.KDominates and zskyline.KDominantSkyline, both backed by
// the k-dominance provider of package dominance. The directory has no
// non-test code.
package kdom_test

import (
	"math/rand"
	"testing"

	"zskyline"
	"zskyline/internal/gen"
	"zskyline/internal/point"
	"zskyline/internal/seq"
)

// bruteForce is the quadratic oracle: keep p iff no other point
// k-dominates it.
func bruteForce(pts []point.Point, k int) []point.Point {
	var out []point.Point
	for i, p := range pts {
		kept := true
		for j, q := range pts {
			if i != j && zskyline.KDominates(q, p, k) {
				kept = false
				break
			}
		}
		if kept {
			out = append(out, p)
		}
	}
	return out
}

func TestKDominatesBasics(t *testing.T) {
	cases := []struct {
		p, q point.Point
		k    int
		want bool
	}{
		{point.Point{1, 1, 9}, point.Point{2, 2, 0}, 2, true},  // better on 2 of 3
		{point.Point{1, 1, 9}, point.Point{2, 2, 0}, 3, false}, // worse on dim 3
		{point.Point{1, 1, 1}, point.Point{2, 2, 2}, 3, true},  // full dominance
		{point.Point{1, 1}, point.Point{1, 1}, 2, false},       // equal never dominates
		{point.Point{1, 2}, point.Point{1, 2}, 1, false},       // equal, any k
		{point.Point{0, 9}, point.Point{1, 0}, 1, true},        // 1-dominance is very easy
		{point.Point{1}, point.Point{1, 2}, 1, false},          // dim mismatch
		{point.Point{1, 1}, point.Point{2, 2}, 0, false},       // invalid k
		{point.Point{1, 1}, point.Point{2, 2}, 3, false},       // k > d
	}
	for _, c := range cases {
		if got := zskyline.KDominates(c.p, c.q, c.k); got != c.want {
			t.Errorf("KDominates(%v, %v, %d) = %v, want %v", c.p, c.q, c.k, got, c.want)
		}
	}
}

func TestSkylineValidation(t *testing.T) {
	pts := []point.Point{{1, 2}}
	if _, err := zskyline.KDominantSkyline(pts, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := zskyline.KDominantSkyline(pts, 3); err == nil {
		t.Error("k>d accepted")
	}
	got, err := zskyline.KDominantSkyline(nil, 1)
	if err != nil || got != nil {
		t.Errorf("empty input: %v %v", got, err)
	}
}

// Property: the two-scan skyline equals the brute-force k-dominant
// skyline.
func TestTwoScanMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 80; iter++ {
		d := 2 + rng.Intn(5)
		k := 1 + rng.Intn(d)
		n := rng.Intn(250)
		pts := make([]point.Point, n)
		for i := range pts {
			p := make(point.Point, d)
			for j := range p {
				if iter%2 == 0 {
					p[j] = float64(rng.Intn(5))
				} else {
					p[j] = rng.Float64()
				}
			}
			pts[i] = p
		}
		want := bruteForce(pts, k)
		got, err := zskyline.KDominantSkyline(pts, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("d=%d k=%d n=%d: got %d, want %d", d, k, n, len(got), len(want))
		}
		g := append([]point.Point(nil), got...)
		w := append([]point.Point(nil), want...)
		point.SortLexicographic(g)
		point.SortLexicographic(w)
		for i := range g {
			if !g[i].Equal(w[i]) {
				t.Fatalf("mismatch at %d", i)
			}
		}
	}
}

// Property: k=d reproduces the classic skyline; the k-dominant skyline
// is a subset of the classic one and shrinks (weakly) as k decreases.
func TestContainmentHierarchy(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 800, 5, 11)
	classic := seq.BruteForce(ds.Points)
	full, err := zskyline.KDominantSkyline(ds.Points, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != len(classic) {
		t.Fatalf("k=d gave %d, classic %d", len(full), len(classic))
	}
	prev := len(full)
	for k := 4; k >= 2; k-- {
		sub, err := zskyline.KDominantSkyline(ds.Points, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(sub) > prev {
			t.Fatalf("k=%d grew the result: %d > %d", k, len(sub), prev)
		}
		// Subset of classic skyline.
		inClassic := map[string]int{}
		for _, p := range classic {
			inClassic[p.String()]++
		}
		for _, p := range sub {
			if inClassic[p.String()] == 0 {
				t.Fatalf("k=%d point %v not in classic skyline", k, p)
			}
			inClassic[p.String()]--
		}
		prev = len(sub)
	}
}

// The headline behaviour: in high dimensions the k-dominant skyline is
// much smaller than the full skyline.
func TestShrinksHighDimensionalSkylines(t *testing.T) {
	ds := gen.Synthetic(gen.AntiCorrelated, 1000, 8, 13)
	full, _ := zskyline.KDominantSkyline(ds.Points, 8)
	reduced, _ := zskyline.KDominantSkyline(ds.Points, 6)
	if len(reduced) >= len(full)/2 {
		t.Errorf("6-dominant skyline %d not much smaller than full %d", len(reduced), len(full))
	}
}

func TestDuplicatesSurvive(t *testing.T) {
	pts := []point.Point{{1, 1}, {1, 1}, {5, 5}}
	got, err := zskyline.KDominantSkyline(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("duplicates: got %d, want 2 copies of (1,1)", len(got))
	}
}

package zbtree

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"zskyline/internal/point"
	"zskyline/internal/seq"
)

func TestSkylineProgressiveMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for iter := 0; iter < 40; iter++ {
		d := 2 + rng.Intn(4)
		enc := unitEnc(t, d, 6) // coarse grid: force same-address ties
		pts := randPts(rng, 250, d, 5)
		tr := treeOf(enc, 8, pts, nil)
		var got []point.Point
		for p := range tr.SkylineProgressive(context.Background()) {
			got = append(got, p)
		}
		sameSet(t, got, seq.BruteForce(pts), "progressive")
	}
}

func TestSkylineProgressiveCancellation(t *testing.T) {
	enc := unitEnc(t, 2, 16)
	// Anti-chain: everything is skyline, so the stream is long.
	var pts []point.Point
	for i := 0; i < 5000; i++ {
		pts = append(pts, point.Point{float64(i) / 5000, float64(4999-i) / 5000})
	}
	tr := treeOf(enc, 8, pts, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch := tr.SkylineProgressive(ctx)
	got := 0
	for range ch {
		got++
		if got == 10 {
			cancel()
			break
		}
	}
	// Channel must close promptly after cancellation.
	deadline := time.After(2 * time.Second)
	for {
		select {
		case _, open := <-ch:
			if !open {
				return
			}
		case <-deadline:
			t.Fatal("progressive stream did not close after cancel")
		}
	}
}

func TestSkylineProgressiveEmpty(t *testing.T) {
	enc := unitEnc(t, 2, 8)
	tr := treeOf(enc, 4, nil, nil)
	count := 0
	for range tr.SkylineProgressive(context.Background()) {
		count++
	}
	if count != 0 {
		t.Errorf("empty tree streamed %d points", count)
	}
}

func TestRangeQueryMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for iter := 0; iter < 40; iter++ {
		d := 2 + rng.Intn(3)
		enc := unitEnc(t, d, 8)
		pts := randPts(rng, 300, d, 10)
		tr := treeOf(enc, 8, pts, nil)
		lo := make(point.Point, d)
		hi := make(point.Point, d)
		for k := 0; k < d; k++ {
			a, b := rng.Float64(), rng.Float64()
			if a > b {
				a, b = b, a
			}
			lo[k], hi[k] = a, b
		}
		var want []point.Point
		for _, p := range pts {
			if inBox(p, lo, hi) {
				want = append(want, p)
			}
		}
		sameSet(t, tr.RangeQuery(lo, hi), want, "range")
	}
}

func TestSkylineWithinMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for iter := 0; iter < 30; iter++ {
		d := 2 + rng.Intn(3)
		enc := unitEnc(t, d, 8)
		pts := randPts(rng, 300, d, 0)
		tr := treeOf(enc, 8, pts, nil)
		lo := make(point.Point, d)
		hi := make(point.Point, d)
		for k := 0; k < d; k++ {
			lo[k], hi[k] = 0.2, 0.9
		}
		var inside []point.Point
		for _, p := range pts {
			if inBox(p, lo, hi) {
				inside = append(inside, p)
			}
		}
		sameSet(t, tr.SkylineWithin(lo, hi), seq.BruteForce(inside), "constrained")
	}
}

// A point dominated globally can re-enter the constrained skyline when
// its dominator is outside the box.
func TestConstrainedResurrection(t *testing.T) {
	enc := unitEnc(t, 2, 10)
	pts := []point.Point{{0.05, 0.05}, {0.5, 0.5}}
	tr := treeOf(enc, 4, pts, nil)
	if n := len(tr.Skyline()); n != 1 {
		t.Fatalf("global skyline = %d", n)
	}
	got := tr.SkylineWithin(point.Point{0.3, 0.3}, point.Point{1, 1})
	if len(got) != 1 || !got[0].Equal(point.Point{0.5, 0.5}) {
		t.Fatalf("constrained skyline = %v", got)
	}
}

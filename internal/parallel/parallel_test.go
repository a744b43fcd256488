package parallel

import (
	"context"
	"testing"

	"zskyline/internal/gen"
	"zskyline/internal/metrics"
	"zskyline/internal/point"
	"zskyline/internal/seq"
)

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

func TestExactAcrossDistributionsAndWorkers(t *testing.T) {
	for _, dist := range []gen.Distribution{gen.Independent, gen.Correlated, gen.AntiCorrelated} {
		ds := gen.Synthetic(dist, 4000, 4, 13)
		want := seq.SB(ds.Points, nil)
		for _, workers := range []int{1, 2, 3, 7, 16} {
			got, err := Skyline(context.Background(), ds, Options{Workers: workers})
			if err != nil {
				t.Fatalf("%v/%d: %v", dist, workers, err)
			}
			sameSet(t, got, want, dist.String())
		}
	}
}

func TestEdgeCases(t *testing.T) {
	if got, err := Skyline(context.Background(), nil, Options{}); err != nil || got != nil {
		t.Errorf("nil dataset: %v %v", got, err)
	}
	ds := point.MustDataset(2, []point.Point{{1, 2}})
	got, err := Skyline(context.Background(), ds, Options{Workers: 64}) // more workers than points
	if err != nil || len(got) != 1 {
		t.Errorf("singleton: %v %v", got, err)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ds := gen.Synthetic(gen.AntiCorrelated, 4000, 4, 13)
	if _, err := Skyline(ctx, ds, Options{Workers: 4}); err == nil {
		t.Error("cancelled context accepted")
	}
}

func TestHighDimensional(t *testing.T) {
	ds := gen.NUSWideLike(400, 3)
	got, err := Skyline(context.Background(), ds, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, seq.BruteForce(ds.Points), "225d")
}

func TestTallyPlumbed(t *testing.T) {
	tal := &metrics.Tally{}
	ds := gen.Synthetic(gen.AntiCorrelated, 2000, 3, 7)
	if _, err := Skyline(context.Background(), ds, Options{Workers: 4, Tally: tal}); err != nil {
		t.Fatal(err)
	}
	if tal.Snapshot().DominanceTests == 0 {
		t.Error("no work recorded")
	}
}

func BenchmarkParallel100k5d(b *testing.B) {
	ds := gen.Synthetic(gen.Independent, 100000, 5, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Skyline(context.Background(), ds, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSequential100k5d(b *testing.B) {
	ds := gen.Synthetic(gen.Independent, 100000, 5, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Skyline(context.Background(), ds, Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

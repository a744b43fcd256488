package seq

import (
	"math/rand"
	"testing"
	"testing/quick"

	"zskyline/internal/metrics"
	"zskyline/internal/point"
)

func genTestBlock(rng *rand.Rand, kind string, n, d int) point.Block {
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
		default:
			for k := range row {
				// Coarse values manufacture sum ties and duplicates.
				if rng.Intn(3) == 0 {
					row[k] = float64(rng.Intn(4)) / 4
				} else {
					row[k] = rng.Float64()
				}
			}
		}
	}
	return bb.Build()
}

func sortedCopy(pts []point.Point) []point.Point {
	out := append([]point.Point(nil), pts...)
	point.SortLexicographic(out)
	return out
}

func assertSameSet(t *testing.T, label string, got, want []point.Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, want %d", label, len(got), len(want))
	}
	g, w := sortedCopy(got), sortedCopy(want)
	for i := range g {
		if !g[i].Equal(w[i]) {
			t.Fatalf("%s: point %d = %v, want %v", label, i, g[i], w[i])
		}
	}
}

// The SB adapters (slice, block, rows) must return point-for-point
// identical results to each other and agree with the brute-force
// oracle, across correlation profiles and 2–10 dims.
func TestBlockKernelsMatchSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, kind := range []string{"correlated", "independent", "anti"} {
		for _, d := range []int{2, 4, 6, 10} {
			b := genTestBlock(rng, kind, 350, d)
			pts := b.Points()
			oracle := BruteForce(pts)

			sbSlice := SB(pts, nil)
			sbBlock := SBBlock(b, nil)
			assertSameSet(t, kind+"/SB-oracle", sbSlice, oracle)
			assertSameSet(t, kind+"/SBBlock", sbBlock.Points(), sbSlice)
			// SB's output order is deterministic (stable sum sort):
			// block and slice must agree row for row, not just as sets.
			for i, p := range sbSlice {
				if !sbBlock.Row(i).Equal(p) {
					t.Fatalf("%s d=%d: SBBlock row %d = %v, slice %v", kind, d, i, sbBlock.Row(i), p)
				}
			}

			// A non-nil row test runs the same loop: with Pareto's own
			// row form it must pick the same rows in the same order.
			rows := SBRows(b, nil, nil)
			viaDom := SBRows(b, point.DominatesRows, nil)
			if len(rows) != len(viaDom) {
				t.Fatalf("%s d=%d: SBRows kept %d rows, %d through dom", kind, d, len(rows), len(viaDom))
			}
			for i := range rows {
				if rows[i] != viaDom[i] || !b.Row(int(rows[i])).Equal(sbSlice[i]) {
					t.Fatalf("%s d=%d: SBRows row %d = %d (dom %d), slice %v", kind, d, i, rows[i], viaDom[i], sbSlice[i])
				}
			}
		}
	}
}

// Tally accounting must be identical across the adapters and the row
// test: they run the same comparisons in the same order.
func TestBlockKernelsSameTally(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	b := genTestBlock(rng, "independent", 500, 5)
	pts := b.Points()
	var ts, tb metrics.Tally
	SB(pts, &ts)
	SBBlock(b, &tb)
	if got, want := tb.Snapshot().DominanceTests, ts.Snapshot().DominanceTests; got != want {
		t.Fatalf("SBBlock tests %d, SB %d", got, want)
	}
	var td metrics.Tally
	SBRows(b, point.DominatesRows, &td)
	if got, want := td.Snapshot().DominanceTests, ts.Snapshot().DominanceTests; got != want {
		t.Fatalf("SBRows through dom tests %d, SB %d", got, want)
	}
}

// Quick property: for arbitrary seeds, SBBlock == SBRows through a row
// test == oracle.
func TestQuickBlockKernels(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + rng.Intn(9)
		n := rng.Intn(300)
		b := genTestBlock(rng, []string{"correlated", "independent", "anti"}[rng.Intn(3)], n, d)
		oracle := BruteForce(b.Points())
		sb := SBBlock(b, nil)
		dom := compactRows(b, SBRows(b, point.DominatesRows, nil))
		if sb.Len() != len(oracle) || dom.Len() != len(oracle) {
			return false
		}
		o := sortedCopy(oracle)
		s := sortedCopy(sb.Points())
		n2 := sortedCopy(dom.Points())
		for i := range o {
			if !s[i].Equal(o[i]) || !n2[i].Equal(o[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Empty and degenerate inputs.
func TestBlockKernelsDegenerate(t *testing.T) {
	empty := point.Block{Dims: 3}
	if got := SBBlock(empty, nil); got.Len() != 0 || got.Dims != 3 {
		t.Fatalf("SBBlock(empty) = %v", got)
	}
	if got := SBRows(empty, nil, nil); len(got) != 0 {
		t.Fatalf("SBRows(empty) = %v", got)
	}
	// All-duplicate rows: equal points never dominate each other.
	one := point.BlockOf(2, []point.Point{{1, 2}, {1, 2}, {1, 2}})
	if got := SBBlock(one, nil); got.Len() != 3 {
		t.Fatalf("SBBlock(dups) kept %d rows, want 3", got.Len())
	}
}

package zbtree

import (
	"context"
	"math/rand"
	"testing"

	"zskyline/internal/dominance"
	"zskyline/internal/point"
	"zskyline/internal/zorder"
)

// underProviders builds one provider of each kind for d-dimensional
// unit-cube data.
func underProviders(t testing.TB, d int) []dominance.Provider {
	t.Helper()
	w1 := make([]float64, d)
	w2 := make([]float64, d)
	for i := range w1 {
		w1[i] = 1
		w2[i] = 1
	}
	w2[0] = 3
	flex, err := dominance.NewFlex([][]float64{w1, w2})
	if err != nil {
		t.Fatal(err)
	}
	k := d - 1
	if k < 1 {
		k = 1
	}
	kdom, err := dominance.NewKDom(k)
	if err != nil {
		t.Fatal(err)
	}
	robust, err := dominance.NewRobust(0.1)
	if err != nil {
		t.Fatal(err)
	}
	return []dominance.Provider{dominance.Pareto{}, flex, kdom, robust}
}

// closeAgainst drops the candidates some point of all dominates under
// prov — the pipeline's closing verification for non-transitive
// relations (irreflexivity exempts a candidate's own copies).
func closeAgainst(prov dominance.Provider, cands, all []point.Point) []point.Point {
	var out []point.Point
	for _, c := range cands {
		ok := true
		for _, q := range all {
			if prov.Dominates(q, c) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, c)
		}
	}
	return out
}

// TestSkylineUnderMatchesOracle pins the capability-gated Z-search and
// its progressive form to the per-provider brute-force oracle,
// duplicates included.
func TestSkylineUnderMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, d := range []int{2, 4} {
		enc := unitEnc(t, d, 6)
		for _, n := range []int{0, 1, 30, 400} {
			pts := randPts(r, n, d, 8)
			for i := 0; i < n/10; i++ {
				pts = append(pts, pts[r.Intn(n)].Clone())
			}
			for _, prov := range underProviders(t, d) {
				tr := treeOf(enc, 4, pts, prov)
				want := dominance.BruteForce(prov, pts)
				sameSet(t, tr.Skyline(), want, prov.Name())
				var streamed []point.Point
				for p := range tr.SkylineProgressive(context.Background()) {
					streamed = append(streamed, p)
				}
				sameSet(t, streamed, want, prov.Name()+"/progressive")
			}
		}
	}
}

// TestSkylineUnderParetoFastPath checks that a nil relation and
// Pareto{} both select the direct point.Dominates leaf test and agree
// with the oracle.
func TestSkylineUnderParetoFastPath(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	enc := unitEnc(t, 3, 6)
	pts := randPts(r, 200, 3, 16)
	want := dominance.BruteForce(dominance.Pareto{}, pts)
	for _, prov := range []dominance.Provider{nil, dominance.Pareto{}} {
		tr := treeOf(enc, 4, pts, prov)
		if !tr.pareto || tr.caps != (dominance.Caps{ParetoImplies: true, ImpliesPareto: true, Transitive: true}) {
			t.Fatalf("%v: pareto=%v caps=%+v, want the fast path with every capability", prov, tr.pareto, tr.caps)
		}
		sameSet(t, tr.Skyline(), want, "fast path")
	}
}

// TestMergeUnderMatchesOracle merges two local provider skylines and
// compares against the oracle of the full dataset. Transitive
// providers must be exact directly; the non-transitive provider's
// merge output is a candidate superset that must become exact after
// the closing verification against the full dataset.
func TestMergeUnderMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	const d = 3
	enc := unitEnc(t, d, 6)
	pts := randPts(r, 300, d, 8)
	half := len(pts) / 2
	for _, prov := range underProviders(t, d) {
		left := treeOf(enc, 4, pts[:half], prov).Skyline()
		right := treeOf(enc, 4, pts[half:], prov).Skyline()
		merged := mergeOf(enc, 4, prov, nil, left, right).Points()
		want := dominance.BruteForce(prov, pts)
		if prov.Caps().Transitive {
			sameSet(t, merged, want, prov.Name())
			continue
		}
		sameSet(t, closeAgainst(prov, merged, pts), want, prov.Name()+" after verify")
	}
}

// TestZSearchGroupUnderReusesColumn pins the encode-once path to the
// self-encoding one and to the oracle under every provider, and checks
// the survivor column carries each survivor's own address.
func TestZSearchGroupUnderReusesColumn(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	const d = 4
	enc := unitEnc(t, d, 6)
	pts := randPts(r, 250, d, 8)
	b := point.BlockOf(d, pts)
	zc := enc.EncodeBlock(zorder.ZCol{}, b)
	for _, prov := range underProviders(t, d) {
		fresh, _ := ZSearchGroup(prov, enc, 4, b, zorder.ZCol{}, nil)
		reused, reusedZ := ZSearchGroup(prov, enc, 4, b, zc, nil)
		want := dominance.BruteForce(prov, pts)
		sameSet(t, fresh.Points(), want, prov.Name())
		sameSet(t, reused.Points(), want, prov.Name()+"/encode-once")
		for i := 0; i < reused.Len(); i++ {
			if !zorder.Equal(reusedZ.At(i), enc.Encode(reused.Row(i))) {
				t.Fatalf("%s: survivor %d carries wrong z-address", prov.Name(), i)
			}
		}
	}
}

// TestQueriesUnderMatchScan pins the capability-gated probe, removal,
// count and dominator walks to linear scans under every provider.
func TestQueriesUnderMatchScan(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	const d = 3
	enc := unitEnc(t, d, 6)
	pts := randPts(r, 200, d, 6)
	for _, prov := range underProviders(t, d) {
		for probe := 0; probe < 25; probe++ {
			q := randPts(r, 1, d, 6)[0]
			g := enc.Grid(q)
			var dominators, survivors []point.Point
			dominated := 0
			for _, p := range pts {
				if prov.Dominates(p, q) {
					dominators = append(dominators, p)
				}
				if prov.Dominates(q, p) {
					dominated++
				} else {
					survivors = append(survivors, p)
				}
			}
			tr := treeOf(enc, 4, pts, prov)
			if got := tr.DominatesPoint(g, q); got != (len(dominators) > 0) {
				t.Fatalf("%s: DominatesPoint(%v) = %v", prov.Name(), q, got)
			}
			sameSet(t, tr.DominatorsOf(g, q), dominators, prov.Name()+"/dominators")
			if got := tr.CountDominatedBy(g, q); got != dominated {
				t.Fatalf("%s: CountDominatedBy(%v) = %d, want %d", prov.Name(), q, got, dominated)
			}
			if got := tr.RemoveDominatedBy(g, q); got != dominated {
				t.Fatalf("%s: RemoveDominatedBy(%v) = %d, want %d", prov.Name(), q, got, dominated)
			}
			sameSet(t, tr.Points(), survivors, prov.Name()+"/survivors")
		}
	}
}

package dominance_test

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"zskyline/internal/dominance"
	"zskyline/internal/point"
	"zskyline/internal/seq"
	"zskyline/internal/zbtree"
	"zskyline/internal/zorder"
)

// fuzzDims are the widths a case can take: every width up to 16, then
// one past the first and second 64-bit address word at 12 and 8 bits.
var fuzzDims = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 33, 65}

// bytesIn hands out the fuzz input byte by byte, then zeros.
type bytesIn struct{ b []byte }

func (in *bytesIn) next() byte {
	if len(in.b) == 0 {
		return 0
	}
	c := in.b[0]
	in.b = in.b[1:]
	return c
}

// fuzzCase decodes a dataset and a relation from data. Each value is
// drawn from a class: ±0, ±1e300, exactly 0 or 1 (data clamped to the
// unit box), a copy of the row above (duplicates), or a coarse value
// in [0,1] that makes sum ties likely. One dimension can be pinned
// constant.
func fuzzCase(t *testing.T, data []byte) ([]point.Point, dominance.Provider) {
	in := &bytesIn{b: data}
	d := fuzzDims[int(in.next())%len(fuzzDims)]
	n := int(in.next()) % 201
	kind := in.next()
	constDim := int(in.next())
	var desc dominance.Descriptor
	switch kind % 4 {
	case 1:
		w1, w2 := make([]float64, d), make([]float64, d)
		for k := range w1 {
			w1[k] = 1
			w2[k] = float64(in.next() % 4)
		}
		w2[0]++ // never all-zero
		desc = dominance.Descriptor{Kind: dominance.KindFlex, Weights: [][]float64{w1, w2}}
	case 2:
		desc = dominance.Descriptor{Kind: dominance.KindKDom, K: 1 + int(in.next())%d}
	case 3:
		desc = dominance.Descriptor{Kind: dominance.KindRobust, Rho: float64(in.next()%8) / 16}
	}
	prov, err := desc.Provider()
	if err != nil {
		t.Fatalf("%v: %v", desc, err)
	}
	pts := make([]point.Point, n)
	for i := range pts {
		p := make(point.Point, d)
		for k := range p {
			c := in.next()
			switch c % 10 {
			case 0, 4:
				p[k] = 0
			case 1:
				p[k] = math.Copysign(0, -1)
			case 2:
				p[k] = 1e300
			case 3:
				p[k] = -1e300
			case 5:
				p[k] = 1
			case 6:
				if i > 0 {
					p[k] = pts[i-1][k]
				}
			default:
				p[k] = float64(c/10) / 25
			}
		}
		if constDim < d {
			p[constDim] = 0.5
		}
		pts[i] = p
	}
	return pts, prov
}

// exactKeys renders points bit for bit (so -0 and +0 differ) and sorts
// them: two results are the same multiset iff their keys are equal.
func exactKeys(pts []point.Point) []string {
	keys := make([]string, len(pts))
	for i, p := range pts {
		b := make([]byte, 0, 8*len(p))
		for _, v := range p {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		keys[i] = string(b)
	}
	sort.Strings(keys)
	return keys
}

func sameMultiset(t *testing.T, label string, got, want []point.Point) {
	t.Helper()
	g, w := exactKeys(got), exactKeys(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d points, want %d", label, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: results differ at sorted position %d", label, i)
		}
	}
}

// FuzzSkylineKernels is the differential check of every local skyline
// kernel against the quadratic oracle, as multisets: the SB/eviction
// kernel (dominance.SkylineBlock), the filter closing a candidate set
// against the whole input (FilterBlock), the Pareto sort-by-sum rows
// (seq.SBRows) and Z-search (zbtree.ZSearchGroup), under the relation
// the input selects.
func FuzzSkylineKernels(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 40, 0, 255, 7, 17, 27, 37, 47, 57, 67, 77})
	f.Add([]byte{16, 120, 2, 3, 5})
	f.Add([]byte{17, 30, 3, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		pts, prov := fuzzCase(t, data)
		want := dominance.BruteForce(prov, pts)
		label := prov.Descriptor().String()
		d := 1
		if len(pts) > 0 {
			d = len(pts[0])
		}
		b := point.BlockOf(d, pts)

		sameMultiset(t, label+"/SkylineBlock", dominance.SkylineBlock(prov, b, nil).Points(), want)
		sameMultiset(t, label+"/FilterBlock", dominance.FilterBlock(prov, b, b, nil).Points(), want)
		if dominance.IsPareto(prov) {
			var rows []point.Point
			for _, r := range seq.SBRows(b, nil, nil) {
				rows = append(rows, pts[r])
			}
			sameMultiset(t, label+"/seq.SBRows", rows, want)
		}
		if len(pts) == 0 {
			return
		}
		bits := 16
		switch {
		case d > 64:
			bits = 8
		case d > 16:
			bits = 12
		}
		mins, maxs := b.UpdateBounds(nil, nil)
		enc, err := zorder.NewEncoder(d, bits, mins, maxs)
		if err != nil {
			t.Fatal(err)
		}
		zs, _ := zbtree.ZSearchGroup(prov, enc, 4, b, zorder.ZCol{}, nil)
		sameMultiset(t, label+"/ZSearchGroup", zs.Points(), want)
	})
}

package main

import (
	"math/rand"

	"zskyline/internal/point"
	"zskyline/internal/seq"
)

// The benchmark draws its inputs with its own generator, seeded by
// --seed, so the program under test receives only generated points and
// a change to the repository's generators cannot change the inputs.

type distribution int

const (
	independent distribution = iota
	anticorrelated
)

// genBlock draws n d-dimensional points in [0,1]^d.
//   - independent: every coordinate uniform.
//   - anticorrelated: points near the hyperplane sum(x) = d*c, with c
//     drawn around 0.5 and a zero-sum perturbation, so being good in
//     one dimension costs in the others (large skylines).
func genBlock(r *rand.Rand, dist distribution, n, d int) point.Block {
	bb := point.NewBlockBuilder(d, n)
	e := make([]float64, d)
	for i := 0; i < n; i++ {
		p := bb.Extend()
		switch dist {
		case independent:
			for k := range p {
				p[k] = r.Float64()
			}
		case anticorrelated:
			c := clamp01(0.5 + r.NormFloat64()*0.08)
			mean := 0.0
			for k := range e {
				e[k] = r.Float64()
				mean += e[k]
			}
			mean /= float64(d)
			for k := range p {
				p[k] = clamp01(c + (e[k]-mean)*0.9)
			}
		}
	}
	return bb.Build()
}

func clamp01(v float64) float64 {
	switch {
	case v < 0:
		return 0
	case v > 1:
		return 1
	}
	return v
}

func unitBox(d int) (mins, maxs []float64) {
	mins = make([]float64, d)
	maxs = make([]float64, d)
	for k := range maxs {
		maxs[k] = 1
	}
	return mins, maxs
}

// extendSkyline returns the skyline of A ∪ add given sky = skyline(A):
// the old members no new point dominates, plus the new skyline points
// no old member dominates. Both halves are seq kernels, so the oracle
// stays seq.SB over every row inserted so far without re-sorting them.
func extendSkyline(sky, add []point.Point) []point.Point {
	addSky := seq.SB(add, nil)
	kept := seq.Filter(sky, addSky, nil)
	return append(kept, seq.Filter(addSky, sky, nil)...)
}

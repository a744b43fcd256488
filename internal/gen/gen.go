// Package gen produces the datasets of the paper's evaluation (§6.1):
// the standard Börzsönyi synthetic distributions (independent,
// correlated, anti-correlated) plus deterministic simulators for the
// real-world datasets the paper uses but that we cannot ship (NBA,
// HOU, NUS-WIDE, Flickr GIST, DBpedia LDA). Every generator is pure:
// the same seed always yields the same dataset. All coordinates lie in
// [0,1] with smaller-is-better semantics.
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"zskyline/internal/point"
)

// Distribution selects one of the standard synthetic workloads.
type Distribution int

// The three synthetic distributions used throughout the paper.
const (
	Independent Distribution = iota
	Correlated
	AntiCorrelated
)

// String names the distribution the way the paper does.
func (d Distribution) String() string {
	switch d {
	case Independent:
		return "independent"
	case Correlated:
		return "correlated"
	case AntiCorrelated:
		return "anti-correlated"
	default:
		return fmt.Sprintf("Distribution(%d)", int(d))
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Synthetic generates n d-dimensional points with the given
// distribution. Correlated points hug the main diagonal (tiny
// skylines); anti-correlated points hug the hyperplane sum(x)=d/2
// (huge skylines); independent points are uniform. All n points share
// one contiguous backing array (the dataset's points are block rows).
func Synthetic(dist Distribution, n, d int, seed int64) *point.Dataset {
	r := rand.New(rand.NewSource(seed))
	bb := point.NewBlockBuilder(d, n)
	for i := 0; i < n; i++ {
		synthInto(r, dist, bb.Extend())
	}
	return point.MustDataset(d, bb.Build().Points())
}

// synthInto fills one pre-allocated d-wide row. It consumes r exactly
// as the historical per-point generator did, so seeds keep producing
// the same datasets.
func synthInto(r *rand.Rand, dist Distribution, p point.Point) {
	switch dist {
	case Independent:
		for k := range p {
			p[k] = r.Float64()
		}
	case Correlated:
		// One latent quality value, small independent jitter: points
		// concentrate along the diagonal.
		v := r.Float64()
		for k := range p {
			p[k] = clamp01(v + r.NormFloat64()*0.05)
		}
	case AntiCorrelated:
		// Points near the hyperplane sum(x) = d * c with a zero-sum
		// perturbation: being good in one dimension costs in others.
		c := clamp01(0.5 + r.NormFloat64()*0.08)
		e := make([]float64, len(p))
		mean := 0.0
		for k := range e {
			e[k] = r.Float64()
			mean += e[k]
		}
		mean /= float64(len(p))
		for k := range p {
			p[k] = clamp01(c + (e[k]-mean)*0.9)
		}
	default:
		panic(fmt.Sprintf("gen: unknown distribution %d", dist))
	}
}

// NBALike simulates the paper's NBA dataset: n player seasons with 7
// per-game statistics (scoring, rebounds, assists, steals, blocks,
// shooting, minutes), anti-correlated through role archetypes — a
// player excelling at scoring rarely also leads rebounds. Values are
// mapped so that smaller is better (rank-like), as the paper's skyline
// convention requires. The paper uses n = 350.
func NBALike(n int, seed int64) *point.Dataset {
	const d = 7
	// Archetypes: how strongly each role produces each stat.
	archetypes := [][d]float64{
		{0.9, 0.3, 0.5, 0.4, 0.1, 0.7, 0.8}, // scoring guard
		{0.4, 0.9, 0.2, 0.2, 0.7, 0.6, 0.7}, // big man
		{0.5, 0.4, 0.9, 0.7, 0.1, 0.5, 0.8}, // playmaker
		{0.3, 0.5, 0.3, 0.8, 0.5, 0.4, 0.6}, // defensive specialist
		{0.6, 0.6, 0.5, 0.5, 0.4, 0.6, 0.9}, // all-rounder
	}
	r := rand.New(rand.NewSource(seed))
	pts := make([]point.Point, n)
	for i := range pts {
		a := archetypes[r.Intn(len(archetypes))]
		talent := 0.2 + 0.8*r.Float64()
		p := make(point.Point, d)
		for k := 0; k < d; k++ {
			produced := clamp01(talent*a[k] + r.NormFloat64()*0.08)
			p[k] = 1 - produced // smaller is better
		}
		pts[i] = p
	}
	return point.MustDataset(d, pts)
}

// HOULike simulates the paper's HOU dataset: n households, each a
// 6-way percentage split of annual expenses (electricity, gas, water,
// heating, food, other). Dirichlet shares sum to one and the marginals
// behave near-independently. The paper uses n = 1000.
func HOULike(n int, seed int64) *point.Dataset {
	const d = 6
	r := rand.New(rand.NewSource(seed))
	pts := make([]point.Point, n)
	for i := range pts {
		pts[i] = dirichlet(r, d, 2.0)
	}
	return point.MustDataset(d, pts)
}

// dirichlet samples a symmetric Dirichlet(alpha) vector via gamma
// normalization.
func dirichlet(r *rand.Rand, d int, alpha float64) point.Point {
	p := make(point.Point, d)
	sum := 0.0
	for k := range p {
		g := gammaSample(r, alpha)
		p[k] = g
		sum += g
	}
	for k := range p {
		p[k] = clamp01(p[k] / sum)
	}
	return p
}

// gammaSample draws Gamma(shape, 1) with Marsaglia-Tsang; for shape <
// 1 it boosts the shape and rescales.
func gammaSample(r *rand.Rand, shape float64) float64 {
	if shape < 1 {
		u := r.Float64()
		if u == 0 {
			u = 1e-12
		}
		return gammaSample(r, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// NUSWideLike simulates 225-dimensional block-wise color moments: a
// mixture of image clusters, each cluster a Gaussian around its own
// block profile. The paper's NUS-WIDE slice has 269,648 images.
func NUSWideLike(n int, seed int64) *point.Dataset {
	return clusteredHighDim(n, 225, 12, 0.08, seed)
}

// DBPediaLike simulates 250-topic LDA document vectors: sparse
// Dirichlet weights with a handful of active topics per document.
// Smaller is better (a small topic weight means "closer" under the
// paper's preference transform).
func DBPediaLike(n int, seed int64) *point.Dataset {
	const d = 250
	r := rand.New(rand.NewSource(seed))
	pts := make([]point.Point, n)
	for i := range pts {
		p := make(point.Point, d)
		for k := range p {
			p[k] = 1 // inactive topics sit at the worst value
		}
		active := 3 + r.Intn(6)
		w := dirichlet(r, active, 0.7)
		for j := 0; j < active; j++ {
			topic := r.Intn(d)
			p[topic] = clamp01(1 - w[j])
		}
		pts[i] = p
	}
	return point.MustDataset(d, pts)
}

// FlickrLike simulates 512-dimensional GIST descriptors: natural-image
// GIST vectors concentrate near a low intrinsic-dimension manifold, so
// we embed an 8-d latent uniformly and push it through a fixed random
// smooth map plus noise.
func FlickrLike(n int, seed int64) *point.Dataset {
	const d, latent = 512, 8
	r := rand.New(rand.NewSource(seed))
	// Fixed random projection (depends only on seed).
	w := make([][]float64, d)
	bias := make([]float64, d)
	for j := range w {
		w[j] = make([]float64, latent)
		for k := range w[j] {
			w[j][k] = r.NormFloat64()
		}
		bias[j] = r.NormFloat64() * 0.5
	}
	pts := make([]point.Point, n)
	for i := range pts {
		z := make([]float64, latent)
		for k := range z {
			z[k] = r.Float64()*2 - 1
		}
		p := make(point.Point, d)
		for j := 0; j < d; j++ {
			s := bias[j]
			for k := 0; k < latent; k++ {
				s += w[j][k] * z[k]
			}
			p[j] = clamp01(1/(1+math.Exp(-s)) + r.NormFloat64()*0.02)
		}
		pts[i] = p
	}
	return point.MustDataset(d, pts)
}

// Clustered generates n points drawn from a Gaussian mixture with the
// given cluster count and spread — the skewed workload where
// equal-width grid partitioning collapses (§3.3's data-skew setting).
func Clustered(n, d, clusters int, spread float64, seed int64) *point.Dataset {
	return clusteredHighDim(n, d, clusters, spread, seed)
}

func clusteredHighDim(n, d, clusters int, spread float64, seed int64) *point.Dataset {
	r := rand.New(rand.NewSource(seed))
	centers := make([]point.Point, clusters)
	for c := range centers {
		centers[c] = make(point.Point, d)
		for k := range centers[c] {
			centers[c][k] = r.Float64()
		}
	}
	pts := make([]point.Point, n)
	for i := range pts {
		c := centers[r.Intn(clusters)]
		p := make(point.Point, d)
		for k := range p {
			p[k] = clamp01(c[k] + r.NormFloat64()*spread)
		}
		pts[i] = p
	}
	return point.MustDataset(d, pts)
}

// Scale synthetically enlarges ds by factor s while preserving its
// distribution (the paper's §6.1 trick, after [24], [26]): each new
// point is an existing point with a small relative jitter.
func Scale(ds *point.Dataset, s int, seed int64) *point.Dataset {
	if s <= 1 || ds.Len() == 0 {
		return ds.Clone()
	}
	r := rand.New(rand.NewSource(seed))
	out := make([]point.Point, 0, ds.Len()*s)
	for _, p := range ds.Points {
		out = append(out, p.Clone())
	}
	for len(out) < ds.Len()*s {
		src := ds.Points[r.Intn(ds.Len())]
		p := make(point.Point, ds.Dims)
		for k := range p {
			p[k] = clamp01(src[k] + r.NormFloat64()*0.01)
		}
		out = append(out, p)
	}
	return point.MustDataset(ds.Dims, out)
}

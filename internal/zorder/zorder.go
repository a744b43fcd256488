// Package zorder implements the Z-order (Morton) space-filling curve
// for arbitrary dimensionality, together with the RZ-region machinery
// of Lee et al.'s ZB-tree that the paper builds on (Definitions 2-3,
// Lemma 1).
//
// A point is quantized to a b-bit integer grid per dimension and its
// coordinate bits are interleaved most-significant first, one bit per
// dimension per level, producing a Z-address of d*b bits packed
// big-endian into []uint64 words. Lexicographic comparison of packed
// words is exactly Z-order.
//
// Grid-level dominance tests in this package are deliberately
// conservative with respect to the original float coordinates: they
// only report dominance when strict inequality holds at the grid level
// in every dimension, which (because floor quantization is monotone)
// implies strict float dominance. See DESIGN.md §5.
package zorder

import (
	"fmt"
	"math"
	"math/bits"

	"zskyline/internal/point"
)

// MaxBits is the largest supported grid resolution per dimension.
const MaxBits = 32

// ZAddr is a packed Z-address: d*b bits, big-endian within and across
// uint64 words, padded with zero bits at the tail of the last word.
type ZAddr []uint64

// Encoder quantizes float points into a fixed integer grid and maps
// them onto the Z-order curve. An Encoder is immutable after creation
// and safe for concurrent use.
type Encoder struct {
	dims  int
	bits  int
	mins  []float64
	scale []float64 // multiplier from (v - min) to grid cells
	width []float64 // cell width per dimension (0 if degenerate)
	words int       // number of uint64 words per address
	maxG  uint32    // largest grid coordinate: 2^bits - 1
}

// NewEncoder builds an Encoder for dims dimensions at bits resolution
// over the bounding box [mins, maxs]. Degenerate dimensions (min ==
// max) quantize to cell 0. Values outside the box are clamped; callers
// that need exactness should derive bounds from the full dataset.
func NewEncoder(dims, bitsPerDim int, mins, maxs []float64) (*Encoder, error) {
	if dims <= 0 {
		return nil, fmt.Errorf("zorder: dims must be positive, got %d", dims)
	}
	if bitsPerDim <= 0 || bitsPerDim > MaxBits {
		return nil, fmt.Errorf("zorder: bits per dim must be in [1,%d], got %d", MaxBits, bitsPerDim)
	}
	if len(mins) != dims || len(maxs) != dims {
		return nil, fmt.Errorf("zorder: bounds length %d/%d, want %d", len(mins), len(maxs), dims)
	}
	e := &Encoder{
		dims:  dims,
		bits:  bitsPerDim,
		mins:  append([]float64(nil), mins...),
		scale: make([]float64, dims),
		width: make([]float64, dims),
		words: (dims*bitsPerDim + 63) / 64,
		maxG:  uint32(1)<<uint(bitsPerDim) - 1,
	}
	cells := float64(uint64(1) << uint(bitsPerDim))
	for i := 0; i < dims; i++ {
		span := maxs[i] - mins[i]
		if span < 0 || math.IsNaN(span) || math.IsInf(span, 0) {
			return nil, fmt.Errorf("zorder: invalid bounds on dim %d: [%v,%v]", i, mins[i], maxs[i])
		}
		if span == 0 {
			e.scale[i] = 0
			e.width[i] = 0
			continue
		}
		e.scale[i] = cells / span
		e.width[i] = span / cells
	}
	return e, nil
}

// NewUnitEncoder is NewEncoder over the unit hypercube [0,1]^dims.
func NewUnitEncoder(dims, bitsPerDim int) (*Encoder, error) {
	mins := make([]float64, dims)
	maxs := make([]float64, dims)
	for i := range maxs {
		maxs[i] = 1
	}
	return NewEncoder(dims, bitsPerDim, mins, maxs)
}

// Dims returns the dimensionality the encoder was built for.
func (e *Encoder) Dims() int { return e.dims }

// Bits returns the grid resolution in bits per dimension.
func (e *Encoder) Bits() int { return e.bits }

// Words returns the number of uint64 words in each address.
func (e *Encoder) Words() int { return e.words }

// MaxGrid returns the largest representable grid coordinate.
func (e *Encoder) MaxGrid() uint32 { return e.maxG }

// Grid floor-quantizes a float point to grid coordinates, clamping to
// the encoder's box.
func (e *Encoder) Grid(p point.Point) []uint32 {
	return e.GridInto(make([]uint32, e.dims), p)
}

// GridInto quantizes p into dst (which must have dims entries) and
// returns dst — the allocation-free variant for per-point hot loops
// that reuse one scratch buffer.
func (e *Encoder) GridInto(dst []uint32, p point.Point) []uint32 {
	g := dst
	for i := 0; i < e.dims; i++ {
		g[i] = 0
		if e.scale[i] == 0 {
			continue
		}
		c := (p[i] - e.mins[i]) * e.scale[i]
		switch {
		case c <= 0:
			g[i] = 0
		case c >= float64(e.maxG):
			g[i] = e.maxG
		default:
			g[i] = uint32(c)
		}
	}
	return g
}

// CellMin returns the lower corner of the grid cell in float space.
func (e *Encoder) CellMin(g []uint32) point.Point {
	p := make(point.Point, e.dims)
	for i := range p {
		p[i] = e.mins[i] + float64(g[i])*e.width[i]
	}
	return p
}

// CellMax returns the upper corner of the grid cell in float space.
func (e *Encoder) CellMax(g []uint32) point.Point {
	p := make(point.Point, e.dims)
	for i := range p {
		p[i] = e.mins[i] + float64(g[i]+1)*e.width[i]
	}
	return p
}

// Encode maps a float point to its Z-address.
func (e *Encoder) Encode(p point.Point) ZAddr {
	return e.EncodeGrid(e.Grid(p))
}

// EncodeInto quantizes p into g and interleaves it into z, returning
// z. g must have Dims() entries and z Words() entries; neither
// allocates, making this the scalar building block for hot loops that
// carry their own scratch (see also EncodeBlock for whole blocks).
func (e *Encoder) EncodeInto(z ZAddr, g []uint32, p point.Point) ZAddr {
	return e.EncodeGridInto(z, e.GridInto(g, p))
}

// EncodeGrid interleaves already-quantized grid coordinates.
func (e *Encoder) EncodeGrid(g []uint32) ZAddr {
	return e.EncodeGridInto(make(ZAddr, e.words), g)
}

// EncodeGridInto interleaves g into z (which must have Words()
// entries) and returns z — the allocation-free variant for hot loops
// that reuse one scratch address.
//
// Bits are emitted most-significant level first, dimension 0 first
// within a level, into a 64-bit accumulator that is flushed one whole
// word at a time; the unused tail of the last word is zero. The layout
// is the one every stored address, wire frame, pivot and shard range
// depends on, so it must never change.
func (e *Encoder) EncodeGridInto(z ZAddr, g []uint32) ZAddr {
	g = g[:e.dims]
	var acc uint64
	n, w := 0, 0 // bits held in acc; next word of z to write
	for level := e.bits - 1; level >= 0; level-- {
		for lo := 0; lo < len(g); lo += 64 {
			hi := min(lo+64, len(g))
			// chunk holds this level's bits of dims [lo,hi), dim lo first.
			var chunk uint64
			for _, c := range g[lo:hi] {
				chunk = chunk<<1 | uint64(c>>uint(level)&1)
			}
			k := hi - lo
			if free := 64 - n; k < free {
				acc = acc<<uint(k) | chunk
				n += k
			} else {
				// Fill the word, flush it, and carry the k-free low bits.
				z[w] = acc<<uint(free) | chunk>>uint(k-free)
				w++
				n = k - free
				acc = chunk & (1<<uint(n) - 1)
			}
		}
	}
	if n > 0 {
		z[w] = acc << uint(64-n)
		w++
	}
	clear(z[w:])
	return z
}

// DecodeGrid reverses EncodeGrid, recovering grid coordinates.
func (e *Encoder) DecodeGrid(z ZAddr) []uint32 {
	return e.DecodeGridInto(make([]uint32, e.dims), z)
}

// DecodeGridInto reverses EncodeGrid into g (which must have Dims()
// entries) and returns g — the allocation-free variant. It reads z one
// word at a time and shifts each level's bits into the coordinates;
// no pipeline hot path decodes (grids travel with their rows, and
// regions are masked from grids), so this serves cold callers and
// tests.
func (e *Encoder) DecodeGridInto(g []uint32, z ZAddr) []uint32 {
	g = g[:e.dims]
	clear(g)
	var cur uint64 // unread bits of the current word, left-aligned
	avail, w := 0, 0
	for level := 0; level < e.bits; level++ {
		for lo := 0; lo < len(g); lo += 64 {
			hi := min(lo+64, len(g))
			k := hi - lo
			// chunk: the next k bits of z, left-aligned.
			var chunk uint64
			if k <= avail {
				chunk = cur
				cur <<= uint(k)
				avail -= k
			} else {
				need := k - avail
				next := z[w]
				w++
				chunk = cur | next>>uint(avail)
				cur = next << uint(need)
				avail = 64 - need
			}
			for i := lo; i < hi; i++ {
				g[i] = g[i]<<1 | uint32(chunk>>63)
				chunk <<= 1
			}
		}
	}
	return g
}

// TotalBits returns the number of meaningful bits in an address.
func (e *Encoder) TotalBits() int { return e.dims * e.bits }

// Compare orders two addresses along the Z-curve: -1, 0, or +1.
func Compare(a, b ZAddr) int {
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Equal reports whether two addresses are identical.
func Equal(a, b ZAddr) bool { return Compare(a, b) == 0 }

// Clone copies an address.
func (z ZAddr) Clone() ZAddr { return append(ZAddr(nil), z...) }

// String renders the address as a binary string of totalBits length.
func (z ZAddr) String() string {
	buf := make([]byte, 0, len(z)*64)
	for _, w := range z {
		for i := 63; i >= 0; i-- {
			if w&(1<<uint(i)) != 0 {
				buf = append(buf, '1')
			} else {
				buf = append(buf, '0')
			}
		}
	}
	return string(buf)
}

// CommonPrefixLen returns the number of leading bits shared by a and
// b, capped at totalBits.
func CommonPrefixLen(a, b ZAddr, totalBits int) int {
	n := 0
	for i := range a {
		x := a[i] ^ b[i]
		if x == 0 {
			n += 64
			continue
		}
		n += bits.LeadingZeros64(x)
		break
	}
	if n > totalBits {
		n = totalBits
	}
	return n
}

// Region is an RZ-region (Definition 2/3): the smallest Z-region
// enclosing a set of Z-addresses, encoded by the grid coordinates of
// its min and max corner points. MinG and MaxG are the decoded
// coordinates of minpt and maxpt.
type Region struct {
	MinG []uint32
	MaxG []uint32
}

// RegionOf computes the RZ-region spanned by two boundary addresses
// alpha <= beta: the common prefix padded with zeros gives minpt, with
// ones gives maxpt. It decodes alpha once; callers that hold a
// boundary's grid use RegionInto instead and decode nothing.
func (e *Encoder) RegionOf(alpha, beta ZAddr) Region {
	g := e.DecodeGrid(alpha)
	return e.RegionInto(g, make([]uint32, e.dims), g, CommonPrefixLen(alpha, beta, e.TotalBits()))
}

// RegionInto computes the RZ-region of every address that shares its
// first cpl bits with the address of grid g, writing the corner grids
// into minG and maxG (Dims() entries each; either may alias g). With g
// the grid of either boundary of a Z-interval and cpl the boundaries'
// CommonPrefixLen, it equals RegionOf without touching an address.
//
// Address bit p carries dimension p mod d, so dimension k owns the
// top m_k = ceil((cpl-k)/d) bits of the prefix (0 when cpl <= k). Those
// bits are fixed; the rest are cleared for minG and set for maxG.
// Nothing allocates, so index builds can compute one region per node
// into slab arenas.
func (e *Encoder) RegionInto(minG, maxG, g []uint32, cpl int) Region {
	d := e.dims
	minG, maxG, g = minG[:d], maxG[:d], g[:d]
	// cpl = q*d + r: dims k < r own q+1 prefix bits, the others q.
	q, r := cpl/d, cpl%d
	freeLo := uint32(uint64(1)<<uint(e.bits-q) - 1) // dims k >= r
	freeHi := freeLo >> 1                           // dims k < r
	for k := range g {
		free := freeLo
		if k < r {
			free = freeHi
		}
		minG[k], maxG[k] = g[k]&^free, g[k]|free
	}
	return Region{MinG: minG, MaxG: maxG}
}

// --- Conservative grid-level dominance tests (DESIGN.md §5) ---
//
// gridStrictlyLess(a, b) in every dimension implies strict float
// dominance of any float point quantizing to a over any float point
// quantizing to b. All helpers below reduce to that primitive.

// GridStrictDominates reports a[i] < b[i] for every dimension: the
// only grid relation that certifies float dominance.
func GridStrictDominates(a, b []uint32) bool {
	for i := range a {
		if a[i] >= b[i] {
			return false
		}
	}
	return true
}

// GridSomeGreater reports whether a[i] > b[i] in at least one
// dimension. If region-min a has some dimension strictly above point
// grid b, no float point of the region can dominate any float point of
// b's cell.
func GridSomeGreater(a, b []uint32) bool {
	for i := range a {
		if a[i] > b[i] {
			return true
		}
	}
	return false
}

// RegionDominatesRegion reports that every float point in region a
// strictly dominates every float point in region b (Lemma 1 case 1,
// conservatively): maxpt(a) < minpt(b) strictly in every dimension.
func RegionDominatesRegion(a, b Region) bool {
	return GridStrictDominates(a.MaxG, b.MinG)
}

// RegionsIncomparable reports that no float point of either region can
// dominate a float point of the other (Lemma 1 case 2, conservatively):
// each region's min exceeds the other's max in some dimension.
func RegionsIncomparable(a, b Region) bool {
	return GridSomeGreater(a.MinG, b.MaxG) && GridSomeGreater(b.MinG, a.MaxG)
}

// PointGridDominatesRegion reports that a float point with grid
// coordinates g strictly dominates every float point in region r.
func PointGridDominatesRegion(g []uint32, r Region) bool {
	return GridStrictDominates(g, r.MinG)
}

// RegionCannotDominatePointGrid reports that no float point in region
// r can dominate any float point with grid coordinates g.
func RegionCannotDominatePointGrid(r Region, g []uint32) bool {
	return GridSomeGreater(r.MinG, g)
}

// DominanceVolume computes V_dom (Definition 5) between two partition
// RZ-regions in float space: the paper takes, per dimension, the
// largest and second-largest of the four corner coordinates and
// integrates their gaps. Commutative by construction; zero for i == j
// is the caller's concern.
func (e *Encoder) DominanceVolume(a, b Region) float64 {
	vol := 1.0
	for k := 0; k < e.dims; k++ {
		// The corners of CellMin(a.MinG), CellMax(a.MaxG), CellMin(b.MinG)
		// and CellMax(b.MaxG) in dimension k.
		lo, w := e.mins[k], e.width[k]
		x := [4]float64{
			lo + float64(a.MinG[k])*w, lo + float64(a.MaxG[k]+1)*w,
			lo + float64(b.MinG[k])*w, lo + float64(b.MaxG[k]+1)*w,
		}
		// Find largest and second largest of the four.
		first, second := math.Inf(-1), math.Inf(-1)
		for _, v := range x {
			if v > first {
				second = first
				first = v
			} else if v > second {
				second = v
			}
		}
		side := first - second
		if side <= 0 {
			return 0
		}
		vol *= side
	}
	return vol
}

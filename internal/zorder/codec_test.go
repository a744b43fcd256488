package zorder

import (
	"fmt"
	"math/rand"
	"testing"
)

// The reference codec below is the original per-bit interleaver, kept
// verbatim as the layout oracle: bit pos (0 = most significant bit of
// word 0) holds level bits-1-pos/d of dimension pos%d. Addresses
// already live in wire frames, shard maps and snapshots, so the
// word-at-a-time codec must reproduce it bit for bit.

func refEncode(e *Encoder, g []uint32) ZAddr {
	z := make(ZAddr, e.Words())
	pos := 0
	for level := e.bits - 1; level >= 0; level-- {
		for d := 0; d < e.dims; d++ {
			if (g[d]>>uint(level))&1 != 0 {
				z[pos/64] |= 1 << uint(63-pos%64)
			}
			pos++
		}
	}
	return z
}

func refDecode(e *Encoder, z ZAddr) []uint32 {
	g := make([]uint32, e.dims)
	pos := 0
	for level := e.bits - 1; level >= 0; level-- {
		for d := 0; d < e.dims; d++ {
			if z[pos/64]&(1<<uint(63-pos%64)) != 0 {
				g[d] |= 1 << uint(level)
			}
			pos++
		}
	}
	return g
}

// refRegion pads the common prefix of alpha and beta with zeros and
// with ones and decodes both — the original RegionOf.
func refRegion(e *Encoder, alpha, beta ZAddr) Region {
	total := e.TotalBits()
	cpl := CommonPrefixLen(alpha, beta, total)
	lo := make(ZAddr, e.Words())
	for i := 0; i < cpl; i++ {
		lo[i/64] |= alpha[i/64] & (1 << uint(63-i%64))
	}
	hi := lo.Clone()
	for i := cpl; i < total; i++ {
		hi[i/64] |= 1 << uint(63-i%64)
	}
	return Region{MinG: refDecode(e, lo), MaxG: refDecode(e, hi)}
}

// codecDims covers single-word, word-boundary and multi-word widths,
// including dimension counts that split a level across words.
var codecDims = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 33, 64, 65, 128, 225}

func randGrid(rng *rand.Rand, e *Encoder) []uint32 {
	g := make([]uint32, e.Dims())
	for i := range g {
		switch rng.Intn(4) {
		case 0:
			g[i] = 0
		case 1:
			g[i] = e.MaxGrid()
		default:
			g[i] = uint32(rng.Uint64()) & e.MaxGrid()
		}
	}
	return g
}

func TestCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, dims := range codecDims {
		for bits := 1; bits <= MaxBits; bits++ {
			e, err := NewUnitEncoder(dims, bits)
			if err != nil {
				t.Fatal(err)
			}
			z := make(ZAddr, e.Words())
			for i := range z {
				z[i] = ^uint64(0) // EncodeGridInto must overwrite stale words
			}
			got := make([]uint32, dims)
			for trial := 0; trial < 8; trial++ {
				g := randGrid(rng, e)
				want := refEncode(e, g)
				if !Equal(e.EncodeGridInto(z, g), want) {
					t.Fatalf("d=%d bits=%d: encode %v = %s, reference %s", dims, bits, g, z, want)
				}
				if !equalU32(e.DecodeGridInto(got, want), g) {
					t.Fatalf("d=%d bits=%d: decode %s = %v, want %v", dims, bits, want, got, g)
				}
				// An arbitrary address (tail padding included) decodes
				// like the reference.
				for i := range z {
					z[i] = rng.Uint64()
				}
				if want := refDecode(e, z); !equalU32(e.DecodeGridInto(got, z), want) {
					t.Fatalf("d=%d bits=%d: decode %s = %v, reference %v", dims, bits, z, got, want)
				}
			}
		}
	}
}

func TestRegionFromGridMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, dims := range codecDims {
		for bits := 1; bits <= MaxBits; bits++ {
			e, err := NewUnitEncoder(dims, bits)
			if err != nil {
				t.Fatal(err)
			}
			minG := make([]uint32, dims)
			maxG := make([]uint32, dims)
			for trial := 0; trial < 6; trial++ {
				ga := randGrid(rng, e)
				gb := append([]uint32(nil), ga...)
				// Perturb a suffix of the levels so prefixes of every
				// length occur, down to identical addresses.
				for i := range gb {
					if keep := rng.Intn(bits + 1); keep < bits {
						free := uint32(uint64(1)<<uint(bits-keep) - 1)
						gb[i] = gb[i]&^free | uint32(rng.Uint64())&free
					}
				}
				za, zb := refEncode(e, ga), refEncode(e, gb)
				if Compare(za, zb) > 0 {
					za, zb, ga, gb = zb, za, gb, ga
				}
				want := refRegion(e, za, zb)
				cpl := CommonPrefixLen(za, zb, e.TotalBits())
				for _, g := range [][]uint32{ga, gb} {
					got := e.RegionInto(minG, maxG, g, cpl)
					if !equalU32(got.MinG, want.MinG) || !equalU32(got.MaxG, want.MaxG) {
						t.Fatalf("d=%d bits=%d cpl=%d grid %v: region %v/%v, reference %v/%v",
							dims, bits, cpl, g, got.MinG, got.MaxG, want.MinG, want.MaxG)
					}
				}
				if got := e.RegionOf(za, zb); !equalU32(got.MinG, want.MinG) || !equalU32(got.MaxG, want.MaxG) {
					t.Fatalf("d=%d bits=%d: RegionOf %v/%v, reference %v/%v",
						dims, bits, got.MinG, got.MaxG, want.MinG, want.MaxG)
				}
			}
		}
	}
}

func benchEncoder(b *testing.B, dims int) (*Encoder, [][]uint32, []ZAddr) {
	e, err := NewUnitEncoder(dims, 16)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	gs := make([][]uint32, 256)
	zs := make([]ZAddr, len(gs))
	for i := range gs {
		gs[i] = randGrid(rng, e)
		zs[i] = e.EncodeGrid(gs[i])
	}
	return e, gs, zs
}

func BenchmarkEncodeGrid(b *testing.B) {
	for _, dims := range []int{5, 8, 17} {
		b.Run(fmt.Sprintf("d=%d", dims), func(b *testing.B) {
			e, gs, _ := benchEncoder(b, dims)
			z := make(ZAddr, e.Words())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.EncodeGridInto(z, gs[i%len(gs)])
			}
		})
	}
}

func BenchmarkDecodeGrid(b *testing.B) {
	for _, dims := range []int{5, 8, 17} {
		b.Run(fmt.Sprintf("d=%d", dims), func(b *testing.B) {
			e, _, zs := benchEncoder(b, dims)
			g := make([]uint32, dims)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.DecodeGridInto(g, zs[i%len(zs)])
			}
		})
	}
}

func BenchmarkRegionInto(b *testing.B) {
	for _, dims := range []int{5, 8, 17} {
		b.Run(fmt.Sprintf("d=%d", dims), func(b *testing.B) {
			e, gs, zs := benchEncoder(b, dims)
			minG := make([]uint32, dims)
			maxG := make([]uint32, dims)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % len(zs)
				k := (j + 1) % len(zs)
				e.RegionInto(minG, maxG, gs[j], CommonPrefixLen(zs[j], zs[k], e.TotalBits()))
			}
		})
	}
}

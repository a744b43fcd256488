package zorder

import (
	"math/rand"
	"testing"
)

// fuzzDims maps a fuzz input onto 1..256 dimensions, past every
// word-boundary case of the codec (d = 64, 65, 128, 225).
func fuzzDims(raw uint16) int { return int(raw%256) + 1 }

// fuzzGrids derives two grid vectors from two seeds.
func fuzzGrids(e *Encoder, a, b uint32) (ga, gb []uint32) {
	ga = make([]uint32, e.Dims())
	gb = make([]uint32, e.Dims())
	for i := range ga {
		ga[i] = (a + uint32(i)*2654435761) & e.MaxGrid()
		gb[i] = (b + uint32(i)*40503) & e.MaxGrid()
	}
	return ga, gb
}

// FuzzEncodeDecode: every grid coordinate vector must roundtrip with
// exactly the reference bit layout, and monotonicity must hold under
// arbitrary fuzz-chosen inputs.
func FuzzEncodeDecode(f *testing.F) {
	f.Add(uint16(3), uint16(7), uint32(5), uint32(9))
	f.Add(uint16(64), uint16(15), uint32(0xdeadbeef), uint32(1))
	f.Add(uint16(224), uint16(31), uint32(7), uint32(0xffffffff))
	f.Fuzz(func(t *testing.T, dRaw, bitsRaw uint16, a, b uint32) {
		dims := fuzzDims(dRaw)
		bits := int(bitsRaw%MaxBits) + 1
		enc, err := NewUnitEncoder(dims, bits)
		if err != nil {
			t.Fatal(err)
		}
		ga, gb := fuzzGrids(enc, a, b)
		za := enc.EncodeGrid(ga)
		if want := refEncode(enc, ga); !Equal(za, want) {
			t.Fatalf("encode %v = %s, reference %s", ga, za, want)
		}
		if got := enc.DecodeGrid(za); !equalU32(got, ga) {
			t.Fatalf("roundtrip %v -> %v", ga, got)
		}
		// Monotonicity: componentwise min encodes <= both.
		lo := make([]uint32, dims)
		for i := range lo {
			lo[i] = ga[i]
			if gb[i] < lo[i] {
				lo[i] = gb[i]
			}
		}
		zlo := enc.EncodeGrid(lo)
		if Compare(zlo, enc.EncodeGrid(ga)) > 0 || Compare(zlo, enc.EncodeGrid(gb)) > 0 {
			t.Fatalf("monotonicity violated: lo=%v a=%v b=%v", lo, ga, gb)
		}
	})
}

// FuzzRegionFromGrid: the RZ-region masked from either boundary's grid
// must equal the reference region built by padding the common prefix
// of the two addresses and decoding.
func FuzzRegionFromGrid(f *testing.F) {
	f.Add(uint16(1), uint16(15), uint32(5), uint32(9), uint8(3))
	f.Add(uint16(7), uint16(3), uint32(0), uint32(0), uint8(0))
	f.Add(uint16(64), uint16(31), uint32(0x12345678), uint32(0x9abcdef0), uint8(200))
	f.Fuzz(func(t *testing.T, dRaw, bitsRaw uint16, a, b uint32, keepRaw uint8) {
		dims := fuzzDims(dRaw)
		bits := int(bitsRaw%MaxBits) + 1
		enc, err := NewUnitEncoder(dims, bits)
		if err != nil {
			t.Fatal(err)
		}
		ga, gb := fuzzGrids(enc, a, b)
		// Share the top keep levels so long common prefixes occur.
		if keep := int(keepRaw) % (bits + 1); keep > 0 {
			free := uint32(uint64(1)<<uint(bits-keep) - 1)
			for i := range gb {
				gb[i] = ga[i]&^free | gb[i]&free
			}
		}
		za, zb := enc.EncodeGrid(ga), enc.EncodeGrid(gb)
		if Compare(za, zb) > 0 {
			za, zb, ga, gb = zb, za, gb, ga
		}
		want := refRegion(enc, za, zb)
		cpl := CommonPrefixLen(za, zb, enc.TotalBits())
		minG, maxG := make([]uint32, dims), make([]uint32, dims)
		for _, g := range [][]uint32{ga, gb} {
			got := enc.RegionInto(minG, maxG, g, cpl)
			if !equalU32(got.MinG, want.MinG) || !equalU32(got.MaxG, want.MaxG) {
				t.Fatalf("cpl=%d grid %v: region %v/%v, reference %v/%v",
					cpl, g, got.MinG, got.MaxG, want.MinG, want.MaxG)
			}
		}
	})
}

// FuzzZColEncode: the columnar bulk encoder must agree with the scalar
// path row for row — identical addresses, identical ordering, and
// identical RZ-regions derived from adjacent rows.
func FuzzZColEncode(f *testing.F) {
	f.Add(uint16(4), uint16(8), int64(1), uint8(9))
	f.Add(uint16(1), uint16(1), int64(42), uint8(1))
	f.Add(uint16(11), uint16(32), int64(-3), uint8(17))
	f.Fuzz(func(t *testing.T, dRaw, bitsRaw uint16, seed int64, nRaw uint8) {
		dims := int(dRaw%12) + 1
		bits := int(bitsRaw%MaxBits) + 1
		n := int(nRaw%40) + 1
		enc, err := NewUnitEncoder(dims, bits)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		b := randBlock(rng, n, dims)
		zc := enc.EncodeBlock(ZCol{}, b)
		if zc.Len() != n || zc.Words != enc.Words() {
			t.Fatalf("EncodeBlock shape %d×%d, want %d×%d", zc.Len(), zc.Words, n, enc.Words())
		}
		for i := 0; i < n; i++ {
			want := enc.Encode(b.Row(i))
			if !Equal(zc.At(i), want) {
				t.Fatalf("row %d: bulk %v != scalar %v", i, zc.At(i), want)
			}
			if j := (i + 1) % n; true {
				if got, wantC := zc.Compare(i, j), Compare(want, enc.Encode(b.Row(j))); got != wantC {
					t.Fatalf("Compare(%d,%d) = %d, scalar says %d", i, j, got, wantC)
				}
			}
		}
		// Regions from column views must equal regions from scalar addrs.
		for i := 0; i+1 < n; i++ {
			alpha, beta := zc.At(i), zc.At(i+1)
			if Compare(alpha, beta) > 0 {
				alpha, beta = beta, alpha
			}
			sa, sb := enc.Encode(b.Row(i)), enc.Encode(b.Row(i+1))
			if Compare(sa, sb) > 0 {
				sa, sb = sb, sa
			}
			got, want := enc.RegionOf(alpha, beta), enc.RegionOf(sa, sb)
			if !equalU32(got.MinG, want.MinG) || !equalU32(got.MaxG, want.MaxG) {
				t.Fatalf("rows %d,%d: region %v/%v, want %v/%v",
					i, i+1, got.MinG, got.MaxG, want.MinG, want.MaxG)
			}
		}
	})
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

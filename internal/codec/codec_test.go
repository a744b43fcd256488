package codec

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"zskyline/internal/gen"
	"zskyline/internal/point"
)

func TestBinaryRoundtrip(t *testing.T) {
	for _, n := range []int{0, 1, 17, 1000} {
		ds := gen.Synthetic(gen.AntiCorrelated, n, 5, 7)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, ds); err != nil {
			t.Fatal(err)
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got.Len() != n || got.Dims != 5 {
			t.Fatalf("n=%d: got %d x %d", n, got.Len(), got.Dims)
		}
		for i := range got.Points {
			if !got.Points[i].Equal(ds.Points[i]) {
				t.Fatalf("point %d mismatch", i)
			}
		}
	}
}

func TestBinaryPreservesExtremeValues(t *testing.T) {
	ds := point.MustDataset(2, []point.Point{
		{0, -0.0},
		{math.MaxFloat64, math.SmallestNonzeroFloat64},
		{-123.456e-30, 1e300},
	})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Points {
		for k := range got.Points[i] {
			if math.Float64bits(got.Points[i][k]) != math.Float64bits(ds.Points[i][k]) {
				t.Fatalf("bit-level mismatch at %d/%d", i, k)
			}
		}
	}
}

func TestBinaryCorruptionDetected(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 100, 3, 1)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, ds); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Flip a payload byte.
	corrupted := append([]byte(nil), raw...)
	corrupted[30] ^= 0xff
	if _, err := ReadBinary(bytes.NewReader(corrupted)); err == nil {
		t.Error("corruption not detected")
	}
	// Truncate.
	if _, err := ReadBinary(bytes.NewReader(raw[:len(raw)-10])); err == nil {
		t.Error("truncation not detected")
	}
	// Bad magic.
	bad := append([]byte("NOPE"), raw[4:]...)
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic not detected")
	}
	// Bad version.
	badv := append([]byte(nil), raw...)
	badv[4] = 0xff
	if _, err := ReadBinary(bytes.NewReader(badv)); err == nil {
		t.Error("bad version not detected")
	}
}

func TestWriteBinaryValidation(t *testing.T) {
	if err := WriteBinary(&bytes.Buffer{}, nil); err == nil {
		t.Error("nil dataset accepted")
	}
}

func TestCSVRoundtrip(t *testing.T) {
	ds := gen.Synthetic(gen.Correlated, 200, 4, 3)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 200 || got.Dims != 4 {
		t.Fatalf("got %d x %d", got.Len(), got.Dims)
	}
	for i := range got.Points {
		if !got.Points[i].Equal(ds.Points[i]) {
			t.Fatalf("point %d mismatch after CSV roundtrip", i)
		}
	}
}

func TestCSVCommentsAndBlanks(t *testing.T) {
	in := "# header comment\n1,2\n\n  \n3,4\n# trailing\n"
	ds, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 2 || ds.Dims != 2 {
		t.Fatalf("got %d x %d", ds.Len(), ds.Dims)
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadCSV(strings.NewReader("1,2\n3\n")); err == nil {
		t.Error("ragged rows accepted")
	}
	if _, err := ReadCSV(strings.NewReader("1,abc\n")); err == nil {
		t.Error("non-numeric accepted")
	}
}

// Property: binary roundtrip preserves arbitrary finite float bit
// patterns exactly.
func TestQuickBinaryRoundtrip(t *testing.T) {
	f := func(rows [][3]float64) bool {
		pts := make([]point.Point, 0, len(rows))
		for _, r := range rows {
			p := point.Point{r[0], r[1], r[2]}
			ok := true
			for _, v := range p {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					ok = false
				}
			}
			if !ok {
				continue
			}
			pts = append(pts, p)
		}
		ds := point.Dataset{Dims: 3, Points: pts}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, &ds); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		if got.Len() != len(pts) {
			return false
		}
		for i := range pts {
			for k := range pts[i] {
				if math.Float64bits(got.Points[i][k]) != math.Float64bits(pts[i][k]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: CSV roundtrip preserves values (full precision format).
func TestQuickCSVRoundtrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		d := 1 + r.Intn(6)
		pts := make([]point.Point, n)
		for i := range pts {
			p := make(point.Point, d)
			for k := range p {
				p[k] = (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(20)-10))
			}
			pts[i] = p
		}
		ds := point.Dataset{Dims: d, Points: pts}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, &ds); err != nil {
			return false
		}
		got, err := ReadCSV(&buf)
		if err != nil || got.Len() != n {
			return false
		}
		for i := range pts {
			if !got.Points[i].Equal(pts[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReadNamedCSVWithHeader(t *testing.T) {
	in := "price,rating\n10,4.5\n20,3\n"
	attrs, rows, err := ReadNamedCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(attrs) != 2 || attrs[0] != "price" || attrs[1] != "rating" {
		t.Errorf("attrs = %v", attrs)
	}
	if len(rows) != 2 || rows[0][0] != 10 || rows[1][1] != 3 {
		t.Errorf("rows = %v", rows)
	}
}

func TestReadNamedCSVWithoutHeader(t *testing.T) {
	attrs, rows, err := ReadNamedCSV(strings.NewReader("1,2\n3,4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if attrs[0] != "c0" || attrs[1] != "c1" || len(rows) != 2 {
		t.Errorf("attrs=%v rows=%v", attrs, rows)
	}
}

func TestReadNamedCSVErrors(t *testing.T) {
	if _, _, err := ReadNamedCSV(strings.NewReader("")); err == nil {
		t.Error("empty accepted")
	}
	if _, _, err := ReadNamedCSV(strings.NewReader("a,b\n1\n")); err == nil {
		t.Error("ragged accepted")
	}
	if _, _, err := ReadNamedCSV(strings.NewReader("a,b\n1,zzz\n")); err == nil {
		t.Error("non-numeric data accepted")
	}
	// Header only, no rows: attrs come back but zero rows is fine.
	attrs, rows, err := ReadNamedCSV(strings.NewReader("a,b\n"))
	if err != nil || len(attrs) != 2 || len(rows) != 0 {
		t.Errorf("header-only: %v %v %v", attrs, rows, err)
	}
}

// NextBlock must yield exactly the same points as the per-point Next
// path, verify the CRC at EOF, and feed the Source adapter.
func TestBinaryReaderNextBlock(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 257, 3, 21)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, ds); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	br, err := NewBinaryReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var rows int
	for {
		b, err := br.NextBlock(100)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if b.Dims != 3 {
			t.Fatalf("block dims = %d", b.Dims)
		}
		for i := 0; i < b.Len(); i++ {
			if !b.Row(i).Equal(ds.Points[rows+i]) {
				t.Fatalf("row %d drifted", rows+i)
			}
		}
		rows += b.Len()
	}
	if rows != ds.Len() {
		t.Fatalf("streamed %d rows, want %d", rows, ds.Len())
	}

	// Corrupt payload: the CRC check at EOF must catch it.
	bad := append([]byte(nil), raw...)
	bad[20] ^= 0xff
	br, err = NewBinaryReader(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err = br.NextBlock(64); err != nil {
			break
		}
	}
	if err == io.EOF {
		t.Error("corrupted stream passed the checksum")
	}
}

// WriteBlock/ReadBlock must carry consecutive frames of varying shape
// on one stream and end with a clean io.EOF.
func TestBlockFrameStream(t *testing.T) {
	blocks := []point.Block{
		point.BlockOf(2, []point.Point{{1, 2}, {3, 4}}),
		point.BlockOf(5, nil),
		point.BlockOf(1, []point.Point{{-0.5}}),
	}
	var buf bytes.Buffer
	for _, b := range blocks {
		if err := WriteBlock(&buf, b); err != nil {
			t.Fatal(err)
		}
	}
	r := bytes.NewReader(buf.Bytes())
	for i, want := range blocks {
		got, err := ReadBlock(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Len() != want.Len() || (want.Len() > 0 && got.Dims != want.Dims) {
			t.Fatalf("frame %d: %dx%d, want %dx%d", i, got.Len(), got.Dims, want.Len(), want.Dims)
		}
		for k := range want.Data {
			if got.Data[k] != want.Data[k] {
				t.Fatalf("frame %d coord %d drifted", i, k)
			}
		}
	}
	if _, err := ReadBlock(r); err != io.EOF {
		t.Fatalf("stream end = %v, want io.EOF", err)
	}
	// A truncated tail frame must not be io.EOF.
	trunc := bytes.NewReader(buf.Bytes()[:buf.Len()-3])
	var err error
	for err == nil {
		_, err = ReadBlock(trunc)
	}
	if err == io.EOF {
		t.Error("truncated tail frame reported clean EOF")
	}
}

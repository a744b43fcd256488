package point

import (
	"math/rand"
	"testing"
)

func TestDominatesBasics(t *testing.T) {
	cases := []struct {
		name string
		p, q Point
		want bool
	}{
		{"strictly better both dims", Point{1, 1}, Point{2, 2}, true},
		{"better one equal other", Point{1, 2}, Point{2, 2}, true},
		{"equal points", Point{1, 2}, Point{1, 2}, false},
		{"worse one dim", Point{1, 3}, Point{2, 2}, false},
		{"incomparable", Point{0, 5}, Point{5, 0}, false},
		{"dominated direction", Point{2, 2}, Point{1, 1}, false},
		{"mismatched dims", Point{1}, Point{1, 2}, false},
		{"single dim strict", Point{1}, Point{2}, true},
		{"single dim equal", Point{1}, Point{1}, false},
		{"negative coords", Point{-3, -1}, Point{-2, -1}, true},
	}
	for _, c := range cases {
		if got := Dominates(c.p, c.q); got != c.want {
			t.Errorf("%s: Dominates(%v, %v) = %v, want %v", c.name, c.p, c.q, got, c.want)
		}
	}
}

func TestDominanceIsStrictPartialOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gen := func(r *rand.Rand, d int) Point {
		p := make(Point, d)
		for i := range p {
			p[i] = float64(r.Intn(5))
		}
		return p
	}
	for iter := 0; iter < 3000; iter++ {
		d := 1 + rng.Intn(5)
		a, b, c := gen(rng, d), gen(rng, d), gen(rng, d)
		if Dominates(a, a) {
			t.Fatalf("irreflexivity violated: %v", a)
		}
		if Dominates(a, b) && Dominates(b, a) {
			t.Fatalf("asymmetry violated: %v %v", a, b)
		}
		if Dominates(a, b) && Dominates(b, c) && !Dominates(a, c) {
			t.Fatalf("transitivity violated: %v %v %v", a, b, c)
		}
	}
}

// Property: if p dominates q then SumCoords(p) < SumCoords(q).
func TestSumCoordsIsTopologicalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 3000; iter++ {
		d := 1 + rng.Intn(6)
		p, q := make(Point, d), make(Point, d)
		for i := 0; i < d; i++ {
			p[i] = rng.Float64()
			q[i] = rng.Float64()
		}
		if Dominates(p, q) && SumCoords(p) >= SumCoords(q) {
			t.Fatalf("SumCoords order violated: %v %v", p, q)
		}
	}
}

func TestNewDatasetValidation(t *testing.T) {
	if _, err := NewDataset(0, nil); err == nil {
		t.Error("zero dims should fail")
	}
	if _, err := NewDataset(2, []Point{{1}}); err == nil {
		t.Error("dim mismatch should fail")
	}
	nan := 0.0
	nan /= nan
	if _, err := NewDataset(1, []Point{{nan}}); err == nil {
		t.Error("NaN coordinate should fail")
	}
	ds, err := NewDataset(2, []Point{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 2 {
		t.Errorf("Len = %d, want 2", ds.Len())
	}
}

func TestBounds(t *testing.T) {
	ds := MustDataset(2, []Point{{1, 9}, {4, 2}, {3, 5}})
	mins, maxs, err := ds.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	if mins[0] != 1 || mins[1] != 2 || maxs[0] != 4 || maxs[1] != 9 {
		t.Errorf("bounds = %v %v", mins, maxs)
	}
	empty := &Dataset{Dims: 2}
	if _, _, err := empty.Bounds(); err == nil {
		t.Error("empty dataset bounds should fail")
	}
}

func TestCloneIndependence(t *testing.T) {
	ds := MustDataset(2, []Point{{1, 2}})
	cp := ds.Clone()
	cp.Points[0][0] = 99
	if ds.Points[0][0] != 1 {
		t.Error("Clone shares backing arrays")
	}
}

func TestSortLexicographic(t *testing.T) {
	pts := []Point{{2, 1}, {1, 9}, {1, 3}, {2, 0}}
	SortLexicographic(pts)
	want := []Point{{1, 3}, {1, 9}, {2, 0}, {2, 1}}
	for i := range want {
		if !pts[i].Equal(want[i]) {
			t.Fatalf("sorted[%d] = %v, want %v", i, pts[i], want[i])
		}
	}
}

func TestStringRendering(t *testing.T) {
	if got := (Point{1, 2.5}).String(); got != "(1, 2.5)" {
		t.Errorf("String = %q", got)
	}
}

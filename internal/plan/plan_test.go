package plan

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"testing"

	"zskyline/internal/gen"
	"zskyline/internal/metrics"
	"zskyline/internal/point"
	"zskyline/internal/sample"
	"zskyline/internal/seq"
)

func validSpec() *Spec {
	return &Spec{
		Strategy:    ZDG,
		Local:       ZS,
		Merge:       MergeZM,
		M:           8,
		Delta:       2,
		SampleRatio: 0.1,
		Bits:        10,
		MapTasks:    4,
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []func(*Spec){
		func(s *Spec) { s.M = 0 },
		func(s *Spec) { s.Delta = 0 },
		func(s *Spec) { s.SampleRatio = 0 },
		func(s *Spec) { s.SampleRatio = 1.5 },
		func(s *Spec) { s.Bits = 0 },
		func(s *Spec) { s.Bits = 99 },
	}
	for i, mutate := range bad {
		s := validSpec()
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
	if err := validSpec().Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestStringers(t *testing.T) {
	for _, s := range []Strategy{Grid, Angle, Random, NaiveZ, ZHG, ZDG, Strategy(42)} {
		if s.String() == "" {
			t.Errorf("strategy %d has empty name", int(s))
		}
	}
	for _, a := range []LocalAlgo{SB, ZS} {
		if a.String() == "" {
			t.Errorf("local algo %d has empty name", int(a))
		}
	}
	for _, m := range []MergeAlgo{MergeZM, MergeZS, MergeSB} {
		if m.String() == "" {
			t.Errorf("merge algo %d has empty name", int(m))
		}
	}
}

// The chunking policy map tasks run on: Run's ingest cuts ChunkSize-row
// blocks (1<<16 when unset), and chunkBlocks re-slices them without
// copying, by ChunkSize or into about MapTasks near-equal chunks.
func TestSplitNAndChunkBy(t *testing.T) {
	pts := make([]point.Point, 10)
	for i := range pts {
		pts[i] = point.Point{float64(i)}
	}
	ds := point.MustDataset(1, pts)
	rowsOf := func(chunks []point.Block) []int {
		var rows []int
		var total int
		for _, c := range chunks {
			rows = append(rows, c.Len())
			for i := 0; i < c.Len(); i++ {
				if c.Row(i)[0] != float64(total) {
					t.Fatalf("chunk rows out of order: %v at %d", c.Row(i), total)
				}
				total++
			}
		}
		if total != len(pts) {
			t.Fatalf("chunks cover %d points, want %d", total, len(pts))
		}
		return rows
	}
	for _, tc := range []struct {
		spec   Spec
		blocks []int // ingest block sizes
		chunks []int // map-task chunk sizes
	}{
		{Spec{}, []int{10}, []int{1, 1, 1, 2, 1, 1, 1, 2}},
		{Spec{MapTasks: 3}, []int{10}, []int{3, 3, 4}},
		{Spec{MapTasks: 99}, []int{10}, []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}},
		{Spec{ChunkSize: 4}, []int{4, 4, 2}, []int{4, 4, 2}},
		{Spec{ChunkSize: 99}, []int{10}, []int{10}},
	} {
		blocks, mins, maxs := ingest(ds, &tc.spec)
		if got := rowsOf(blocks); fmt.Sprint(got) != fmt.Sprint(tc.blocks) {
			t.Errorf("%+v: ingest blocks %v, want %v", tc.spec, got, tc.blocks)
		}
		if mins[0] != 0 || maxs[0] != 9 {
			t.Errorf("%+v: bounds [%v,%v], want [0,9]", tc.spec, mins[0], maxs[0])
		}
		if got := rowsOf(tc.spec.chunkBlocks(blocks)); fmt.Sprint(got) != fmt.Sprint(tc.chunks) {
			t.Errorf("%+v: chunks %v, want %v", tc.spec, got, tc.chunks)
		}
	}
}

func TestShuffleDeterministicOrder(t *testing.T) {
	group := func(gid int, v float64) Group {
		return Group{Gid: gid, Block: point.Block{Dims: 1, Data: []float64{v}}}
	}
	outs := []MapOutput{
		{Groups: []Group{group(3, 1), group(1, 2)}, Filtered: 2},
		{Groups: []Group{group(1, 3), group(0, 4)}, Filtered: 1},
	}
	groups, filtered := Shuffle(outs)
	if filtered != 3 {
		t.Errorf("filtered = %d, want 3", filtered)
	}
	wantOrder := []int{3, 1, 0}
	if len(groups) != len(wantOrder) {
		t.Fatalf("groups = %d, want %d", len(groups), len(wantOrder))
	}
	for i, gid := range wantOrder {
		if groups[i].Gid != gid {
			t.Errorf("group[%d].Gid = %d, want %d (first-seen order)", i, groups[i].Gid, gid)
		}
	}
	if groups[1].Len() != 2 {
		t.Errorf("group 1 holds %d points, want 2 (concatenated)", groups[1].Len())
	}
}

// learnRule builds a rule from a fresh sample of ds, as Run does.
func learnRule(t *testing.T, spec *Spec, ds *point.Dataset) *Rule {
	t.Helper()
	smp, err := sample.Ratio(ds.Points, spec.SampleRatio, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	mins, maxs, err := ds.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Learn(spec, ds.Dims, mins, maxs, smp, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRuleDataRoundTrip broadcasts a rule through gob — the dist wire
// format — and checks the compiled copy routes and merges identically.
func TestRuleDataRoundTrip(t *testing.T) {
	ds := gen.Synthetic(gen.AntiCorrelated, 2000, 4, 5)
	r := learnRule(t, validSpec(), ds)
	rd, err := r.Data()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rd); err != nil {
		t.Fatal(err)
	}
	var back RuleData
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	r2, err := FromData(&back)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Groups() != r.Groups() || r2.Partitions() != r.Partitions() {
		t.Fatalf("shape drift: %d/%d groups, %d/%d partitions",
			r2.Groups(), r.Groups(), r2.Partitions(), r.Partitions())
	}
	blk := point.BlockOf(ds.Dims, ds.Points)
	out1 := r.MapBlock(blk, nil)
	out2 := r2.MapBlock(blk, nil)
	if out1.Filtered != out2.Filtered || len(out1.Groups) != len(out2.Groups) {
		t.Fatalf("map drift: filtered %d vs %d, %d vs %d groups",
			out1.Filtered, out2.Filtered, len(out1.Groups), len(out2.Groups))
	}
	for i, g := range out1.Groups {
		h := out2.Groups[i]
		if g.Gid != h.Gid || fmt.Sprint(g.Block.Data) != fmt.Sprint(h.Block.Data) {
			t.Fatalf("group %d drift: gid %d vs %d, %d vs %d rows", i, g.Gid, h.Gid, g.Len(), h.Len())
		}
	}
	// A sample skyline of the wrong width must be refused, not indexed.
	back.SampleSkyline = point.Block{Dims: back.Dims + 1, Data: make([]float64, back.Dims+1)}
	if _, err := FromData(&back); err == nil {
		t.Fatal("FromData accepted a sample skyline of the wrong width")
	}
}

// Baseline rules close over in-memory partitioners; they must refuse
// to serialize rather than broadcast something non-executable.
func TestBaselineRulesDoNotSerialize(t *testing.T) {
	ds := gen.Synthetic(gen.Independent, 500, 3, 9)
	for _, st := range []Strategy{Grid, Angle, Random} {
		spec := validSpec()
		spec.Strategy = st
		r := learnRule(t, spec, ds)
		if _, err := r.Data(); err == nil {
			t.Errorf("%v rule serialized", st)
		}
	}
}

func TestUnknownStrategyRejected(t *testing.T) {
	spec := validSpec()
	spec.Strategy = Strategy(42)
	ds := gen.Synthetic(gen.Independent, 200, 2, 1)
	if _, _, err := Run(context.Background(), spec, ds, NewLocalExec(2), nil); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestRunEmptyAndCancelled(t *testing.T) {
	sky, rep, err := Run(context.Background(), validSpec(), nil, NewLocalExec(2), nil)
	if err != nil || sky != nil || rep == nil {
		t.Errorf("empty run: %v %v %v", sky, rep, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ds := gen.Synthetic(gen.Independent, 1000, 3, 2)
	if _, _, err := Run(ctx, validSpec(), ds, NewLocalExec(2), nil); err == nil {
		t.Error("cancelled context accepted")
	}
}

// The report's counters must be internally consistent and the skyline
// exact, for every merge algorithm.
func TestRunReportAndMergeAlgos(t *testing.T) {
	ds := gen.Synthetic(gen.AntiCorrelated, 3000, 4, 11)
	want := seq.BruteForce(ds.Points)
	for _, merge := range []MergeAlgo{MergeZM, MergeZS, MergeSB} {
		spec := validSpec()
		spec.Merge = merge
		tally := &metrics.Tally{}
		sky, rep, err := Run(context.Background(), spec, ds, NewLocalExec(4), tally)
		if err != nil {
			t.Fatal(err)
		}
		sameSet(t, sky, want, "merge/"+merge.String())
		if rep.SkylineSize != len(sky) || rep.Candidates < len(sky) {
			t.Errorf("%v: report %+v", merge, rep)
		}
		if rep.Groups == 0 || rep.SampleSkySize == 0 || rep.Filtered == 0 {
			t.Errorf("%v: phase-1 fields empty: %+v", merge, rep)
		}
		var perGroup int
		for _, n := range rep.PerGroupCandidates {
			perGroup += n
		}
		if perGroup != rep.Candidates {
			t.Errorf("%v: per-group sum %d != candidates %d", merge, perGroup, rep.Candidates)
		}
		if tally.Snapshot().DominanceTests == 0 {
			t.Errorf("%v: no dominance tests recorded", merge)
		}
	}
}

func sameSet(t *testing.T, got, want []point.Point, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d points, want %d", label, len(got), len(want))
	}
	g := append([]point.Point(nil), got...)
	w := append([]point.Point(nil), want...)
	point.SortLexicographic(g)
	point.SortLexicographic(w)
	for i := range g {
		if !g[i].Equal(w[i]) {
			t.Fatalf("%s: [%d] = %v, want %v", label, i, g[i], w[i])
		}
	}
}

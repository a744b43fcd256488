package core

import (
	"context"
	"testing"

	"zskyline/internal/gen"
	"zskyline/internal/mapreduce"
	"zskyline/internal/metrics"
	"zskyline/internal/plan"
	"zskyline/internal/point"
	"zskyline/internal/seq"
)

func sumRecords(stats []mapreduce.TaskStat) (in, out int) {
	for _, st := range stats {
		in += st.InputRecords
		out += st.OutputRecords
	}
	return in, out
}

// Job 1 shuffles groups, but its statistics count rows: map input is
// every point, reduce input is every row the mappers emitted after
// their chunk-local combine, and reduce output is the candidates.
func TestJob1CountsRows(t *testing.T) {
	ds := gen.Synthetic(gen.AntiCorrelated, 4000, 4, 9)
	e, _ := NewEngine(smallCfg())
	_, rep, err := e.Skyline(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	mapIn, mapOut := sumRecords(rep.Job1.MapStats)
	redIn, redOut := sumRecords(rep.Job1.ReduceStats)
	routed := ds.Len() - int(rep.MapperFiltered)
	if mapIn != ds.Len() {
		t.Errorf("map input %d records, want the %d rows", mapIn, ds.Len())
	}
	if int64(mapOut) != rep.Job1.MapOutRecords || redIn != mapOut {
		t.Errorf("map output %d / MapOutRecords %d / reduce input %d disagree", mapOut, rep.Job1.MapOutRecords, redIn)
	}
	if redIn > routed || redIn < rep.Candidates {
		t.Errorf("reduce input %d rows outside [candidates %d, routed %d]", redIn, rep.Candidates, routed)
	}
	if redOut != rep.Candidates {
		t.Errorf("reduce output %d rows, want the %d candidates", redOut, rep.Candidates)
	}
	if b := rep.Job1.ReduceInputBalance(); b.N != rep.Groups || int(b.Mean*float64(b.N)+0.5) != redIn {
		t.Errorf("reduce balance %v over %d groups, want %d rows", b, rep.Groups, redIn)
	}
}

// On an antichain no point is filtered and no combiner drops a row, so
// the reducers receive exactly the routed points, n - filtered.
func TestJob1ReduceInputIsRoutedPoints(t *testing.T) {
	const n = 3000
	pts := make([]point.Point, n)
	for i := range pts {
		x := float64(i) / n
		pts[i] = point.Point{x, 1 - x}
	}
	ds := point.MustDataset(2, pts)
	e, _ := NewEngine(smallCfg())
	sky, rep, err := e.Skyline(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(sky) != n {
		t.Fatalf("antichain skyline has %d points, want %d", len(sky), n)
	}
	redIn, _ := sumRecords(rep.Job1.ReduceStats)
	if want := n - int(rep.MapperFiltered); redIn != want {
		t.Errorf("reduce input %d rows, want n - filtered = %d", redIn, want)
	}
}

// A tree merge runs one simulator job per round; Job2 must report the
// sum of the rounds, not the last one.
func TestTreeMergeAccumulatesJob2(t *testing.T) {
	ds := gen.Synthetic(gen.AntiCorrelated, 3000, 3, 5)
	cfg := smallCfg()
	spec := cfg.spec()
	mins, maxs, err := ds.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tally := &metrics.Tally{}
	r, err := plan.Learn(spec, ds.Dims, mins, maxs, ds.Points, tally)
	if err != nil {
		t.Fatal(err)
	}
	ex := &mrExec{
		LocalExec: plan.NewLocalExec(cfg.Workers),
		cluster:   mapreduce.NewCluster(mapreduce.ClusterConfig{Workers: cfg.Workers}),
		splits:    cfg.splits(),
		dims:      ds.Dims,
	}
	groups, _, err := ex.MapReduce(ctx, r, point.BlockOf(ds.Dims, ds.Points).SplitN(4), tally)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) < 3 {
		t.Fatalf("only %d candidate groups; the tree merge needs >= 3", len(groups))
	}
	candidates := 0
	for _, g := range groups {
		candidates += g.Len()
	}
	sky, err := plan.MergePhase(ctx, ex, r, groups, true, tally)
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, sky, seq.BruteForce(ds.Points), "tree merge")

	st := ex.job2
	// Pairwise merging of k groups takes exactly k-1 merge tasks.
	if len(st.ReduceStats) != len(groups)-1 {
		t.Fatalf("Job2 has %d merge tasks, want %d over all rounds", len(st.ReduceStats), len(groups)-1)
	}
	// Every candidate row enters one merge, and every merge output but
	// the last enters another: in - out = candidates - |skyline|.
	in, out := sumRecords(st.ReduceStats)
	if in-out != candidates-len(sky) {
		t.Errorf("merge rows in %d, out %d; want in-out = %d", in, out, candidates-len(sky))
	}
	if last := st.ReduceStats[len(st.ReduceStats)-1]; last.OutputRecords != len(sky) {
		t.Errorf("last round emitted %d rows, want the %d skyline points", last.OutputRecords, len(sky))
	}
	if mapIn, _ := sumRecords(st.MapStats); mapIn != in {
		t.Errorf("merge map input %d rows, reduce input %d", mapIn, in)
	}
}

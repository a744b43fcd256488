package zbtree

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"zskyline/internal/metrics"
	"zskyline/internal/point"
	"zskyline/internal/zorder"
)

// readWorkload runs every read-only walk once against tr and returns a
// digest of the results: SZB-style point probes of every row of
// probes, then the Index queries (skyline, progressive skyline, range,
// constrained skyline, dominators and dominance counts).
func readWorkload(tr *BlockTree, enc *zorder.Encoder, probes point.Block, boxes [][2]point.Point) string {
	hits := 0
	for i := 0; i < probes.Len(); i++ {
		p := probes.Row(i)
		if tr.DominatesPoint(enc.Grid(p), p) {
			hits++
		}
	}
	streamed := 0
	for range tr.SkylineProgressive(context.Background()) {
		streamed++
	}
	out := fmt.Sprintf("hits=%d sky=%v streamed=%d", hits, tr.Skyline(), streamed)
	for _, box := range boxes {
		out += fmt.Sprintf(" range=%v within=%v", tr.RangeQuery(box[0], box[1]), tr.SkylineWithin(box[0], box[1]))
	}
	for i := 0; i < probes.Len(); i += 97 {
		p := probes.Row(i)
		g := enc.Grid(p)
		out += fmt.Sprintf(" dom=%v count=%d", tr.DominatorsOf(g, p), tr.CountDominatedBy(g, p))
	}
	return out
}

// Eight goroutines reading one tree — the mapper SZB probes and the
// Index queries — must see exactly what a sequential run sees, and the
// shared tally must total eight sequential runs. Run under -race this
// is the concurrent-read contract of BlockTree.
func TestConcurrentReadsMatchSequential(t *testing.T) {
	const readers = 8
	rng := rand.New(rand.NewSource(31))
	enc := unitEnc(t, 4, 12)
	data := genBlock(rng, "anti", 2000, 4)
	probes := genBlock(rng, "independent", 600, 4)
	boxes := [][2]point.Point{
		{{0.1, 0.1, 0.1, 0.1}, {0.6, 0.7, 0.8, 0.9}},
		{{0, 0, 0, 0}, {0.3, 1, 1, 1}},
	}

	seqTally := &metrics.Tally{}
	want := readWorkload(BuildStore(NewStore(enc, data), 8, nil, seqTally), enc, probes, boxes)

	sharedTally := &metrics.Tally{}
	tr := BuildStore(NewStore(enc, data), 8, nil, sharedTally)
	got := make([]string, readers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = readWorkload(tr, enc, probes, boxes)
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Fatalf("reader %d diverged from the sequential run", i)
		}
	}
	s, c := seqTally.Snapshot(), sharedTally.Snapshot()
	if s.RegionTests == 0 || s.DominanceTests == 0 {
		t.Fatalf("sequential run counted nothing: %+v", s)
	}
	if c.RegionTests != readers*s.RegionTests || c.DominanceTests != readers*s.DominanceTests {
		t.Fatalf("concurrent tally %+v, want %d x %+v", c, readers, s)
	}
}

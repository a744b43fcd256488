package plan_test

import (
	"context"
	"fmt"
	"sort"

	"zskyline/internal/plan"
	"zskyline/internal/point"
)

// Run executes the paper's three-phase pipeline on any Executor; the
// shared-memory LocalExec is the simplest substrate. The same Spec on
// the MapReduce simulator or the TCP coordinator yields the same
// skyline — the phase semantics live in plan, the Executor only
// decides placement and fault handling.
func ExampleRun() {
	ds, err := point.NewDataset(2, []point.Point{
		{1, 9}, {2, 2}, {9, 1}, {5, 5}, {3, 8}, {8, 3}, {4, 4}, {6, 7},
	})
	if err != nil {
		fmt.Println("dataset:", err)
		return
	}
	spec := &plan.Spec{
		Strategy: plan.ZDG, Local: plan.ZS, Merge: plan.MergeZM,
		M: 2, Delta: 2, SampleRatio: 1, Bits: 8, Seed: 1,
	}
	sky, _, err := plan.Run(context.Background(), spec, ds, plan.NewLocalExec(2), nil)
	if err != nil {
		fmt.Println("run:", err)
		return
	}
	sort.Slice(sky, func(i, j int) bool { return sky[i][0] < sky[j][0] })
	for _, p := range sky {
		fmt.Println(p)
	}
	// Output:
	// (1, 9)
	// (2, 2)
	// (9, 1)
}

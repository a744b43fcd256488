package plan_test

// Provider × executor equivalence: every dominance relation must yield
// the identical result set through every substrate — the in-process
// MapReduce simulator (core), the TCP coordinator/worker deployment
// (dist), the shared-memory pool (parallel), and the raw plan driver —
// all checked against the per-provider brute-force oracle.

import (
	"context"
	"testing"

	"zskyline/internal/core"
	"zskyline/internal/dist"
	"zskyline/internal/dominance"
	"zskyline/internal/gen"
	"zskyline/internal/metrics"
	"zskyline/internal/parallel"
	"zskyline/internal/plan"
	"zskyline/internal/point"
)

// providerDescriptors returns one descriptor of each kind for
// d-dimensional data.
func providerDescriptors(t *testing.T, d int) []dominance.Descriptor {
	t.Helper()
	w1 := make([]float64, d)
	w2 := make([]float64, d)
	for i := range w1 {
		w1[i] = 1
		w2[i] = 1
	}
	w2[0] = 3
	k := d - 1
	if k < 1 {
		k = 1
	}
	descs := []dominance.Descriptor{
		{},
		{Kind: dominance.KindFlex, Weights: [][]float64{w1, w2}},
		{Kind: dominance.KindKDom, K: k},
		{Kind: dominance.KindRobust, Rho: 0.05},
	}
	for _, desc := range descs {
		if _, err := desc.Provider(); err != nil {
			t.Fatal(err)
		}
	}
	return descs
}

func coreSkylineUnder(t *testing.T, ds *point.Dataset, desc dominance.Descriptor, local plan.LocalAlgo) []point.Point {
	t.Helper()
	cfg := core.Defaults()
	cfg.Strategy = core.ZDG
	cfg.Local = local
	cfg.M = 8
	cfg.Delta = 3
	cfg.SampleRatio = 0.05
	cfg.Workers = 4
	cfg.Seed = 99
	cfg.Dominance = desc
	e, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sky, _, err := e.Skyline(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	return sky
}

func distSkylineUnder(t *testing.T, ds *point.Dataset, addrs []string, desc dominance.Descriptor) []point.Point {
	t.Helper()
	cfg := dist.DefaultCoordinatorConfig()
	cfg.M = 8
	cfg.SampleRatio = 0.05
	cfg.ChunkSize = 500
	cfg.Seed = 99
	cfg.Dominance = desc
	coord, err := dist.NewCoordinator(cfg, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	sky, _, err := coord.Skyline(context.Background(), ds)
	if err != nil {
		t.Fatal(err)
	}
	return sky
}

func planSkylineUnder(t *testing.T, ds *point.Dataset, desc dominance.Descriptor, strategy plan.Strategy, local plan.LocalAlgo, merge plan.MergeAlgo) []point.Point {
	t.Helper()
	spec := &plan.Spec{
		Strategy:    strategy,
		Local:       local,
		Merge:       merge,
		M:           8,
		Delta:       3,
		SampleRatio: 0.05,
		Bits:        12,
		Seed:        99,
		MapTasks:    6,
		Dominance:   desc,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	sky, _, err := plan.Run(context.Background(), spec, ds, plan.NewLocalExec(4), &metrics.Tally{})
	if err != nil {
		t.Fatal(err)
	}
	return sky
}

// TestProvidersAcrossExecutors is the provider × executor matrix: each
// relation through core, dist, parallel, and the raw plan driver must
// match the per-provider brute-force oracle, heavy duplicates included.
func TestProvidersAcrossExecutors(t *testing.T) {
	addrs := startCluster(t, 3)
	cases := []struct {
		name string
		ds   *point.Dataset
	}{
		{"anti", gen.Synthetic(gen.AntiCorrelated, 2500, 4, 31)},
		{"dups", quantize(gen.Synthetic(gen.Independent, 2500, 4, 32))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, desc := range providerDescriptors(t, tc.ds.Dims) {
				prov, err := desc.Provider()
				if err != nil {
					t.Fatal(err)
				}
				name := prov.Name()
				want := dominance.BruteForce(prov, tc.ds.Points)

				// The sequential reference must agree with the oracle first.
				sameSet(t, dominance.Skyline(prov, tc.ds.Points, nil), want, name+"/seq")

				sameSet(t, coreSkylineUnder(t, tc.ds, desc, plan.SB), want, name+"/core/SB")
				sameSet(t, coreSkylineUnder(t, tc.ds, desc, plan.ZS), want, name+"/core/ZS")
				sameSet(t, distSkylineUnder(t, tc.ds, addrs, desc), want, name+"/dist")

				par, err := parallel.Skyline(context.Background(), tc.ds,
					parallel.Options{Workers: 4, Dominance: desc})
				if err != nil {
					t.Fatal(err)
				}
				sameSet(t, par, want, name+"/parallel")

				for _, st := range []plan.Strategy{plan.NaiveZ, plan.ZHG, plan.ZDG} {
					sameSet(t, planSkylineUnder(t, tc.ds, desc, st, plan.ZS, plan.MergeZM),
						want, name+"/plan/"+st.String())
				}
				sameSet(t, planSkylineUnder(t, tc.ds, desc, plan.ZDG, plan.SB, plan.MergeSB),
					want, name+"/plan/ZDG/SB+SB")
			}
		})
	}
}

// TestNonZStrategiesUnderProviders covers the baselines that do not
// route by Z-address (Grid, Angle, Random) — their partition logic is
// relation-agnostic, so providers must flow through untouched.
func TestNonZStrategiesUnderProviders(t *testing.T) {
	ds := gen.Synthetic(gen.AntiCorrelated, 1500, 3, 33)
	for _, desc := range providerDescriptors(t, ds.Dims) {
		prov, err := desc.Provider()
		if err != nil {
			t.Fatal(err)
		}
		want := dominance.BruteForce(prov, ds.Points)
		for _, st := range []plan.Strategy{plan.Grid, plan.Angle, plan.Random} {
			sameSet(t, planSkylineUnder(t, ds, desc, st, plan.SB, plan.MergeZS),
				want, prov.Name()+"/plan/"+st.String())
		}
	}
}

// Cluster: run the same workload on a healthy and on a degraded
// simulated cluster (one straggling worker, flaky tasks) and compare —
// a demonstration of the substrate's straggler/fault injection and of
// why the paper's grouping strategies matter. A final act moves from
// simulation to real processes: a TCP worker is killed mid-run and
// restarted, and the distributed answer still matches the sequential
// reference.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"zskyline"
	"zskyline/internal/dist"
	"zskyline/internal/mapreduce"
	"zskyline/internal/obs"
	"zskyline/internal/point"
	"zskyline/internal/seq"
)

func main() {
	ds := zskyline.Generate(zskyline.AntiCorrelated, 60_000, 5, 11)

	healthy := mapreduce.NewCluster(mapreduce.ClusterConfig{Workers: 8})
	degraded := mapreduce.NewCluster(mapreduce.ClusterConfig{
		Workers: 8,
		// Worker 0 has a "faulty disk": everything it touches runs 4x
		// slower (the paper's §3.3 straggler scenario).
		Slowdown: func(worker int) float64 {
			if worker == 0 {
				return 4
			}
			return 1
		},
		// And 1 in 10 first attempts fails outright, forcing retries.
		MaxAttempts: 3,
		FailTask: func(job string, kind mapreduce.TaskKind, task, attempt int) error {
			if attempt == 1 && task%10 == 0 {
				return errors.New("injected: lost container")
			}
			return nil
		},
	})

	for _, tc := range []struct {
		name    string
		cluster *mapreduce.Cluster
	}{
		{"healthy cluster ", healthy},
		{"degraded cluster", degraded},
	} {
		cfg := zskyline.Defaults()
		cfg.M = 16
		cfg.Cluster = tc.cluster
		eng, err := zskyline.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		// Trace the run: the same phase spans every executor emits,
		// plus the registry's absorbed work and task-attempt counters
		// (retries show up as zsky_mr_task_attempts_total exceeding
		// zsky_mr_tasks_total).
		tr := obs.NewTrace(tc.name)
		ctx := obs.ContextWithTrace(context.Background(), tr)
		start := time.Now()
		sky, rep, err := eng.Skyline(ctx, ds)
		if err != nil {
			log.Fatal(err)
		}
		tr.Finish()
		fmt.Printf("%s: skyline=%d in %v (reduce-input imbalance: %.2f)\n",
			tc.name, len(sky), time.Since(start).Round(time.Millisecond),
			rep.Job1.ReduceInputBalance().Imbalance)
		reg := obs.NewRegistry()
		reg.AbsorbTally(rep.Tally)
		reg.AbsorbJobStats(rep.Job1)
		reg.AbsorbJobStats(rep.Job2)
		obs.WriteReport(os.Stdout, tr, reg)
		fmt.Println()
	}

	fmt.Println("results are identical under faults; only wall time differs.")
	fmt.Println()
	killAndRestart(ds)
}

// killAndRestart runs the TCP deployment against real worker
// processes, kills one mid-query, restarts it, and shows the
// coordinator riding the failure: the in-flight tasks retry on the
// survivor, the resurrector re-dials the restarted worker and
// re-broadcasts the rule, and the skyline equals the sequential
// reference.
func killAndRestart(ds *point.Dataset) {
	fmt.Println("kill-and-restart on real TCP workers:")
	w0, err := dist.StartWorker("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer w0.Close()
	w1, err := dist.StartWorker("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	victim := w1.Addr()

	cfg := dist.DefaultCoordinatorConfig()
	cfg.M = 16
	cfg.ChunkSize = 2000
	cfg.RedialInterval = 25 * time.Millisecond
	coord, err := dist.NewCoordinator(cfg, []string{w0.Addr(), victim})
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Close()

	// Kill the victim shortly into the query, restart it at the same
	// address a moment later — a crash-and-respawn with an empty rule
	// cache.
	go func() {
		time.Sleep(20 * time.Millisecond)
		w1.Close()
		fmt.Printf("  killed worker %s mid-run\n", victim)
		for {
			time.Sleep(25 * time.Millisecond)
			w, err := dist.StartWorker(victim)
			if err != nil {
				continue // port not yet released
			}
			fmt.Printf("  restarted worker %s (empty rule cache)\n", victim)
			defer w.Close()
			break
		}
	}()

	start := time.Now()
	sky, _, err := coord.Skyline(context.Background(), ds)
	if err != nil {
		log.Fatal(err)
	}
	want := seq.SB(ds.Points, nil)
	if !sameSkyline(sky, want) {
		log.Fatalf("distributed skyline (%d points) != sequential reference (%d points)",
			len(sky), len(want))
	}
	fmt.Printf("  skyline=%d in %v — identical to the sequential reference\n",
		len(sky), time.Since(start).Round(time.Millisecond))
}

func sameSkyline(a, b []point.Point) bool {
	if len(a) != len(b) {
		return false
	}
	// Exact round-trip formatting: two points agreeing to six printed
	// digits must still differ here.
	key := func(p point.Point) string { return fmt.Sprint([]float64(p)) }
	as := make([]string, len(a))
	bs := make([]string, len(b))
	for i := range a {
		as[i], bs[i] = key(a[i]), key(b[i])
	}
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// Command perfbench is the repository benchmark. It runs one workload
// (or all of them), checks every result against a sequential oracle,
// and prints every metric by name with its unit and sample count. The
// last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{...}}
//
// holding the end-to-end metrics (untraced run) or, with --trace 1, the
// per-layer metrics of a separate traced run. See README.md.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload batch-anti8d --seed 1 --seconds 15 --trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

// options are one run's settings.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// tiny shrinks every input so the benchmark's own test runs each
	// workload in well under a second of measurement.
	tiny bool
	// corrupt damages one result before its oracle check, so a test
	// can prove that the oracles count a wrong answer as a failure.
	corrupt bool
}

func (o options) duration() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

type workload struct {
	name string
	why  string
	run  func(options) (*result, error)
}

var workloads = []workload{
	{"batch-indep5d", "500k independent 5-d points: learn and map/SZB filter dominate one core.Engine.Skyline call", runBatchIndep5d},
	{"batch-anti8d", "50k anti-correlated 8-d points: local skyline and Z-merge dominate, the paper's high-d regime", runBatchAnti8d},
	{"serve-churn", "open-loop HTTP mix of cached /skyline, /query and /ingest on server.Service: cache and admission, no Z-pipeline", runServeChurn},
	{"cluster-range", "dist.Cluster over 2 loopback worker groups and 8 Z-range shards: routing, framed RPC and cross-shard merge", runClusterRange},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	name := flag.String("workload", "", "workload to run, or \"all\"")
	seed := flag.Int64("seed", 1, "input seed; the held-out seed for checking claims is 20260101")
	seconds := flag.Float64("seconds", 15, "measured seconds per loop")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run, 0 the untraced end-to-end run")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1}

	var selected []workload
	if *name == "all" {
		selected = workloads
	} else if w, ok := findWorkload(*name); ok {
		selected = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}

	fmt.Println(hostLine())
	status := 0
	for _, w := range selected {
		fmt.Printf("# run workload=%s seed=%d seconds=%g trace=%d\n", w.name, o.seed, o.seconds, *trace)
		res, err := w.run(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		res.writeTable(os.Stdout)
		if res.Failed > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d operations failed\n", w.name, res.Failed, res.Attempted)
		}
		names := e2eMetrics
		if o.trace {
			names = layerNames()
		}
		sum, err := res.summarize(names)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(sum.line())
		if !sum.Correct {
			status = 1
		}
	}
	os.Exit(status)
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"zskyline/internal/point"
)

// e2eMetrics are the end-to-end metrics every workload reports from its
// untraced run; BENCHMARK.json declares the same list.
var e2eMetrics = []string{
	"setup_s", "skyline_p50_ms", "ops_per_s", "alloc_mb_per_op", "cpu_ms_per_op",
}

// layerMetrics are the per-layer metrics a traced run reports, with
// their units. A workload that never calls into a layer reports that
// layer's metrics as 0: no work was done there.
var layerMetrics = []struct{ name, unit string }{
	{"core.learn_ms", "ms"},
	{"core.phase2_ms", "ms"},
	{"core.merge_ms", "ms"},
	{"core.filtered_frac", "frac"},
	{"core.candidate_yield", "frac"},
	{"core.dominance_tests", "count"},
	{"core.region_tests", "count"},
	{"core.points_pruned", "count"},
	{"core.bytes_shuffled", "bytes"},
	{"core.records_emitted", "count"},
	{"core.allocs_per_op", "count"},
	{"core.speedup_vs_sb", "x"},
	{"plan.learn_ms", "ms"},
	{"plan.maps_ms", "ms"},
	{"plan.shuffle_ms", "ms"},
	{"plan.reduces_ms", "ms"},
	{"plan.merge_ms", "ms"},
	{"plan.merge_rounds", "count"},
	{"plan.map_ns_per_row", "ns/row"},
	{"seq.sb_ms", "ms"},
	{"parallel.skyline_ms", "ms"},
	{"server.cache_hit_frac", "frac"},
	{"server.admission_rejects", "count"},
	{"server.resp_kb_per_query", "KB"},
	{"seq.query_solve_ms", "ms"},
	{"server.ingest_direct_ms", "ms"},
	{"maintain.insert_ms", "ms"},
	{"maintain.accept_frac", "frac"},
	{"dist.routed_shards", "count"},
	{"dist.rpcs_per_query", "count"},
	{"transport.sent_kb_per_query", "KB"},
	{"transport.recv_kb_per_query", "KB"},
	{"transport.kb_per_write_row", "KB"},
	{"dist.retries", "count"},
	{"dist.rpc_errors", "count"},
	{"harness.late_p99_ms", "ms"},
	{"harness.trace_overhead_frac", "frac"},
}

// metric is one named measurement. N is the number of raw samples it
// was computed from (1 for a single measured or derived value).
type metric struct {
	Name  string
	Unit  string
	Value float64
	N     int
}

// result is everything one workload run measured.
type result struct {
	Workload  string
	Attempted int
	Failed    int
	metrics   map[string]metric
	order     []string
	// Spans holds the traced run's per-span self times, printed after
	// the metric table.
	Spans []spanStat
}

func newResult(workload string) *result {
	return &result{Workload: workload, metrics: map[string]metric{}}
}

// set records a metric; non-finite values are stored as 0 so the JSON
// line stays valid.
func (r *result) set(name, unit string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Name: name, Unit: unit, Value: v, N: n}
}

// layer records a per-layer metric under its declared unit.
func (r *result) layer(name string, v float64, n int) {
	for _, m := range layerMetrics {
		if m.name == name {
			r.set(name, m.unit, v, n)
			return
		}
	}
	panic("perfbench: undeclared layer metric " + name)
}

// fillLayers reports every declared per-layer metric this workload did
// not touch as 0 with no samples.
func (r *result) fillLayers() {
	for _, m := range layerMetrics {
		if _, ok := r.metrics[m.name]; !ok {
			r.set(m.name, m.unit, 0, 0)
		}
	}
}

// layerNames lists the per-layer metric names in declared order.
func layerNames() []string {
	names := make([]string, len(layerMetrics))
	for i, m := range layerMetrics {
		names[i] = m.name
	}
	return names
}

// check counts one attempted operation and whether it failed.
func (r *result) check(ok bool) {
	r.Attempted++
	if !ok {
		r.Failed++
	}
}

// correct reports whether every attempted operation succeeded.
func (r *result) correct() bool { return r.Attempted > 0 && r.Failed == 0 }

// writeTable prints every metric by name, with unit and sample count.
func (r *result) writeTable(w io.Writer) {
	fmt.Fprintf(w, "# workload %s: attempted=%d failed=%d\n", r.Workload, r.Attempted, r.Failed)
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Fprintf(w, "%-30s %14.6g %-7s n=%d\n", m.Name, m.Value, m.Unit, m.N)
	}
	for _, s := range r.Spans {
		fmt.Fprintf(w, "span %-34s n=%-6d total_ms=%-12.3f self_ms=%.3f\n", s.Name, s.Count, s.TotalMS, s.SelfMS)
	}
}

// summary is the JSON object the last line of standard output carries.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]summaryItem `json:"metrics"`
}

type summaryItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize builds the result line from the named metrics; a missing
// name is an error, never a silently shorter line.
func (r *result) summarize(names []string) (summary, error) {
	s := summary{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed,
		Metrics: map[string]summaryItem{}}
	for _, name := range names {
		m, ok := r.metrics[name]
		if !ok {
			return s, fmt.Errorf("perfbench: %s did not report %s", r.Workload, name)
		}
		s.Metrics[name] = summaryItem{Value: m.Value, Unit: m.Unit}
	}
	return s, nil
}

func (s summary) line() string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // values are finite by construction (result.set)
	}
	return string(b)
}

// ---- raw samples and quantiles ----

// samples are raw per-operation measurements. Quantiles are computed
// from them directly, never from a bucketed histogram.
type samples []float64

func (s samples) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// quantile returns the q-quantile by linear interpolation between the
// closest ranks.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := s.sorted()
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}

func (s samples) median() float64 { return s.quantile(0.5) }

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var t float64
	for _, v := range s {
		t += v
	}
	return t / float64(len(s))
}

// reportable says whether the q-quantile of n samples has at least ten
// samples beyond it, the rule for printing a tail percentile.
func reportable(q float64, n int) bool {
	return float64(n)*(1-q) >= 10-1e-9 // 1-0.9 is not exactly 0.1
}

// latency records name_p50_ms for any non-empty sample set, and the
// p90 and p99 where enough samples lie beyond them.
func (r *result) latency(name string, s samples) {
	if len(s) == 0 {
		return
	}
	r.set(name+"_p50_ms", "ms", s.median(), len(s))
	for _, q := range []struct {
		suffix string
		q      float64
	}{{"_p90_ms", 0.9}, {"_p99_ms", 0.99}} {
		if reportable(q.q, len(s)) {
			r.set(name+q.suffix, "ms", s.quantile(q.q), len(s))
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timeSetup records setup_s: the median of reps runs of setup, each
// from a collected heap so that one rep's garbage does not slow the
// next. teardown, when non-nil, releases the previous rep's result
// before the next rep starts; it is not timed.
func (r *result) timeSetup(reps int, teardown func(), setup func() error) error {
	s := make(samples, 0, reps)
	for i := 0; i < reps; i++ {
		if i > 0 && teardown != nil {
			teardown()
		}
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return err
		}
		s = append(s, time.Since(t0).Seconds())
	}
	r.set("setup_s", "s", s.median(), len(s))
	return nil
}

// ---- resource accounting around a measured loop ----

// usage is a snapshot of the process's allocation and CPU counters.
type usage struct {
	alloc   uint64
	mallocs uint64
	cpu     time.Duration
	wall    time.Time
}

func readUsage() usage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	var cpu time.Duration
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return usage{alloc: m.TotalAlloc, mallocs: m.Mallocs, cpu: cpu, wall: time.Now()}
}

// throughput records ops_per_s, alloc_mb_per_op and cpu_ms_per_op for
// ops operations completed between before and after.
func (r *result) throughput(before, after usage, ops int) {
	if ops == 0 {
		return
	}
	wall := after.wall.Sub(before.wall).Seconds()
	r.set("ops_per_s", "1/s", float64(ops)/wall, ops)
	r.set("alloc_mb_per_op", "MB", float64(after.alloc-before.alloc)/float64(ops)/(1<<20), ops)
	r.set("cpu_ms_per_op", "ms", ms(after.cpu-before.cpu)/float64(ops), ops)
}

// ---- result fingerprints for the oracles ----

// fingerprint identifies a multiset of points independently of order:
// the count plus two sums of differently mixed per-point hashes.
type fingerprint struct {
	N    int
	A, B uint64
}

func mix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func (f *fingerprint) add(p []float64) {
	var a, b uint64 = 0x9e3779b97f4a7c15, 0x632be59bd9b4e019
	for _, v := range p {
		bits := math.Float64bits(v)
		if v == 0 {
			bits = 0 // -0 and +0 are the same coordinate
		}
		a = mix(a ^ bits)
		b = mix(b + bits*0x100000001b3)
	}
	f.N++
	f.A += a
	f.B += b
}

// fingerprintOf fingerprints a set of points given as row slices.
func fingerprintOf[P ~[]float64](pts []P) fingerprint {
	var f fingerprint
	for _, p := range pts {
		f.add(p)
	}
	return f
}

func fingerprintBlock(b point.Block) fingerprint {
	var f fingerprint
	for i := 0; i < b.Len(); i++ {
		f.add(b.Row(i))
	}
	return f
}

// ---- host fingerprint ----

// hostLine describes the machine and toolchain the numbers come from.
func hostLine() string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	h := map[string]any{
		"cpu_model":  cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
	b, _ := json.Marshal(h)
	return "# host " + string(b)
}

// finish records failed_frac, the share of attempted operations that
// failed: errors, refusals and oracle mismatches alike.
func (r *result) finish() {
	frac := 0.0
	if r.Attempted > 0 {
		frac = float64(r.Failed) / float64(r.Attempted)
	}
	r.set("failed_frac", "frac", frac, r.Attempted)
}

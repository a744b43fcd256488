package main

import (
	"bytes"
	"context"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"zskyline/internal/dist"
	"zskyline/internal/obs"
	"zskyline/internal/point"
	"zskyline/internal/zorder"
)

// clusterSpec sizes the cluster-range workload.
type clusterSpec struct {
	rows, d, shards, groups int
	writeRows               int
	setups                  int
}

func (s clusterSpec) scaled(tiny bool) clusterSpec {
	if tiny {
		s.rows, s.writeRows, s.setups = 2000, 20, 1
	}
	return s
}

// clusterCycle is the closed loop's fixed operation mix: one full
// skyline, four routed range queries and four block inserts.
var clusterCycle = []byte("FRWRWRWRW")

// clusterRig is one running cluster and the workers it owns.
type clusterRig struct {
	workers []*dist.WorkerServer
	c       *dist.Cluster
	smap    dist.ShardMap
}

func (r *clusterRig) close() {
	if r.c != nil {
		r.c.Close()
	}
	for _, w := range r.workers {
		w.Close()
	}
}

// startCluster is the user's set-up: start the in-process worker
// groups (one member each), build the cluster, bulk-load the rows.
func startCluster(s clusterSpec, init point.Block) (*clusterRig, error) {
	rig := &clusterRig{}
	var groups [][]string
	for g := 0; g < s.groups; g++ {
		ws, err := dist.StartWorker("127.0.0.1:0")
		if err != nil {
			rig.close()
			return nil, err
		}
		rig.workers = append(rig.workers, ws)
		groups = append(groups, []string{ws.Addr()})
	}
	mins, maxs := unitBox(s.d)
	ctx := context.Background()
	c, err := dist.NewCluster(ctx, dist.ClusterConfig{Mins: mins, Maxs: maxs, Shards: s.shards}, groups)
	if err != nil {
		rig.close()
		return nil, err
	}
	rig.c = c
	if err := c.InsertBlock(ctx, init); err != nil {
		rig.close()
		return nil, err
	}
	rig.smap = c.Map()
	return rig, nil
}

// clusterOp is one operation of the closed loop, kept for the oracle
// replay after the run.
type clusterOp struct {
	kind  byte // 'F' full skyline, 'R' range, 'W' insert
	shard int  // range index for 'R'
	write int  // index into the insert blocks for 'W'
	got   fingerprint
	err   bool
}

func runClusterRange(o options) (*result, error) {
	s := clusterSpec{rows: 100_000, d: 6, shards: 8, groups: 2, writeRows: 200, setups: 5}.scaled(o.tiny)
	rng := rand.New(rand.NewSource(o.seed))
	init := genBlock(rng, anticorrelated, s.rows, s.d)
	res := newResult("cluster-range")

	var rig *clusterRig
	err := res.timeSetup(s.setups, func() { rig.close() }, func() (err error) {
		rig, err = startCluster(s, init)
		return err
	})
	if err != nil {
		return nil, err
	}

	// Both loops insert the same blocks, drawn on demand from the seed.
	writes := &blockStream{r: rng, d: s.d, n: s.writeRows}
	run := &clusterRun{spec: s, rig: rig, init: init, writes: writes}
	run.loop(o, res, nil, o.corrupt)
	rig.close()
	run.verify(res)
	res.latency("skyline", run.full)
	res.latency("query", run.ranged)
	res.latency("write", run.write)

	if o.trace {
		rig, err := startCluster(s, init)
		if err != nil {
			return nil, err
		}
		tr := &tracer{}
		traced := &clusterRun{spec: s, rig: rig, init: init, writes: writes}
		traced.loop(o, res, tr, false)
		rig.close()
		traced.verify(res)
		traced.layers(res)
		res.layer("harness.trace_overhead_frac", 1-traced.opsPerS/run.opsPerS, 1)
		res.Spans = tr.stats()
		res.fillLayers()
	}
	res.finish()
	return res, nil
}

// blockStream draws the insert blocks on demand, so the inputs depend
// on the seed alone and never on how fast a loop ran.
type blockStream struct {
	r      *rand.Rand
	d, n   int
	blocks []point.Block
}

// get returns block i of the stream.
func (b *blockStream) get(i int) point.Block {
	for len(b.blocks) <= i {
		b.blocks = append(b.blocks, genBlock(b.r, anticorrelated, b.n, b.d))
	}
	return b.blocks[i]
}

// clusterRun is one closed-loop run over a cluster.
type clusterRun struct {
	spec   clusterSpec
	rig    *clusterRig
	init   point.Block
	writes *blockStream
	ops    []clusterOp

	full, ranged, write samples
	opsPerS             float64

	// traced-run counters
	routed, rpcs, sentKB, recvKB samples
	writeBytes, writeRowsSent    int64
	retries, rpcErrors           float64
}

// loop runs the fixed mix for the configured seconds. With tr non-nil
// it traces every call and reads the layer counters around it.
func (run *clusterRun) loop(o options, res *result, tr *tracer, corrupt bool) {
	ctx := context.Background()
	c := run.rig.c
	var retries0, errs0 float64
	if tr != nil {
		retries0 = promSum(c.Metrics(), "zsky_dist_retries_total")
		errs0 = promSum(c.Metrics(), "zsky_dist_rpc_errors_total")
	}
	deadline := time.Now().Add(o.duration())
	nRange, nWrite := 0, 0
	before := readUsage()
	for i := 0; i < len(clusterCycle) || time.Now().Before(deadline); i++ {
		op := clusterOp{kind: clusterCycle[i%len(clusterCycle)]}
		var blk point.Block
		if op.kind == 'W' {
			op.write = nWrite
			nWrite++
			blk = run.writes.get(op.write)
		}
		var rpc0 float64
		var wire0 []dist.WireStat
		if tr != nil {
			rpc0 = run.rpcCount()
			wire0 = c.WireStats()
		}
		var sky []point.Point
		var rep *dist.ClusterReport
		var err error
		t0 := time.Now()
		switch op.kind {
		case 'F':
			sp := tr.begin("dist.Cluster.Skyline", noSpan)
			sky, rep, err = c.Skyline(ctx)
			tr.end(sp)
		case 'R':
			op.shard = nRange % run.rig.smap.NumShards()
			nRange++
			r := run.rig.smap.Range(op.shard)
			sp := tr.begin("dist.Cluster.SkylineRange", noSpan)
			sky, rep, err = c.SkylineRange(ctx, r.Lo, r.Hi)
			tr.end(sp)
		case 'W':
			sp := tr.begin("dist.Cluster.InsertBlock", noSpan)
			err = c.InsertBlock(ctx, blk)
			tr.end(sp)
		}
		lat := ms(time.Since(t0))
		op.err = err != nil
		if corrupt && op.kind == 'F' && len(sky) > 0 {
			sky, corrupt = sky[1:], false
		}
		switch op.kind {
		case 'F':
			run.full = append(run.full, lat)
		case 'R':
			run.ranged = append(run.ranged, lat)
		case 'W':
			run.write = append(run.write, lat)
		}
		if op.kind != 'W' {
			sp := tr.begin("oracle.fingerprint", noSpan)
			op.got = fingerprintOf(sky)
			tr.end(sp)
		}
		if tr != nil && err == nil {
			run.observe(op, rep, wire0, rpc0)
		}
		run.ops = append(run.ops, op)
	}
	after := readUsage()
	if tr == nil {
		res.throughput(before, after, len(run.ops))
	} else {
		run.retries = promSum(c.Metrics(), "zsky_dist_retries_total") - retries0
		run.rpcErrors = promSum(c.Metrics(), "zsky_dist_rpc_errors_total") - errs0
	}
	run.opsPerS = float64(len(run.ops)) / after.wall.Sub(before.wall).Seconds()
}

// observe records one traced operation's routing, RPC and wire counts.
func (run *clusterRun) observe(op clusterOp, rep *dist.ClusterReport, wire0 []dist.WireStat, rpc0 float64) {
	rpcs := run.rpcCount() - rpc0
	if op.kind == 'W' {
		for i, w := range run.rig.c.WireStats() {
			run.writeBytes += w.Sent - wire0[i].Sent + w.Recv - wire0[i].Recv
		}
		run.writeRowsSent += int64(run.writes.get(op.write).Len())
		return
	}
	if op.kind == 'R' {
		run.routed = append(run.routed, float64(rep.Routed))
	}
	run.rpcs = append(run.rpcs, rpcs)
	run.sentKB = append(run.sentKB, float64(rep.WireSentBytes)/1024)
	run.recvKB = append(run.recvKB, float64(rep.WireRecvBytes)/1024)
}

// rpcCount sums zsky_rpc_requests_total over every worker.
func (run *clusterRun) rpcCount() float64 {
	var n float64
	for _, w := range run.rig.workers {
		n += promSum(w.Metrics(), "zsky_rpc_requests_total")
	}
	return n
}

// verify replays the run against the oracle: seq.SB over every row the
// benchmark inserted, and for a range query over the rows whose
// Z-address (from an encoder with the cluster's geometry) falls in the
// queried shard's range.
func (run *clusterRun) verify(res *result) {
	mins, maxs := unitBox(run.spec.d)
	enc, err := zorder.NewEncoder(run.spec.d, 16, mins, maxs)
	if err != nil {
		panic(err) // fixed, valid geometry
	}
	nShards := run.rig.smap.NumShards()
	shardOf := func(p point.Point) int {
		z := enc.Encode(p)
		for i := 0; i < nShards; i++ {
			if run.rig.smap.Range(i).Contains(z) {
				return i
			}
		}
		return -1
	}
	split := func(b point.Block) [][]point.Point {
		out := make([][]point.Point, nShards)
		for _, p := range b.Points() {
			if i := shardOf(p); i >= 0 {
				out[i] = append(out[i], p)
			}
		}
		return out
	}
	var full []point.Point
	shardSky := make([][]point.Point, nShards)
	full = extendSkyline(nil, run.init.Points())
	for i, pts := range split(run.init) {
		shardSky[i] = extendSkyline(nil, pts)
	}
	for _, op := range run.ops {
		switch op.kind {
		case 'F':
			res.check(!op.err && op.got == fingerprintOf(full))
		case 'R':
			res.check(!op.err && op.got == fingerprintOf(shardSky[op.shard]))
		case 'W':
			res.check(!op.err)
			b := run.writes.get(op.write)
			full = extendSkyline(full, b.Points())
			for i, pts := range split(b) {
				if len(pts) > 0 {
					shardSky[i] = extendSkyline(shardSky[i], pts)
				}
			}
		}
	}
}

// layers reports the traced run's dist and transport metrics.
func (run *clusterRun) layers(res *result) {
	res.layer("dist.routed_shards", run.routed.mean(), len(run.routed))
	res.layer("dist.rpcs_per_query", run.rpcs.mean(), len(run.rpcs))
	res.layer("transport.sent_kb_per_query", run.sentKB.mean(), len(run.sentKB))
	res.layer("transport.recv_kb_per_query", run.recvKB.mean(), len(run.recvKB))
	perRow := 0.0
	if run.writeRowsSent > 0 {
		perRow = float64(run.writeBytes) / float64(run.writeRowsSent) / 1024
	}
	res.layer("transport.kb_per_write_row", perRow, len(run.write))
	res.layer("dist.retries", run.retries, 1)
	res.layer("dist.rpc_errors", run.rpcErrors, 1)
}

// promSum renders a registry in the Prometheus text format and sums
// every series of the named counter, whatever its labels.
func promSum(reg *obs.Registry, name string) float64 {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return 0
	}
	var total float64
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, name) || len(line) == len(name) {
			continue
		}
		if c := line[len(name)]; c != '{' && c != ' ' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			total += v
		}
	}
	return total
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"zskyline/internal/maintain"
	"zskyline/internal/point"
	"zskyline/internal/seq"
	"zskyline/internal/server"
)

// serveSpec sizes the serve-churn workload.
type serveSpec struct {
	rows, d    int
	rate       float64 // requests per second, open loop
	ingestRows int
	setups     int
	// querySample checks every querySample-th /query response against
	// the oracle; every /skyline and /ingest response is checked.
	querySample int
}

func (s serveSpec) scaled(tiny bool) serveSpec {
	if tiny {
		s.rows, s.rate, s.setups, s.querySample = 1000, 60, 1, 1
	}
	return s
}

// Request kinds of the mix.
const (
	reqSkyline = 'S'
	reqQuery   = 'Q'
	reqIngest  = 'I'
)

// serveKind is the fixed mix: of every ten requests eight are /skyline
// reads, one a /query preference skyline and one an /ingest. A /query
// costs ~100 ms of CPU, so at the offered rate queries keep well under
// one of the nproc connections busy and a read rarely queues behind
// two of them.
func serveKind(k int) byte {
	switch k % 10 {
	case 9:
		return reqIngest
	case 4:
		return reqQuery
	}
	return reqSkyline
}

// routes maps each request kind to its method and path.
var routes = map[byte]struct{ method, path string }{
	reqSkyline: {http.MethodGet, "/skyline"},
	reqQuery:   {http.MethodPost, "/query"},
	reqIngest:  {http.MethodPost, "/datasets/" + server.DefaultDataset + "/ingest"},
}

// serveRig is one running service behind a loopback listener.
type serveRig struct {
	svc  *server.Service
	hs   *http.Server
	base string
	v0   uint64
	done chan struct{}
}

func (r *serveRig) close() {
	r.hs.Close()
	<-r.done
}

func attrNames(d int) []string {
	out := make([]string, d)
	for i := range out {
		out[i] = fmt.Sprintf("a%d", i)
	}
	return out
}

// startServe is the user's set-up: create the dataset, ingest the
// initial rows, start the listener.
func startServe(s serveSpec, init point.Block) (*serveRig, error) {
	svc := server.NewService(server.Config{})
	e, err := svc.CreateDataset(server.DatasetSpec{Name: server.DefaultDataset, Attrs: attrNames(s.d)})
	if err != nil {
		return nil, err
	}
	if _, err := svc.Ingest(e, init); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rig := &serveRig{svc: svc, hs: &http.Server{Handler: svc.Handler()},
		base: "http://" + ln.Addr().String(), v0: e.Version(), done: make(chan struct{})}
	go func() {
		defer close(rig.done)
		rig.hs.Serve(ln)
	}()
	return rig, nil
}

// serveJob is one planned request; the plan depends on the seed alone.
type serveJob struct {
	kind  byte
	body  []byte
	block point.Block // ingest rows
	cols  []prefCol   // query preferences
}

// prefCol is one /query preference: attribute index and direction.
type prefCol struct {
	idx int
	max bool
}

// planServe draws n requests of the fixed mix.
func planServe(r *rand.Rand, s serveSpec, n int) []serveJob {
	attrs := attrNames(s.d)
	jobs := make([]serveJob, n)
	queries := 0
	for k := range jobs {
		j := serveJob{kind: serveKind(k)}
		switch j.kind {
		case reqQuery:
			// Query q prefers 1 + q%d attributes, picked at random, each
			// with a random direction. Cycling the subset size keeps the
			// mix of cheap and expensive queries the same in every run.
			type term struct {
				Attr string `json:"attr"`
				Dir  string `json:"dir"`
			}
			var prefer []term
			for _, i := range r.Perm(s.d)[:1+queries%s.d] {
				c := prefCol{i, r.Intn(2) == 1}
				dir := "min"
				if c.max {
					dir = "max"
				}
				prefer = append(prefer, term{attrs[i], dir})
				j.cols = append(j.cols, c)
			}
			queries++
			j.body, _ = json.Marshal(map[string]any{"prefer": prefer})
		case reqIngest:
			j.block = genBlock(r, anticorrelated, s.ingestRows, s.d)
			rows := make([][]float64, j.block.Len())
			for i := range rows {
				rows[i] = j.block.Row(i)
			}
			j.body, _ = json.Marshal(map[string]any{"points": rows})
		}
		jobs[k] = j
	}
	return jobs
}

// serveRec is what one request observed.
type serveRec struct {
	due, sent, done time.Time
	status          int
	failed          bool
	cache           string
	size            int
	hash            uint64 // /skyline body
	body            []byte // sampled /query body
	// lo and hi bound the data version a read can have seen: every
	// ingest acknowledged before it was sent, up to every ingest sent
	// before it completed.
	lo, hi uint64
	// ingest acknowledgement
	version         uint64
	ingested, onSky int
}

// serveRun is one open-loop run against a rig.
type serveRun struct {
	spec serveSpec
	rig  *serveRig
	init point.Block
	jobs []serveJob
	recs []serveRec
	late samples

	bodiesMu sync.Mutex
	bodies   map[uint64][]byte // distinct /skyline bodies by hash

	acked   atomic.Uint64 // highest acknowledged ingest version
	started atomic.Uint64 // ingests sent so far
	writeMu sync.Mutex    // one ingest in flight, so each ack names one block

	before, after usage // around the loop
}

// opsPerS is completed requests per second of loop wall time.
func (run *serveRun) opsPerS(completed int) float64 {
	return float64(completed) / run.after.wall.Sub(run.before.wall).Seconds()
}

func runServeChurn(o options) (*result, error) {
	s := serveSpec{rows: 20_000, d: 5, rate: 40, ingestRows: 16, setups: 5, querySample: 2}.scaled(o.tiny)
	rng := rand.New(rand.NewSource(o.seed))
	init := genBlock(rng, anticorrelated, s.rows, s.d)
	jobs := planServe(rng, s, int(math.Ceil(s.rate*o.seconds)))
	res := newResult("serve-churn")

	var rig *serveRig
	err := res.timeSetup(s.setups, func() { rig.close() }, func() (err error) {
		rig, err = startServe(s, init)
		return err
	})
	if err != nil {
		return nil, err
	}

	run := &serveRun{spec: s, rig: rig, init: init, jobs: jobs}
	run.loop(nil)
	rig.close()
	if o.corrupt {
		run.corrupt()
	}
	completed := run.verify(res)
	res.throughput(run.before, run.after, completed)
	run.latencies(res)

	if o.trace {
		rig, err := startServe(s, init)
		if err != nil {
			return nil, err
		}
		tr := &tracer{}
		traced := &serveRun{spec: s, rig: rig, init: init, jobs: jobs}
		traced.loop(tr)
		rig.close()
		tracedCompleted := traced.verify(res)
		if err := traced.layers(res, tr); err != nil {
			return nil, err
		}
		res.layer("harness.trace_overhead_frac", 1-traced.opsPerS(tracedCompleted)/run.opsPerS(completed), 1)
		res.Spans = tr.stats()
		res.fillLayers()
	}
	res.finish()
	return res, nil
}

// loop sends the planned requests on schedule from one generator over
// at most nproc connections, and waits for every response.
func (run *serveRun) loop(tr *tracer) {
	conns := runtime.NumCPU()
	transport := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: time.Minute}
	run.recs = make([]serveRec, len(run.jobs))
	run.bodies = map[uint64][]byte{}
	run.acked.Store(run.rig.v0)

	// The queue holds every planned request, so the generator never
	// blocks on it and its lateness is its own.
	queue := make(chan int, len(run.jobs))
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One reused body buffer per connection keeps the client's
			// own allocations out of alloc_mb_per_op.
			var buf bytes.Buffer
			for k := range queue {
				run.send(client, tr, &buf, k)
			}
		}()
	}
	interval := time.Duration(float64(time.Second) / run.spec.rate)
	run.before = readUsage()
	start := run.before.wall
	run.late = make(samples, 0, len(run.jobs))
	for k := range run.jobs {
		due := start.Add(time.Duration(k) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		run.recs[k].due = due
		run.late = append(run.late, ms(time.Since(due)))
		queue <- k
	}
	close(queue)
	wg.Wait()
	run.after = readUsage()
}

// send issues request k and records what came back. The response body
// is read into buf; whatever is kept past the call is copied out.
func (run *serveRun) send(client *http.Client, tr *tracer, buf *bytes.Buffer, k int) {
	job := run.jobs[k]
	rec := &run.recs[k]
	if job.kind == reqIngest {
		run.writeMu.Lock()
		defer run.writeMu.Unlock()
		run.started.Add(1)
	}
	rec.sent = time.Now()
	rec.lo = run.acked.Load()
	route := routes[job.kind]
	var body io.Reader
	if job.body != nil {
		body = bytes.NewReader(job.body)
	}
	req, err := http.NewRequest(route.method, run.rig.base+route.path, body)
	if err != nil {
		rec.failed = true
		rec.done = time.Now()
		return
	}
	resp, err := client.Do(req)
	headers := time.Now()
	buf.Reset()
	if err == nil {
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		rec.status = resp.StatusCode
		rec.cache = resp.Header.Get("X-Cache")
	}
	rec.done = time.Now()
	rec.hi = run.rig.v0 + run.started.Load()
	respBody := buf.Bytes()
	rec.size = len(respBody)
	rec.failed = err != nil || rec.status != http.StatusOK
	if tr != nil {
		root := tr.record("serve "+route.method+" "+route.path, noSpan, rec.due, rec.done)
		tr.record("queue", root, rec.due, rec.sent)
		tr.record("http.Client.Do", root, rec.sent, headers)
		tr.record("http.body", root, headers, rec.done)
	}
	if rec.failed {
		return
	}
	switch job.kind {
	case reqSkyline:
		h := fnv.New64a()
		h.Write(respBody)
		rec.hash = h.Sum64()
		run.bodiesMu.Lock()
		if _, ok := run.bodies[rec.hash]; !ok {
			run.bodies[rec.hash] = bytes.Clone(respBody)
		}
		run.bodiesMu.Unlock()
	case reqQuery:
		if k/10%run.spec.querySample == 0 {
			rec.body = bytes.Clone(respBody)
		}
	case reqIngest:
		var ack struct {
			Ingested  int    `json:"ingested"`
			OnSkyline int    `json:"on_skyline"`
			Version   uint64 `json:"version"`
		}
		if json.Unmarshal(respBody, &ack) != nil {
			rec.failed = true
			return
		}
		rec.version, rec.ingested, rec.onSky = ack.Version, ack.Ingested, ack.OnSkyline
		run.acked.Store(ack.Version) // ingests are serialized: versions only grow
	}
}

// corrupt damages the first /skyline body, for the oracle test.
func (run *serveRun) corrupt() {
	for k := range run.recs {
		if run.jobs[k].kind == reqSkyline && !run.recs[k].failed {
			body := run.bodies[run.recs[k].hash]
			var v struct {
				Count  int         `json:"count"`
				Points [][]float64 `json:"points"`
			}
			if json.Unmarshal(body, &v) == nil && len(v.Points) > 0 {
				v.Points = v.Points[1:]
				v.Count--
				run.recs[k].hash ^= 1
				run.bodies[run.recs[k].hash], _ = json.Marshal(v)
			}
			return
		}
	}
}

// verify checks every response against the oracle: seq.SB over the
// initial rows plus every acknowledged ingest, at some data version
// the read could have seen. It returns the number of requests that
// completed correctly.
func (run *serveRun) verify(res *result) int {
	// Order the acknowledged ingest blocks by version.
	byVersion := map[uint64]point.Block{}
	for k, r := range run.recs {
		if run.jobs[k].kind == reqIngest && !r.failed {
			byVersion[r.version] = run.jobs[k].block
		}
	}
	versions := []point.Block{run.init}
	for v := run.rig.v0 + 1; ; v++ {
		b, ok := byVersion[v]
		if !ok {
			break
		}
		versions = append(versions, b)
	}
	skyFP := make([]fingerprint, len(versions))
	var sky []point.Point
	for i, b := range versions {
		sky = extendSkyline(sky, b.Points())
		skyFP[i] = fingerprintOf(sky)
	}
	rowsAt := func(i int) point.Block {
		bb := point.NewBlockBuilder(run.spec.d, 0)
		for _, b := range versions[:i+1] {
			bb.AppendBlock(b)
		}
		return bb.Build()
	}
	// window maps a read's version bounds to indices into versions.
	window := func(r serveRec) (int, int) {
		lo, hi := int(r.lo-run.rig.v0), int(r.hi-run.rig.v0)
		if hi >= len(versions) {
			hi = len(versions) - 1
		}
		return lo, hi
	}

	parsed := map[uint64]fingerprint{}
	queryWant := map[string][]int{}
	completed := 0
	for k, r := range run.recs {
		job := run.jobs[k]
		ok := !r.failed
		if ok {
			switch job.kind {
			case reqSkyline:
				fp, seen := parsed[r.hash]
				if !seen {
					fp = skylineBodyFP(run.bodies[r.hash])
					parsed[r.hash] = fp
				}
				lo, hi := window(r)
				ok = false
				for i := lo; i <= hi; i++ {
					ok = ok || fp == skyFP[i]
				}
			case reqQuery:
				if r.body == nil {
					break
				}
				var got struct {
					Count int   `json:"count"`
					Rows  []int `json:"rows"`
				}
				if json.Unmarshal(r.body, &got) != nil || got.Count != len(got.Rows) {
					ok = false
					break
				}
				lo, hi := window(r)
				ok = false
				for i := lo; i <= hi && !ok; i++ {
					key := fmt.Sprint(job.cols, i)
					want, seen := queryWant[key]
					if !seen {
						want = prefSkylineRows(rowsAt(i), job.cols)
						queryWant[key] = want
					}
					ok = equalInts(got.Rows, want)
				}
			case reqIngest:
				ok = r.ingested == job.block.Len()
			}
		}
		res.check(ok)
		if ok {
			completed++
		}
	}
	return completed
}

// skylineBodyFP fingerprints a /skyline response body; a malformed
// body gets a fingerprint no oracle set has.
func skylineBodyFP(body []byte) fingerprint {
	var v struct {
		Count  int         `json:"count"`
		Points [][]float64 `json:"points"`
	}
	if json.Unmarshal(body, &v) != nil || v.Count != len(v.Points) {
		return fingerprint{N: -1}
	}
	return fingerprintOf(v.Points)
}

// project returns the rows projected onto the preference columns,
// negating maximised attributes so smaller is always better.
func project(rows point.Block, cols []prefCol) []point.Point {
	n := rows.Len()
	flat := make([]float64, n*len(cols))
	out := make([]point.Point, n)
	for i := 0; i < n; i++ {
		p := flat[i*len(cols) : (i+1)*len(cols) : (i+1)*len(cols)]
		row := rows.Row(i)
		for k, c := range cols {
			p[k] = row[c.idx]
			if c.max {
				p[k] = -p[k]
			}
		}
		out[i] = p
	}
	return out
}

// prefSkylineRows is the /query oracle: the ascending indices of the
// rows whose projection is on seq.SB's skyline of all projections.
func prefSkylineRows(rows point.Block, cols []prefCol) []int {
	proj := project(rows, cols)
	onSky := map[fingerprint]bool{}
	for _, p := range seq.SB(proj, nil) {
		onSky[fingerprintOf([]point.Point{p})] = true
	}
	var out []int
	for i, p := range proj {
		if onSky[fingerprintOf([]point.Point{p})] {
			out = append(out, i)
		}
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// latencies records per-route latency, each timed from its due time.
func (run *serveRun) latencies(res *result) {
	by := map[byte]samples{}
	for k, r := range run.recs {
		if !r.failed {
			kind := run.jobs[k].kind
			by[kind] = append(by[kind], ms(r.done.Sub(r.due)))
		}
	}
	res.latency("skyline", by[reqSkyline])
	res.latency("query", by[reqQuery])
	res.latency("write", by[reqIngest])
}

// layers reports the traced run's server, maintain and harness
// metrics, and times the layers under /query and /ingest directly.
func (run *serveRun) layers(res *result, tr *tracer) error {
	var hits, lookups, ingested, onSky int
	var respKB samples
	for k, r := range run.recs {
		if r.cache != "" {
			lookups++
			if r.cache == "hit" {
				hits++
			}
		}
		switch run.jobs[k].kind {
		case reqQuery:
			if !r.failed {
				respKB = append(respKB, float64(r.size)/1024)
			}
		case reqIngest:
			ingested += r.ingested
			onSky += r.onSky
		}
	}
	frac := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	res.layer("server.cache_hit_frac", frac(hits, lookups), lookups)
	res.layer("server.admission_rejects", promSum(run.rig.svc.Metrics(), "zsky_admission_rejects_total"), 1)
	res.layer("server.resp_kb_per_query", respKB.mean(), len(respKB))
	res.layer("maintain.accept_frac", frac(onSky, ingested), ingested)
	res.layer("harness.late_p99_ms", run.late.quantile(0.99), len(run.late))

	// Probe the layers under the routes on fresh copies of the data, so
	// the measured service is never written by a probe.
	var blocks []point.Block
	var queries [][]prefCol
	for _, j := range run.jobs {
		switch j.kind {
		case reqIngest:
			blocks = append(blocks, j.block)
		case reqQuery:
			if len(queries) < 9 {
				queries = append(queries, j.cols)
			}
		}
	}
	var solve samples
	for _, cols := range queries {
		proj := project(run.init, cols)
		sp := tr.begin("seq.SB(query projection)", noSpan)
		t0 := time.Now()
		seq.SB(proj, nil)
		solve = append(solve, ms(time.Since(t0)))
		tr.end(sp)
	}
	res.layer("seq.query_solve_ms", solve.median(), len(solve))

	svc := server.NewService(server.Config{})
	e, err := svc.CreateDataset(server.DatasetSpec{Name: "probe", Attrs: attrNames(run.spec.d)})
	if err != nil {
		return err
	}
	if _, err := svc.Ingest(e, run.init); err != nil {
		return err
	}
	mins, maxs := unitBox(run.spec.d)
	m, err := maintain.New(run.spec.d, 16, mins, maxs)
	if err != nil {
		return err
	}
	if _, err := m.InsertBlock(run.init); err != nil {
		return err
	}
	var direct, insert samples
	for _, b := range blocks {
		sp := tr.begin("server.Service.Ingest", noSpan)
		t0 := time.Now()
		_, err := svc.Ingest(e, b)
		direct = append(direct, ms(time.Since(t0)))
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("maintain.InsertBlock", noSpan)
		t0 = time.Now()
		_, err = m.InsertBlock(b)
		insert = append(insert, ms(time.Since(t0)))
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	if len(blocks) == 0 {
		return errors.New("serve-churn: the plan has no ingests")
	}
	res.layer("server.ingest_direct_ms", direct.median(), len(direct))
	res.layer("maintain.insert_ms", insert.median(), len(insert))
	return nil
}

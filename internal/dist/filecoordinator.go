package dist

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"zskyline/internal/codec"
	"zskyline/internal/obs"
	"zskyline/internal/plan"
	"zskyline/internal/point"
	"zskyline/internal/sample"
)

// SkylineFile computes the skyline of a ZSKY binary file without ever
// loading it into the coordinator's memory: pass 1 streams the file to
// learn the bounding box and a reservoir sample (phase 1's input),
// pass 2 streams chunks straight to the workers' MapChunk RPCs, and
// under a non-transitive relation pass 3 streams it once more to close
// the merged candidates (plan.VerifyCandidates). This
// is the deployment shape for datasets larger than the coordinator —
// the same regime the paper's HDFS-resident inputs live in.
func (c *Coordinator) SkylineFile(ctx context.Context, path string) (_ []point.Point, _ *Report, retErr error) {
	rep := &Report{Workers: len(c.addrs)}
	start := time.Now()

	// One "query" event per run, joined by request ID to the "rpc"
	// events the streamed map calls record (same shape as Skyline).
	id := obs.RequestIDFrom(ctx)
	if id == "" {
		id = obs.NewRequestID()
		ctx = obs.ContextWithRequestID(ctx, id)
	}
	ev := &obs.Event{
		ID:        id,
		Kind:      "query",
		Route:     "dist/skyline-file",
		Query:     "file:" + path,
		Dominance: c.cfg.Dominance.String(),
	}
	wireBefore := c.WireStats()
	results := 0
	defer func() {
		ev.DurationMS = float64(time.Since(start).Microseconds()) / 1000
		ev.SetPhase("preprocess", rep.Preprocess)
		ev.SetPhase("phase2", rep.Phase2)
		ev.SetPhase("phase3", rep.Phase3)
		for i, ws := range c.WireStats() {
			ev.WireSentBytes += ws.Sent - wireBefore[i].Sent
			ev.WireRecvBytes += ws.Recv - wireBefore[i].Recv
		}
		ev.SetResults(results)
		if retErr != nil {
			ev.SetError(className(classify(retErr)), retErr.Error())
			c.events.RecordForced(*ev)
			return
		}
		c.events.Record(*ev)
	}()

	// ---- Pass 1: bounds + reservoir sample + count ----
	t0 := time.Now()
	dims, n, mins, maxs, smp, err := c.scanFile(path)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, rep, nil
	}

	// ---- Phase 1 on the sample (identical to the in-memory path) ----
	r, err := plan.Learn(c.cfg.spec(), dims, mins, maxs, smp, nil)
	if err != nil {
		return nil, nil, err
	}
	ex := &rpcExec{c: c}
	if err := ex.Broadcast(ctx, r); err != nil {
		return nil, nil, err
	}
	rep.Preprocess = time.Since(t0)
	rep.Partitions = r.Partitions()
	rep.Groups = r.Groups()

	// ---- Pass 2 / phase 2: stream chunks to workers ----
	t1 := time.Now()
	mapOuts, err := c.streamMap(ctx, path, ex.ruleID)
	if err != nil {
		return nil, nil, err
	}
	groups, filtered := plan.Shuffle(mapOuts)
	rep.Filtered = filtered
	groups, err = ex.RunReduces(ctx, r, groups, nil)
	if err != nil {
		return nil, nil, err
	}
	for _, g := range groups {
		rep.Candidates += g.Len()
	}
	rep.Phase2 = time.Since(t1)

	// ---- Phase 3 ----
	t2 := time.Now()
	sky, err := plan.MergePhase(ctx, ex, r, groups, c.cfg.TreeMerge, nil)
	if err != nil {
		return nil, nil, err
	}
	// A non-transitive relation leaves a candidate superset: close it
	// by streaming the file a third time, batch by batch.
	sky, err = plan.VerifyCandidates(ctx, r.Provider(), sky, func(visit func(point.Block)) error {
		return c.eachBlock(path, nil, visit)
	}, nil)
	if err != nil {
		return nil, nil, err
	}
	rep.Phase3 = time.Since(t2)
	rep.Total = time.Since(start)
	rep.Wire = c.WireStats()
	results = len(sky)
	return sky, rep, nil
}

// scanFile streams the file once for dims, count, bounds and a
// reservoir sample sized by the configured ratio (estimated from the
// header's point count).
func (c *Coordinator) scanFile(path string) (dims int, n int64, mins, maxs []float64, smp []point.Point, err error) {
	var res *sample.Stream
	err = c.eachBlock(path, func(br *codec.BinaryReader) error {
		dims = br.Dims()
		k := int(c.cfg.SampleRatio * float64(br.Remaining()))
		if k < 64 {
			k = 64
		}
		var err error
		res, err = sample.NewStream(k, c.cfg.Seed)
		return err
	}, func(batch point.Block) {
		mins, maxs = batch.UpdateBounds(mins, maxs)
		res.AddBlock(batch)
		n += int64(batch.Len())
	})
	if err != nil {
		return 0, 0, nil, nil, nil, err
	}
	if n > 0 && len(res.Sample()) == 0 {
		return 0, 0, nil, nil, nil, fmt.Errorf("dist: empty sample from %d points", n)
	}
	return dims, n, mins, maxs, res.Sample(), nil
}

// eachBlock streams the ZSKY file at path in ChunkSize batches: start
// (when non-nil) sees the reader once the header is read, then visit
// sees every batch in file order.
func (c *Coordinator) eachBlock(path string, start func(*codec.BinaryReader) error, visit func(point.Block)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	br, err := codec.NewBinaryReader(f)
	if err != nil {
		return err
	}
	if start != nil {
		if err := start(br); err != nil {
			return err
		}
	}
	for {
		batch, err := br.NextBlock(c.cfg.ChunkSize)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		visit(batch)
	}
}

// streamMap streams the file's chunks to the workers through forEach,
// so coordinator memory holds at most workers+1 batches at any moment.
func (c *Coordinator) streamMap(ctx context.Context, path string, ruleID uint64) ([]plan.MapOutput, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br, err := codec.NewBinaryReader(f)
	if err != nil {
		return nil, err
	}
	next := func() (point.Block, bool, error) {
		batch, err := br.NextBlock(c.cfg.ChunkSize)
		if err == io.EOF {
			return batch, false, nil
		}
		return batch, err == nil, err
	}
	var (
		mu   sync.Mutex
		outs []plan.MapOutput
	)
	err = forEach(ctx, c, next, func(batch point.Block, worker int) error {
		var reply MapReply
		if _, err := c.call(ctx, "Worker.MapChunk", MapArgs{RuleID: ruleID, Block: batch},
			&reply, callOpts{first: worker}); err != nil {
			return err
		}
		mu.Lock()
		outs = append(outs, plan.MapOutput{Groups: reply.Groups, Filtered: reply.Filtered})
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

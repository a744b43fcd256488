package plan

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"zskyline/internal/metrics"
	"zskyline/internal/point"
)

// Executor runs the pipeline's tasks on some substrate. Implementations
// decide placement, transport, and fault handling; the phase semantics
// stay in plan. Bulk data crosses the interface as point.Blocks —
// contiguous batches that substrates can ship as single payloads.
//
// Error contract: the driver (Run, MergePhase) returns
// executor errors unwrapped, so typed sentinels an implementation
// exposes stay matchable with errors.Is at the API boundary — the
// dist executor's ErrClusterDown is the worked example. Transient
// substrate faults (lost connections, timed-out calls, worker
// restarts) are the executor's to absorb: retry, failover, and
// re-broadcast happen below this interface, and an error returned
// from a Run* method means the phase is unrecoverable, not merely
// that a task needed a second attempt. Every task is a deterministic
// function of the Rule and its input, so executors may freely re-run
// or duplicate tasks without changing the answer. Implementations
// must also honor ctx cancellation and return ctx.Err() promptly.
type Executor interface {
	// Broadcast installs the rule wherever tasks will run (the paper's
	// distributed-cache step). In-process executors may no-op.
	Broadcast(ctx context.Context, r *Rule) error
	// RunMaps executes r.MapBlock over each chunk.
	RunMaps(ctx context.Context, r *Rule, chunks []point.Block, tally *metrics.Tally) ([]MapOutput, error)
	// RunReduces executes r.LocalSkylineGroup over each group, preserving
	// group order and ids.
	RunReduces(ctx context.Context, r *Rule, groups []Group, tally *metrics.Tally) ([]Group, error)
	// RunMerges executes r.MergeGroupsZ once per task, preserving task
	// order. Results are Groups so the merged candidates keep their
	// Z-address columns across tree-merge rounds; executors that cannot
	// carry a column may return groups without one.
	RunMerges(ctx context.Context, r *Rule, tasks [][]Group, tally *metrics.Tally) ([]Group, error)
}

// MapReducer is an optional Executor refinement for substrates with a
// native shuffle (the MapReduce simulator): one fused call replaces
// RunMaps + Shuffle + RunReduces for phase 2, so the substrate keeps
// its own shuffle accounting. chunks are the same row-range chunks
// RunMaps would receive. Groups must come back in deterministic order
// with their candidate points; filtered is the mapper-side drop count.
//
// Observability contract: because the fused call bypasses runPhase2's
// span emission, implementations must attach the taxonomy's "map" and
// "local-skyline" spans to ctx's current span themselves (e.g. with
// Span.ChildAt from measured phase walls), so traces stay structurally
// identical across substrates.
type MapReducer interface {
	MapReduce(ctx context.Context, r *Rule, chunks []point.Block, tally *metrics.Tally) (groups []Group, filtered int64, err error)
}

// LocalExec runs tasks on a bounded pool of goroutines in-process —
// the shared-memory substrate.
type LocalExec struct {
	workers int
}

// NewLocalExec builds a pool executor; workers <= 0 selects GOMAXPROCS.
func NewLocalExec(workers int) *LocalExec {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &LocalExec{workers: workers}
}

// Broadcast is a no-op in-process.
func (ex *LocalExec) Broadcast(ctx context.Context, _ *Rule) error { return ctx.Err() }

// run fans f over n indices with bounded concurrency. Admission stops
// the moment ctx is done — a task waiting for a pool slot is never
// dispatched after cancellation — and a panic inside f is recovered
// into the returned error instead of killing the process.
func (ex *LocalExec) run(ctx context.Context, n int, f func(i int)) error {
	sem := make(chan struct{}, ex.workers)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	setErr := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for i := 0; i < n; i++ {
		// The explicit check keeps admission-stop deterministic: a select
		// with both channels ready picks randomly.
		if err := ctx.Err(); err != nil {
			wg.Wait()
			setErr(err)
			return firstErr
		}
		select {
		case <-ctx.Done():
			wg.Wait()
			setErr(ctx.Err())
			return firstErr
		case sem <- struct{}{}:
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			defer func() {
				if p := recover(); p != nil {
					setErr(fmt.Errorf("plan: task %d panicked: %v", i, p))
				}
			}()
			f(i)
		}(i)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	return firstErr
}

// RunMaps implements Executor.
func (ex *LocalExec) RunMaps(ctx context.Context, r *Rule, chunks []point.Block, tally *metrics.Tally) ([]MapOutput, error) {
	outs := make([]MapOutput, len(chunks))
	err := ex.run(ctx, len(chunks), func(i int) {
		outs[i] = r.MapBlock(chunks[i], tally)
	})
	return outs, err
}

// RunReduces implements Executor.
func (ex *LocalExec) RunReduces(ctx context.Context, r *Rule, groups []Group, tally *metrics.Tally) ([]Group, error) {
	outs := make([]Group, len(groups))
	err := ex.run(ctx, len(groups), func(i int) {
		outs[i] = r.LocalSkylineGroup(groups[i], tally)
	})
	return outs, err
}

// RunMerges implements Executor.
func (ex *LocalExec) RunMerges(ctx context.Context, r *Rule, tasks [][]Group, tally *metrics.Tally) ([]Group, error) {
	outs := make([]Group, len(tasks))
	err := ex.run(ctx, len(tasks), func(i int) {
		outs[i] = r.MergeGroupsZ(tasks[i], tally)
	})
	return outs, err
}

package plan

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"zskyline/internal/gen"
)

// A cancelled context must stop task admission: with a single-worker
// pool and a task that cancels the context, tasks queued behind it
// must never be dispatched.
func TestLocalExecStopsAdmissionOnCancel(t *testing.T) {
	ex := NewLocalExec(1)
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := ex.run(ctx, 100, func(i int) {
		ran.Add(1)
		if i == 0 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Task 0 ran and cancelled; admission may already have committed a
	// small number of follow-ups racing the cancel, but nothing close
	// to the full fan-out.
	if n := ran.Load(); n == 0 || n > 10 {
		t.Errorf("%d tasks ran after cancellation, want a handful at most", n)
	}
}

// A panicking task must surface as an error on the calling goroutine,
// not kill the process, and must not wedge the pool.
func TestLocalExecRecoversPanic(t *testing.T) {
	ex := NewLocalExec(4)
	err := ex.run(context.Background(), 8, func(i int) {
		if i == 5 {
			panic("boom")
		}
	})
	if err == nil || !strings.Contains(err.Error(), "task 5 panicked: boom") {
		t.Fatalf("err = %v, want task-5 panic error", err)
	}
	// The pool is reusable after a panic.
	if err := ex.run(context.Background(), 4, func(int) {}); err != nil {
		t.Fatalf("pool wedged after panic: %v", err)
	}
}

// Multi-block ingest with small map chunks must produce the same
// skyline as the default single-block run (same seed, same spec).
func TestRunChunkSizeKeepsSkyline(t *testing.T) {
	const n, d, seed = 3000, 4, 17
	ds := gen.Synthetic(gen.AntiCorrelated, n, d, seed)
	want, _, err := Run(context.Background(), validSpec(), ds, NewLocalExec(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := validSpec()
	spec.ChunkSize = 700 // five ingest blocks, one map task each
	got, rep, err := Run(context.Background(), spec, ds, NewLocalExec(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, want, "chunked-vs-default")
	if rep.SkylineSize != len(want) {
		t.Errorf("report skyline = %d, want %d", rep.SkylineSize, len(want))
	}
}

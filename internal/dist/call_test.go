package dist

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"zskyline/internal/gen"
	"zskyline/internal/obs"
	"zskyline/internal/seq"
	"zskyline/internal/transport"
)

// engineRig is a two-group cluster ({0,1}, {2,3}; shard 0 on group 0,
// shard 1 on group 1) whose worker 2 optionally runs a fault plan. The
// engine matrix drives every call at worker 2.
type engineRig struct {
	c       *Cluster
	servers []*WorkerServer
}

func newEngineRig(t *testing.T, faults *FaultPlan) *engineRig {
	t.Helper()
	rig := &engineRig{}
	var addrs []string
	for i := 0; i < 4; i++ {
		var opts WorkerOptions
		if i == 2 {
			opts.Faults = faults
		}
		ws, err := StartWorkerWithOptions("127.0.0.1:0", opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ws.Close() })
		rig.servers = append(rig.servers, ws)
		addrs = append(addrs, ws.Addr())
	}
	cfg := testClusterConfig(3)
	cfg.Retries = 2
	cfg.RPCTimeout = 2 * time.Second
	cfg.RedialInterval = -1 // a failed worker stays dead: attempt counts are exact
	c, err := NewCluster(context.Background(), cfg, [][]string{addrs[:2], addrs[2:]})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	rig.c = c
	insertBatches(t, c, gen.Synthetic(gen.Independent, 400, 3, 5).Points, 400)
	return rig
}

// counterValue reads one labelled counter of the cluster's registry.
func (rig *engineRig) counterValue(name string, labels ...obs.Label) int64 {
	return rig.c.Metrics().Counter(name, labels...).Value()
}

// TestCallEngineMatrix runs the one call engine over every pool kind
// and injected outcome, checking the returned error's identity, the
// serving worker, the attempt count on the call's single rpc event,
// and the error/retry counter deltas. The pinned pool never fails over
// and never waits on liveness; the all-workers and group pools rotate
// to the successor of the failed worker within the pool and end in
// their own "down" sentinel.
func TestCallEngineMatrix(t *testing.T) {
	type pool struct {
		name string
		opts callOpts
		down error // the sentinel when no member can serve
	}
	pools := []pool{
		{"all", callOpts{first: 2}, ErrClusterDown},
		{"group", callOpts{pool: []int{2, 3}, first: 2}, ErrShardDown},
		{"pinned", callOpts{first: 2, pinned: true}, nil},
	}
	// expect is one cell's verdict. err is "" for success, "down" for
	// the pool's sentinel, else the class of the passed-through error;
	// errs counts failed attempts of the outcome's class.
	type expect struct {
		served, attempts int
		err              string
		errs, retries    int64
	}
	same := func(e expect) func(pool) expect { return func(pool) expect { return e } }
	pinnedOr := func(pinned, other expect) func(pool) expect {
		return func(p pool) expect {
			if p.opts.pinned {
				return pinned
			}
			return other
		}
	}
	// With resurrection off a severed or closed worker never comes back,
	// so a pinned call spends its whole budget (Retries = 2) on it.
	exhausted := expect{served: 2, attempts: 3, err: "retryable", errs: 3, retries: 2}
	outcomes := []struct {
		name, class string
		faults      string               // fault plan on worker 2
		arm         func(rig *engineRig) // worker state before the call
		method      string
		shard       int
		want        func(pool) expect
	}{
		{name: "ok", method: "Worker.ShardSkyline", shard: 1,
			want: same(expect{served: 2, attempts: 1})},
		{name: "retryable-sever", class: "retryable", faults: "Worker.ShardSkyline:1:sever",
			method: "Worker.ShardSkyline", shard: 1,
			want: pinnedOr(exhausted, expect{served: 3, attempts: 2, errs: 1, retries: 1})},
		{name: "rule-missing", class: "rule-missing", method: "Worker.ShardSkyline", shard: 1,
			arm: func(rig *engineRig) {
				w := rig.servers[2].worker
				w.mu.Lock()
				delete(w.rules, rig.c.ruleID)
				w.mu.Unlock()
			},
			want: pinnedOr(expect{served: 2, attempts: 2, errs: 1, retries: 1},
				expect{served: 3, attempts: 2, errs: 1, retries: 1})},
		{name: "shard-moved", class: "shard-moved", method: "Worker.ShardSkyline", shard: 0,
			want: same(expect{served: 2, attempts: 1, err: "shard-moved", errs: 1})},
		{name: "fatal", class: "fatal", method: "Worker.PullShard", shard: 1,
			want: same(expect{served: 2, attempts: 1, err: "fatal", errs: 1})},
		{name: "all-dead", class: "retryable", method: "Worker.ShardSkyline", shard: 1,
			arm: func(rig *engineRig) {
				for _, ws := range rig.servers {
					ws.Close()
				}
				in := rig.c.inner
				in.mu.Lock()
				for w := range in.addrs {
					in.setStateLocked(w, wsDead)
				}
				in.mu.Unlock()
			},
			want: pinnedOr(exhausted, expect{served: -1, err: "down"})},
	}
	for _, o := range outcomes {
		for _, p := range pools {
			t.Run(o.name+"/"+p.name, func(t *testing.T) {
				var faults *FaultPlan
				if o.faults != "" {
					var err error
					if faults, err = ParseFaultPlan(o.faults); err != nil {
						t.Fatal(err)
					}
				}
				rig := newEngineRig(t, faults)
				if o.arm != nil {
					o.arm(rig)
				}
				want := o.want(p)
				method := obs.L("method", o.method)
				class := obs.L("class", o.class)
				errsBefore := rig.counterValue("zsky_dist_rpc_errors_total", method, class)
				retriesBefore := rig.counterValue("zsky_dist_retries_total", method)

				var args transport.Marshaler = ShardSkyArgs{RuleID: rig.c.ruleID, MapVersion: 1, ShardID: o.shard}
				var reply transport.Unmarshaler = &ShardSkyReply{}
				if o.method == "Worker.PullShard" {
					// A cursor before the list start is a worker verdict.
					args, reply = PullShardArgs{ShardID: o.shard, Cursor: -1}, &PullShardReply{}
				}
				served, err := rig.c.inner.call(context.Background(), o.method, args, reply, p.opts)

				if served != want.served {
					t.Errorf("served by %d, want %d", served, want.served)
				}
				switch want.err {
				case "":
					if err != nil {
						t.Errorf("call failed: %v", err)
					}
				case "down":
					if !errors.Is(err, p.down) {
						t.Errorf("error %v, want %v", err, p.down)
					}
				default:
					if err == nil {
						t.Fatal("call succeeded")
					}
					if errors.Is(err, ErrClusterDown) || errors.Is(err, ErrShardDown) {
						t.Errorf("error %v carries a down sentinel", err)
					}
					if got := className(classify(err)); got != want.err {
						t.Errorf("error %v classified %s, want %s", err, got, want.err)
					}
					var se transport.ServerError
					if want.err == "fatal" && !errors.As(err, &se) {
						t.Errorf("fatal verdict %v not passed through", err)
					}
				}

				var events []obs.Event
				for _, ev := range rig.c.Events().Snapshot() {
					if ev.Kind == "rpc" && ev.Route == o.method {
						events = append(events, ev)
					}
				}
				if len(events) != 1 {
					t.Fatalf("%d rpc events for %s, want exactly 1", len(events), o.method)
				}
				if events[0].Attempts != want.attempts {
					t.Errorf("event attempts %d, want %d", events[0].Attempts, want.attempts)
				}
				wantAddr := ""
				if want.served >= 0 {
					wantAddr = rig.servers[want.served].Addr()
				}
				if events[0].Worker != wantAddr {
					t.Errorf("event worker %q, want %q", events[0].Worker, wantAddr)
				}
				if d := rig.counterValue("zsky_dist_rpc_errors_total", method, class) - errsBefore; d != want.errs {
					t.Errorf("rpc_errors_total{class=%q} moved by %d, want %d", o.class, d, want.errs)
				}
				if d := rig.counterValue("zsky_dist_retries_total", method) - retriesBefore; d != want.retries {
					t.Errorf("retries_total moved by %d, want %d", d, want.retries)
				}
			})
		}
	}
}

// TestHandoffSeveredPullIsOneRPC severs the first PullShard of a
// handoff: the fetch of that cursor is one logical call, so it leaves
// exactly one Worker.PullShard event (carrying both attempts) and the
// retry is counted like every other method's.
func TestHandoffSeveredPullIsOneRPC(t *testing.T) {
	faults := NewFaultPlan(FaultRule{Method: "Worker.PullShard", Nth: 1, Action: FaultSever})
	wa, err := StartWorkerWithOptions("127.0.0.1:0", WorkerOptions{Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wa.Close() })
	wb, err := StartWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wb.Close() })
	g1, _ := startGroup(t, 1)
	cfg := testClusterConfig(3)
	cfg.RedialInterval = 50 * time.Millisecond
	c, err := NewCluster(context.Background(), cfg, [][]string{{wa.Addr(), wb.Addr()}, g1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// One insert below PullRows: shard 0 streams in a single batch, so
	// the handoff makes exactly one logical pull.
	ds := gen.Synthetic(gen.Independent, 200, 3, 71)
	if err := c.Insert(context.Background(), ds.Points); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Handoff(context.Background(), 0, 1); err != nil {
		t.Fatal(err)
	}
	if faults.Injected() != 1 {
		t.Fatalf("sever fired %d times, want 1", faults.Injected())
	}
	var pulls []obs.Event
	for _, ev := range c.Events().Snapshot() {
		if ev.Kind == "rpc" && ev.Route == "Worker.PullShard" {
			pulls = append(pulls, ev)
		}
	}
	if len(pulls) != 1 {
		t.Fatalf("%d Worker.PullShard events for one cursor, want 1: %+v", len(pulls), pulls)
	}
	if pulls[0].Attempts < 2 || pulls[0].Error != "" || pulls[0].Worker != wb.Addr() {
		t.Errorf("pull event %+v: want >= 2 attempts, no error, served by %s", pulls[0], wb.Addr())
	}
	if n := c.Metrics().Counter("zsky_dist_retries_total", obs.L("method", "Worker.PullShard")).Value(); n < 1 {
		t.Errorf("zsky_dist_retries_total{method=Worker.PullShard} = %d, want >= 1", n)
	}
	got, _, err := c.Skyline(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameSet(t, got, seq.SB(ds.Points, nil), "after severed pull")
}

// TestCloseLeaksNoGoroutines builds, uses and closes a Coordinator —
// including a hedged merge whose losing leg is a delayed straggler —
// and a Cluster over loopback workers, then requires the goroutine
// count to settle back to where it started.
func TestCloseLeaksNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	func() {
		slow := NewFaultPlan(FaultRule{Method: "Worker.MergeGroups", Nth: 1, Action: FaultDelay, Delay: 300 * time.Millisecond})
		ws0, err := StartWorkerWithOptions("127.0.0.1:0", WorkerOptions{Faults: slow})
		if err != nil {
			t.Fatal(err)
		}
		defer ws0.Close()
		ws1, err := StartWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ws1.Close()
		cfg := ftConfig()
		cfg.Hedge = 20 * time.Millisecond
		coord, err := NewCoordinator(cfg, []string{ws0.Addr(), ws1.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		ds := gen.Synthetic(gen.AntiCorrelated, 2000, 3, 17)
		got, _, err := coord.Skyline(context.Background(), ds)
		if err != nil {
			t.Fatal(err)
		}
		sameSet(t, got, seq.SB(ds.Points, nil), "hedged skyline")
		if n := coord.Metrics().Counter("zsky_dist_hedge_wins_total", obs.L("method", "Worker.MergeGroups")).Value(); n < 1 {
			t.Fatalf("hedge wins = %d: the straggler leg never lost", n)
		}
		coord.Close()

		g0, servers := startGroup(t, 2)
		defer func() {
			for _, ws := range servers {
				ws.Close()
			}
		}()
		c, err := NewCluster(context.Background(), testClusterConfig(3), [][]string{g0})
		if err != nil {
			t.Fatal(err)
		}
		insertBatches(t, c, ds.Points, 500)
		if _, _, err := c.Skyline(context.Background()); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

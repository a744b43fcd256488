package dist

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"zskyline/internal/obs"
	"zskyline/internal/transport"
)

// The call engine: every RPC the coordinator and the cluster issue on a
// query's or an operation's behalf runs through call, one policy loop
// parameterised by a member pool. Per attempt it picks a live pool
// member (or the pinned one), runs one possibly hedged leg pair,
// classifies the outcome and either returns, cures and retries, or
// gives up:
//
//	ok            return the serving worker
//	fatal         return the error unchanged (identical elsewhere)
//	shard-moved   return it: only the caller can re-read the shard map
//	rule-missing  re-send the rule to the worker that served, then retry
//	retryable     (the leg already suspected the worker) retry
//
// Every retry bumps zsky_dist_retries_total, sleeps the jittered
// backoff and restarts the rotation from the successor of the last
// serving worker within the pool. A call makes at most retries+1
// attempts; a pool with no member left that can come back ends it
// with ErrClusterDown (every worker) or ErrShardDown (a group).

// callOpts tunes one engine call.
type callOpts struct {
	// pool is the member set attempts and hedge legs may run on: nil is
	// every worker, otherwise a group's fresh members.
	pool []int
	// first is the worker tried first — the scheduler's reservation or
	// the pinned replica. A worker outside the pool yields to its head.
	first int
	// pinned confines every attempt to first whatever its liveness
	// state: a replica write must land on that member or the member
	// goes stale, so it never waits for a resurrection sweep.
	pinned bool
	// hedge allows a speculative duplicate on a second pool member
	// after the policy's hedge delay (idempotent reads only: reduce,
	// merge and shard skylines, which are few and cheap to duplicate).
	hedge bool
	// pol, when non-nil, overrides the coordinator's policy: per-shard
	// settings, or c.once for single-attempt offers.
	pol *policy
}

// call invokes one worker method under the full policy and returns the
// index of the worker that served it. It records exactly one per-RPC
// span and "rpc" event, however many attempts and legs it took.
func (c *Coordinator) call(ctx context.Context, method string, args transport.Marshaler, reply transport.Unmarshaler, opt callOpts) (served int, err error) {
	pol := &c.pol
	if opt.pol != nil {
		pol = opt.pol
	}
	tr, done := c.startRPC(ctx, method)
	defer func() { done(served, err) }()
	slot := position(opt.pool, opt.first)
	var lastErr error
	for n := 0; ; n++ {
		if ctx.Err() != nil {
			return -1, ctx.Err()
		}
		w := opt.first
		if !opt.pinned {
			if w, err = c.pickLive(ctx, opt.pool, slot); err != nil {
				if lastErr != nil {
					return -1, fmt.Errorf("dist: %s: %v: %w", method, lastErr, err)
				}
				return -1, fmt.Errorf("dist: %s: %w", method, err)
			}
		}
		served, err = c.attempt(ctx, method, args, reply, w, opt, pol, tr)
		tr.ev.SetAttempts(n + 1)
		if err == nil {
			if n > 0 {
				tr.sp.SetAttr("attempts", n+1)
			}
			return served, nil
		}
		lastErr = err
		class := classify(err)
		c.reg.Counter("zsky_dist_rpc_errors_total",
			obs.L("method", method), obs.L("class", className(class))).Add(1)
		if class == classFatal || class == classShardMoved || ctx.Err() != nil {
			return served, err
		}
		if class == classRuleMissing && served >= 0 {
			// The worker is alive but lost the rule (e.g. a process
			// restarted at the same address between sweeps): reinstall
			// it there before retrying.
			if rerr := c.resendRule(ctx, served); rerr != nil {
				c.markSuspect(served)
			}
		}
		if n >= pol.retries {
			return served, fmt.Errorf("dist: %s: attempts exhausted: %w", method, lastErr)
		}
		c.reg.Counter("zsky_dist_retries_total", obs.L("method", method)).Add(1)
		sleep(ctx, c.bo.delay(pol, n))
		if served >= 0 {
			slot = position(opt.pool, served) + 1
		}
	}
}

// position is w's rotation slot within pool (its worker index for the
// all-workers pool); a worker outside the pool maps to the head.
func position(pool []int, w int) int {
	if pool == nil {
		return w
	}
	for i, m := range pool {
		if m == w {
			return i
		}
	}
	return 0
}

// pickLive returns the first live pool member in rotation from slot,
// waiting out windows where members are suspect or resurrecting. It
// fails with ErrClusterDown (nil pool) or ErrShardDown once every
// member is confirmed dead.
func (c *Coordinator) pickLive(ctx context.Context, pool []int, slot int) (int, error) {
	n := len(pool)
	if pool == nil {
		n = len(c.addrs)
	}
	for {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return -1, errCoordinatorClosed
		}
		allDead := true
		for i := 0; i < n; i++ {
			w := (slot + i) % n
			if pool != nil {
				w = pool[w]
			}
			if c.state[w] == wsLive {
				c.mu.Unlock()
				return w, nil
			}
			if c.state[w] != wsDead {
				allDead = false
			}
		}
		if allDead {
			c.mu.Unlock()
			if pool == nil {
				return -1, ErrClusterDown
			}
			return -1, ErrShardDown
		}
		ch := c.changed
		c.mu.Unlock()
		select {
		case <-ctx.Done():
			return -1, ctx.Err()
		case <-ch:
		}
	}
}

// rpcTrace is one logical call's per-RPC span and "rpc" event; the
// legs annotate both with attempts, hedges and the winner's exact
// frame sizes.
type rpcTrace struct {
	sp *obs.Span
	ev *obs.Event
}

// startRPC opens one per-RPC child span under ctx's current span and
// one "rpc" event joined to the owning query via ctx's request ID. The
// returned closure records the serving worker (post-failover) and
// outcome, ends the span, and commits the event (errors bypass
// sampling). Events record even with tracing off — the span is simply
// nil then, and every span method tolerates that.
func (c *Coordinator) startRPC(ctx context.Context, method string) (rpcTrace, func(worker int, err error)) {
	tr := rpcTrace{
		sp: obs.SpanFrom(ctx).Child("rpc/" + method),
		ev: &obs.Event{
			ID:     obs.NewRequestID(),
			Parent: obs.RequestIDFrom(ctx),
			Kind:   "rpc",
			Route:  method,
		},
	}
	start := time.Now()
	return tr, func(worker int, err error) {
		if worker >= 0 && worker < len(c.addrs) {
			tr.sp.SetAttr("worker", c.addrs[worker])
			tr.ev.Worker = c.addrs[worker]
		}
		tr.sp.End()
		tr.ev.DurationMS = float64(time.Since(start).Microseconds()) / 1000
		if err != nil {
			tr.ev.SetError(className(classify(err)), err.Error())
			c.events.RecordForced(*tr.ev)
			return
		}
		c.events.Record(*tr.ev)
	}
}

// legRes is one attempt leg's outcome. call carries the finished
// transport call so the winner's exact frame sizes reach the span and
// event.
type legRes struct {
	w    int
	rv   transport.Unmarshaler
	call *transport.Call
	err  error
}

// attempt runs one (possibly hedged) attempt of a call. Each leg gets
// a fresh reply value so an abandoned straggler reply can never race a
// retry writing the caller's reply; the winner is copied out, along
// with its measured request/response frame sizes. A leg that fails
// with a transport error suspects its worker.
func (c *Coordinator) attempt(ctx context.Context, method string, args transport.Marshaler, reply transport.Unmarshaler, primary int, opt callOpts, pol *policy, tr rpcTrace) (int, error) {
	id, err := methodID(method)
	if err != nil {
		return -1, err
	}
	resCh := make(chan legRes, 2)
	leg := func(w int) {
		cl := c.client(w)
		if cl == nil {
			resCh <- legRes{w: w, err: errNotConnected}
			return
		}
		rv := newReplyLike(reply)
		call := cl.Go(id, args, rv, make(chan *transport.Call, 1))
		var timeout <-chan time.Time
		if pol.rpcTimeout > 0 {
			t := time.NewTimer(pol.rpcTimeout)
			defer t.Stop()
			timeout = t.C
		}
		select {
		case done := <-call.Done:
			resCh <- legRes{w: w, rv: rv, call: done, err: done.Err}
		case <-timeout:
			resCh <- legRes{w: w, err: errAttemptTimeout}
		case <-ctx.Done():
			resCh <- legRes{w: w, err: ctx.Err()}
		}
	}
	go leg(primary)
	legs := 1
	var hedgeC <-chan time.Time
	if opt.hedge && !opt.pinned && pol.hedge > 0 {
		t := time.NewTimer(pol.hedge)
		defer t.Stop()
		hedgeC = t.C
	}
	var lastErr error
	lastW := primary
	for {
		select {
		case r := <-resCh:
			if r.err == nil {
				copyReply(reply, r.rv)
				tr.sp.SetAttr("req_bytes", r.call.ReqBytes)
				tr.sp.SetAttr("resp_bytes", r.call.RespBytes)
				tr.ev.SetWire(r.call.ReqBytes, r.call.RespBytes)
				if r.w != primary {
					c.reg.Counter("zsky_dist_hedge_wins_total", obs.L("method", method)).Add(1)
					tr.sp.SetAttr("hedge_win", c.addrs[r.w])
				}
				return r.w, nil
			}
			if classify(r.err) == classRetryable {
				c.markSuspect(r.w)
			}
			lastErr, lastW = r.err, r.w
			if legs--; legs == 0 {
				return lastW, lastErr
			}
		case <-hedgeC:
			hedgeC = nil
			if w2, ok := c.pickLiveExcept(primary, opt.pool); ok {
				c.reg.Counter("zsky_dist_hedges_total", obs.L("method", method)).Add(1)
				tr.sp.SetAttr("hedged", c.addrs[w2])
				tr.ev.SetHedged()
				go leg(w2)
				legs++
			}
		case <-ctx.Done():
			return lastW, ctx.Err()
		}
	}
}

// newReplyLike allocates a fresh zero value of reply's pointee type.
// Reply values are always pointers to wire structs, so the fresh value
// satisfies the same Unmarshaler interface.
func newReplyLike(reply transport.Unmarshaler) transport.Unmarshaler {
	return reflect.New(reflect.TypeOf(reply).Elem()).Interface().(transport.Unmarshaler)
}

// copyReply copies the winning leg's reply into the caller's.
func copyReply(dst, src transport.Unmarshaler) {
	reflect.ValueOf(dst).Elem().Set(reflect.ValueOf(src).Elem())
}

// resendRule reinstalls the current rule on one worker: a pinned,
// single-attempt call like every broadcast offer.
func (c *Coordinator) resendRule(ctx context.Context, w int) error {
	c.mu.Lock()
	blob := c.lastRule
	c.mu.Unlock()
	if blob == nil {
		return fmt.Errorf("dist: no rule to re-broadcast")
	}
	_, err := c.call(ctx, "Worker.LoadRule", LoadRuleArgs{Rule: *blob}, &LoadRuleReply{}, c.offer(w))
	return err
}

// offer is the options of a pinned single-attempt call on worker w:
// broadcast offers, rule re-sends and inventory probes, where a miss is
// repaired elsewhere (resurrection replays the rule) rather than
// retried.
func (c *Coordinator) offer(w int) callOpts {
	return callOpts{first: w, pinned: true, pol: &c.once}
}

// Package window maintains the skyline of the most recent N points of
// a stream (a count-based sliding window). Unlike package maintain,
// points expire: an expiring point that was on the skyline may
// "resurrect" points it had been dominating, so the full window must
// be retained.
//
// The implementation keeps the window in a ring buffer and the current
// skyline in a ZB-tree. Arrivals update the tree incrementally (the
// cheap, common case); expiries of non-skyline points are free, while
// expiry of a skyline point triggers a recompute of the skyline from
// the live window — the classic lazy strategy, exact at every step and
// amortized well because most expiring points are not skyline points.
package window

import (
	"fmt"

	"zskyline/internal/dominance"
	"zskyline/internal/metrics"
	"zskyline/internal/point"
	"zskyline/internal/zbtree"
	"zskyline/internal/zorder"
)

// Skyline is a sliding-window skyline maintainer. Not safe for
// concurrent use; wrap with a mutex if shared.
type Skyline struct {
	enc      *zorder.Encoder
	prov     dominance.Provider
	capacity int
	ring     []point.Point
	head     int // index of the oldest point
	size     int
	sky      *zbtree.BlockTree
	tally    *metrics.Tally
	// dirty marks that the tree must be rebuilt from the ring before
	// the next read (set when a skyline point expired, and on every
	// push under a non-transitive relation — see Push).
	dirty bool
	subs  []func([]point.Point)
}

// New creates a window of the given capacity for dims-dimensional
// points over [mins, maxs].
func New(capacity, dims, bits int, mins, maxs []float64) (*Skyline, error) {
	return NewUnder(nil, capacity, dims, bits, mins, maxs)
}

// NewUnder creates a window that maintains the skyline under the given
// dominance provider (nil selects classic Pareto dominance). Unlike
// package maintain, any irreflexive relation is supported: the window
// retains all live points, so a non-transitive relation simply
// recomputes from the ring on every push instead of updating the tree
// incrementally (the incremental path tests arrivals only against the
// current skyline, which is conclusive only under transitivity).
func NewUnder(prov dominance.Provider, capacity, dims, bits int, mins, maxs []float64) (*Skyline, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("window: capacity must be positive, got %d", capacity)
	}
	enc, err := zorder.NewEncoder(dims, bits, mins, maxs)
	if err != nil {
		return nil, err
	}
	tally := &metrics.Tally{}
	if prov == nil {
		prov = dominance.Pareto{}
	}
	return &Skyline{
		enc:      enc,
		prov:     prov,
		capacity: capacity,
		ring:     make([]point.Point, capacity),
		sky:      zbtree.NewBlockTree(zbtree.NewStore(enc, point.Block{Dims: dims}), 0, prov, tally),
		tally:    tally,
	}, nil
}

// NewUnit creates a window over the unit hypercube.
func NewUnit(capacity, dims, bits int) (*Skyline, error) {
	mins := make([]float64, dims)
	maxs := make([]float64, dims)
	for i := range maxs {
		maxs[i] = 1
	}
	return New(capacity, dims, bits, mins, maxs)
}

// Len returns the number of live points in the window.
func (w *Skyline) Len() int { return w.size }

// Subscribe registers fn to be called after every Push that changes
// the skyline, with the new skyline (in Z-order; callers must not
// mutate it). Subscribing makes maintenance eager: detecting a change
// forces the lazy rebuild on every push.
func (w *Skyline) Subscribe(fn func([]point.Point)) {
	w.subs = append(w.subs, fn)
}

// Push appends p to the stream, expiring the oldest point if the
// window is full. It returns whether p is currently a skyline point.
func (w *Skyline) Push(p point.Point) (bool, error) {
	if len(p) != w.enc.Dims() {
		return false, fmt.Errorf("window: point has %d dims, want %d", len(p), w.enc.Dims())
	}
	var before []point.Point
	if len(w.subs) > 0 {
		before = w.Current()
	}
	on, err := w.push(p)
	if err != nil {
		return false, err
	}
	if len(w.subs) > 0 {
		after := w.Current()
		if !sameZOrdered(before, after) {
			for _, fn := range w.subs {
				fn(after)
			}
		}
	}
	return on, nil
}

func (w *Skyline) push(p point.Point) (bool, error) {
	// A non-transitive relation invalidates both incremental shortcuts:
	// an arrival undominated by the skyline may still be dominated by a
	// live non-skyline point, and a non-skyline expiry may resurrect
	// points only it was dominating. Recompute from the ring instead.
	if !w.prov.Caps().Transitive {
		w.dirty = true
	}
	// Expire the oldest point first.
	if w.size == w.capacity {
		old := w.ring[w.head]
		w.ring[w.head] = nil
		w.head = (w.head + 1) % w.capacity
		w.size--
		if !w.dirty && w.contains(old) {
			// A skyline point left the window: lazily rebuild.
			w.dirty = true
		}
	}
	w.ring[(w.head+w.size)%w.capacity] = p
	w.size++

	g := w.enc.Grid(p)
	if w.dirty {
		// The rebuild recomputes the exact skyline of the live window,
		// which already includes p — do not insert it a second time.
		w.rebuild()
		if !w.prov.Caps().Transitive {
			// The tree holds the exact skyline; membership is
			// coordinate-determined, so a coordinate match decides.
			return w.contains(p), nil
		}
		return !w.sky.DominatesPoint(g, p), nil
	}
	// Incremental arrival: if p is dominated by the current skyline it
	// changes nothing; otherwise it evicts what it dominates and joins.
	// Sound for transitive relations only (see push's dirty rule).
	if w.sky.DominatesPoint(g, p) {
		return false, nil
	}
	w.sky.RemoveDominatedBy(g, p)
	// Rebuild-and-insert keeps the tree balanced and sidesteps the
	// append-only Z-order restriction for out-of-order arrivals; the
	// survivors keep their Z-addresses, only p is encoded.
	liveB, liveZ := w.sky.Compact()
	st, _ := zbtree.StoreOf(w.enc, []point.Block{liveB, point.BlockOf(len(p), []point.Point{p})}, []zorder.ZCol{liveZ, {}})
	w.sky = zbtree.BuildStore(st, 0, w.prov, w.tally)
	return true, nil
}

// contains reports whether the current skyline holds a point with
// exactly p's coordinates.
func (w *Skyline) contains(p point.Point) bool {
	for _, q := range w.sky.Points() {
		if q.Equal(p) {
			return true
		}
	}
	return false
}

// Live returns the window's live points, oldest first. The serving
// tier queries it directly (subspace preference queries need the full
// live set, not just the skyline).
func (w *Skyline) Live() []point.Point {
	live := make([]point.Point, 0, w.size)
	for i := 0; i < w.size; i++ {
		live = append(live, w.ring[(w.head+i)%w.capacity])
	}
	return live
}

// rebuild recomputes the skyline from the live window.
func (w *Skyline) rebuild() {
	blk, zc := zbtree.ZSearchGroup(w.prov, w.enc, 0, point.BlockOf(w.enc.Dims(), w.Live()), zorder.ZCol{}, w.tally)
	w.sky = zbtree.BuildStore(zbtree.NewStoreWithZCol(w.enc, blk, zc), 0, w.prov, w.tally)
	w.dirty = false
}

// sameZOrdered compares two skyline snapshots, both read off a ZB-tree
// and therefore in Z-order, so equal sets compare equal element-wise.
func sameZOrdered(a, b []point.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// Current returns the skyline of the live window.
func (w *Skyline) Current() []point.Point {
	if w.dirty {
		w.rebuild()
	}
	return w.sky.Points()
}

// Stats exposes the accumulated test counters.
func (w *Skyline) Stats() metrics.Snapshot { return w.tally.Snapshot() }

package zskyline

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"zskyline/internal/core"
	"zskyline/internal/point"
)

// Direction states which way an attribute is preferred.
type Direction int

// Preference directions.
const (
	// Min prefers smaller values (price, distance, latency).
	Min Direction = iota
	// Max prefers larger values (rating, throughput).
	Max
	// Ignore excludes the attribute from dominance comparison — the
	// subspace-skyline case.
	Ignore
)

// String names the direction.
func (d Direction) String() string {
	switch d {
	case Min:
		return "min"
	case Max:
		return "max"
	default:
		return "ignore"
	}
}

// Pref is one attribute preference of a Query.
type Pref struct {
	// Attr is the attribute (column) name.
	Attr string
	// Dir is the preference direction.
	Dir Direction
}

// Relation is a named-attribute dataset: the user-facing counterpart
// to the positional Dataset. Rows are records; attribute order is
// fixed by Attrs.
type Relation struct {
	Attrs []string
	Rows  [][]float64
	index map[string]int
}

// NewRelation validates attribute names (non-empty, unique) and row
// widths and builds a Relation.
func NewRelation(attrs []string, rows [][]float64) (*Relation, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("zskyline: relation needs at least one attribute")
	}
	index := make(map[string]int, len(attrs))
	for i, a := range attrs {
		if a == "" {
			return nil, fmt.Errorf("zskyline: attribute %d has empty name", i)
		}
		if _, dup := index[a]; dup {
			return nil, fmt.Errorf("zskyline: duplicate attribute %q", a)
		}
		index[a] = i
	}
	for i, r := range rows {
		if len(r) != len(attrs) {
			return nil, fmt.Errorf("zskyline: row %d has %d values, want %d", i, len(r), len(attrs))
		}
		for j, v := range r {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("zskyline: row %d attribute %q is not finite", i, attrs[j])
			}
		}
	}
	return &Relation{Attrs: attrs, Rows: rows, index: index}, nil
}

// Len returns the number of rows.
func (r *Relation) Len() int { return len(r.Rows) }

// Query is a declarative skyline query over a Relation: which
// attributes participate and in which direction each is preferred.
// Attributes not mentioned are ignored.
type Query struct {
	Prefer []Pref
	// Config optionally overrides the pipeline configuration; the zero
	// value selects sensible defaults for the relation size.
	Config *Config
	// Dominance optionally selects a variant dominance relation (see
	// ParseDominance); the zero value keeps classic Pareto dominance.
	// When both Config and Dominance are set, Dominance wins.
	Dominance DominanceDescriptor
}

// Result is the answer to a Query.
type Result struct {
	// RowIDs indexes the skyline rows in the source relation,
	// ascending.
	RowIDs []int
	// Report is the pipeline report of the underlying run.
	Report *Report
}

// RunQuery executes a skyline query against rel. Max-preferences are
// negated and Ignore attributes projected away before the pipeline
// runs, so the library's smaller-is-better convention never leaks to
// callers. Ties and duplicates follow skyline-set semantics: rows with
// identical preference vectors are all returned.
func RunQuery(ctx context.Context, rel *Relation, q Query) (*Result, error) {
	if rel == nil || rel.Len() == 0 {
		return &Result{Report: &Report{}}, nil
	}
	if len(q.Prefer) == 0 {
		return nil, fmt.Errorf("zskyline: query has no preferences")
	}
	// Resolve the participating attribute columns.
	type col struct {
		idx    int
		negate bool
	}
	var cols []col
	seen := map[string]bool{}
	for _, p := range q.Prefer {
		i, ok := rel.index[p.Attr]
		if !ok {
			return nil, fmt.Errorf("zskyline: unknown attribute %q", p.Attr)
		}
		if seen[p.Attr] {
			return nil, fmt.Errorf("zskyline: attribute %q preferred twice", p.Attr)
		}
		seen[p.Attr] = true
		if p.Dir == Ignore {
			continue
		}
		cols = append(cols, col{idx: i, negate: p.Dir == Max})
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("zskyline: query ignores every attribute")
	}

	// Project rows into preference space.
	pts := make([]point.Point, rel.Len())
	for r, row := range rel.Rows {
		p := make(point.Point, len(cols))
		for k, c := range cols {
			v := row[c.idx]
			if c.negate {
				v = -v
			}
			p[k] = v
		}
		pts[r] = p
	}
	ds, err := point.NewDataset(len(cols), pts)
	if err != nil {
		return nil, err
	}

	cfg := defaultQueryConfig(rel.Len())
	if q.Config != nil {
		cfg = *q.Config
	}
	if q.Dominance.Kind != "" {
		cfg.Dominance = q.Dominance
	}
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	sky, rep, err := eng.Skyline(ctx, ds)
	if err != nil {
		return nil, err
	}

	// Map skyline points back to row ids by exact coordinates (the
	// skyline holds copies of projected rows, bit for bit). Multiple
	// rows can share one preference vector; each skyline copy consumes
	// one matching row.
	byKey := map[string][]int{}
	for r, p := range pts {
		k := exactKey(p)
		byKey[k] = append(byKey[k], r)
	}
	var ids []int
	for _, p := range sky {
		k := exactKey(p)
		rows := byKey[k]
		if len(rows) == 0 {
			return nil, fmt.Errorf("zskyline: internal error: skyline point %v has no source row", p)
		}
		ids = append(ids, rows[0])
		byKey[k] = rows[1:]
	}
	sort.Ints(ids)
	return &Result{RowIDs: ids, Report: rep}, nil
}

// exactKey identifies a point by the bits of its coordinates, so rows
// that differ only past a printed precision never collide.
func exactKey(p point.Point) string {
	b := make([]byte, 0, 8*len(p))
	for _, v := range p {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return string(b)
}

func defaultQueryConfig(n int) Config {
	cfg := core.Defaults()
	if n < 10000 {
		cfg.M = 8
		cfg.SampleRatio = 0.1
	}
	return cfg
}

// GroupedResult is the answer to a RunGroupedQuery: one skyline per
// distinct value of the grouping attribute.
type GroupedResult struct {
	// Groups maps each distinct key value to the ascending row ids of
	// that group's skyline.
	Groups map[float64][]int
}

// RunGroupedQuery computes a skyline per group: rows are partitioned
// by the value of keyAttr and the preference skyline is evaluated
// inside each partition independently ("best hotels per city"). The
// key attribute must not itself carry a Min/Max preference.
func RunGroupedQuery(ctx context.Context, rel *Relation, keyAttr string, q Query) (*GroupedResult, error) {
	if rel == nil || rel.Len() == 0 {
		return &GroupedResult{Groups: map[float64][]int{}}, nil
	}
	ki, ok := rel.index[keyAttr]
	if !ok {
		return nil, fmt.Errorf("zskyline: unknown grouping attribute %q", keyAttr)
	}
	for _, p := range q.Prefer {
		if p.Attr == keyAttr && p.Dir != Ignore {
			return nil, fmt.Errorf("zskyline: grouping attribute %q cannot carry a preference", keyAttr)
		}
	}
	// Partition row ids by key.
	byKey := map[float64][]int{}
	for r, row := range rel.Rows {
		byKey[row[ki]] = append(byKey[row[ki]], r)
	}
	out := &GroupedResult{Groups: make(map[float64][]int, len(byKey))}
	for key, ids := range byKey {
		sub := make([][]float64, len(ids))
		for i, id := range ids {
			sub[i] = rel.Rows[id]
		}
		subRel, err := NewRelation(rel.Attrs, sub)
		if err != nil {
			return nil, err
		}
		res, err := RunQuery(ctx, subRel, q)
		if err != nil {
			return nil, fmt.Errorf("zskyline: group %v: %w", key, err)
		}
		rows := make([]int, len(res.RowIDs))
		for i, sid := range res.RowIDs {
			rows[i] = ids[sid]
		}
		sort.Ints(rows)
		out.Groups[key] = rows
	}
	return out, nil
}

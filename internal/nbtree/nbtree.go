// Package nbtree implements the NB-Tree of §6.4: a top-down hierarchical
// clustering of the graph database. Disjoint clusters are formed recursively
// — at every level up to b pivots are chosen farthest-first, every graph is
// assigned to its closest pivot, and the process recurses until clusters
// shrink below b. Leaves are single graphs; every non-leaf node stores the
// centroid, radius, and diameter of its cluster, the quantities Theorems 6–8
// need for batch updates of representative power. The tree has one form,
// the parallel arrays of Flat, whether it was just built, grown by Insert or
// opened over a mapped index.
//
// Construction can be accelerated with vantage orderings: the vantage lower
// bound discards pivot/graph pairs that cannot improve the current closest
// pivot, so exact distances are computed for only a small minority of pairs
// (the "<1% of candidate pairs" effect behind Fig. 6(k)).
package nbtree

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"

	"graphrep/internal/graph"
	"graphrep/internal/metric"
	"graphrep/internal/pool"
	"graphrep/internal/vantage"
)

// Options configures tree construction.
type Options struct {
	// Branching is the maximum fan-out b (≥ 2). The paper uses 40 on disk
	// and recommends small b for memory-resident trees.
	Branching int
	// VO optionally supplies vantage orderings for construction pruning.
	VO *vantage.Ordering
	// Workers bounds the goroutines used for the partition distance fills
	// (≤ 0 means GOMAXPROCS). Pivot selection stays single-threaded on the
	// rng, and every parallel fill writes to pre-assigned slots, so the tree
	// is identical for any worker count.
	Workers int
}

// BuildStats reports how much work construction did.
type BuildStats struct {
	// ExactDistances is the number of exact distance computations issued.
	ExactDistances int64
	// PrunedDistances counts pivot/graph pairs discarded by the vantage
	// lower bound without an exact computation.
	PrunedDistances int64
	// Nodes and Leaves count tree nodes.
	Nodes, Leaves int
}

// BuildSubsetContext clusters a subset of db's graphs — a shard's contiguous
// ID range, say — into an NB-Tree, written straight into the Flat arrays in
// DFS preorder (a node precedes its subtree, children in pivot order).
// opt.VO only needs to cover the subset's IDs. rng drives the random first
// pivot at every level; pass a seeded source for reproducible trees.
// Cancellation is checked at every cluster boundary and between distance
// chunks inside a partition; a cancelled build returns ctx.Err() with no
// partial tree. The ids slice is not retained.
func BuildSubsetContext(ctx context.Context, db *graph.Database, m metric.Metric, ids []graph.ID, opt Options, rng *rand.Rand) (*Flat, error) {
	if opt.Branching < 2 {
		return nil, fmt.Errorf("nbtree: branching factor %d < 2", opt.Branching)
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("nbtree: empty subset")
	}
	b := &builder{ctx: ctx, db: db, m: m, opt: opt, rng: rng, f: &Flat{}}
	if _, err := b.build(append([]graph.ID(nil), ids...), -1, -1); err != nil {
		return nil, err
	}
	f := b.f
	f.stats = BuildStats{ExactDistances: b.exact.Load(), PrunedDistances: b.pruned.Load(), Nodes: f.Len()}
	for _, l := range f.Leaves {
		f.stats.Leaves += int(l)
	}
	return f, nil
}

type builder struct {
	ctx context.Context
	db  *graph.Database
	m   metric.Metric
	opt Options
	rng *rand.Rand
	// f receives the nodes in preorder as the recursion emits them.
	f *Flat
	// exact and pruned are atomic because partition's distance fills run on
	// a worker pool; the pruning decisions themselves depend only on state
	// each index owns, so both totals are deterministic for any worker count.
	exact, pruned atomic.Int64
}

// dist issues an exact distance computation and counts it.
func (b *builder) dist(a, c graph.ID) float64 {
	b.exact.Add(1)
	return b.m.Distance(a, c)
}

// partitionChunk sizes the parallel distance fills: clusters at or below it
// run inline, so the deep, small tail of the recursion pays no goroutine
// overhead.
const partitionChunk = 32

// build clusters ids into a node appended under parent after sibling prev
// (-1 for none) and returns its index. len(ids) ≥ 1. The node is appended
// before its subtree is built, which is what makes the layout preorder.
func (b *builder) build(ids []graph.ID, parent, prev int32) (int32, error) {
	if err := b.ctx.Err(); err != nil {
		return -1, err
	}
	if len(ids) == 1 {
		return b.f.add(parent, prev, ids[0], 1, 0, 0), nil
	}
	pivots, assign, err := b.partition(ids)
	if err != nil {
		return -1, err
	}
	centroid := pivots[0]
	// Radius: the running maximum of (upper bounds on) member distances to
	// the centroid; Diameter: sum of the two largest (§6.4). Both are sound
	// upper bounds even when the vantage pruning skips exact computations.
	// This loop stays sequential: the pruning threshold is the running
	// maximum, a recurrence whose prune-or-compute outcomes feed the encoded
	// radius/diameter values, so reordering it would change the tree bytes.
	var largest, second float64
	for _, id := range ids {
		dc := b.centroidDistance(centroid, id, largest)
		if dc > largest {
			largest, second = dc, largest
		} else if dc > second {
			second = dc
		}
	}
	f := b.f
	node := f.add(parent, prev, centroid, int32(len(ids)), largest, largest+second)
	child := int32(-1)
	if len(pivots) == 1 {
		// Degenerate cluster: every member coincides with the pivot
		// (distance 0). Recursing would not shrink the cluster, so emit the
		// members directly as leaves.
		for _, id := range ids {
			child = f.add(node, child, id, 1, 0, 0)
		}
		return node, nil
	}
	for p := range pivots {
		var sub []graph.ID
		for i, id := range ids {
			if assign[i] == p {
				sub = append(sub, id)
			}
		}
		if len(sub) == 0 {
			continue
		}
		if child, err = b.build(sub, node, child); err != nil {
			return -1, err
		}
	}
	return node, nil
}

// centroidDistance returns d(centroid, id), skipping the exact computation
// when the vantage upper bound shows the distance cannot exceed the current
// largest (it then returns that upper bound, which is sound for radius and
// diameter maintenance because it only ever under-reports skipped members
// relative to the running maximum).
func (b *builder) centroidDistance(centroid, id graph.ID, currentLargest float64) float64 {
	if id == centroid {
		return 0
	}
	if b.opt.VO != nil {
		if ub := b.opt.VO.UpperBound(centroid, id); ub <= currentLargest {
			b.pruned.Add(1)
			return ub
		}
	}
	return b.dist(centroid, id)
}

// partition chooses up to b pivots farthest-first and assigns every id to
// its closest pivot. It returns the pivots and the assignment (an index into
// pivots for every id).
//
// Only the rng-driven first-pivot draw and the farthest-first argmax scans
// are sequential; the distance fills fan out over index ranges. Each index i
// is touched by exactly one worker per round and its prune/compute decision
// reads only minDist[i] from the previous round, so pivots, assignments, and
// both stats totals are identical for any worker count.
func (b *builder) partition(ids []graph.ID) (pivots []graph.ID, assign []int, err error) {
	k := b.opt.Branching
	if k > len(ids) {
		k = len(ids)
	}
	first := ids[b.rng.Intn(len(ids))]
	pivots = []graph.ID{first}
	assign = make([]int, len(ids))
	minDist := make([]float64, len(ids))
	err = pool.Ranges(b.ctx, len(ids), b.opt.Workers, partitionChunk, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			minDist[i] = b.dist(first, ids[i])
		}
	})
	if err != nil {
		return nil, nil, err
	}
	for len(pivots) < k {
		// Farthest-first: the next pivot maximizes distance to the closest
		// already-chosen pivot.
		best, bestD := -1, -1.0
		for i := range ids {
			if minDist[i] > bestD {
				best, bestD = i, minDist[i]
			}
		}
		if bestD == 0 {
			break // all remaining graphs coincide with a pivot
		}
		p := ids[best]
		pIdx := len(pivots)
		pivots = append(pivots, p)
		err = pool.Ranges(b.ctx, len(ids), b.opt.Workers, partitionChunk, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if minDist[i] == 0 {
					continue
				}
				// Vantage pruning: if even the lower bound cannot beat the
				// current closest pivot, skip the exact computation.
				if b.opt.VO != nil && b.opt.VO.LowerBound(p, ids[i]) >= minDist[i] {
					b.pruned.Add(1)
					continue
				}
				if d := b.dist(p, ids[i]); d < minDist[i] {
					minDist[i] = d
					assign[i] = pIdx
				}
			}
		})
		if err != nil {
			return nil, nil, err
		}
	}
	return pivots, assign, nil
}

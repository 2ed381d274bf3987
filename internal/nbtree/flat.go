package nbtree

import (
	"fmt"

	"graphrep/internal/graph"
	"graphrep/internal/metric"
)

// Flat is the NB-Tree as parallel arrays indexed by node index — its one
// form, which the build writes, Insert grows, the v4 index format stores and
// the query path navigates. First-child/next-sibling links chain each
// node's children in ascending index order; both links
// point strictly forward (children always have larger indices than their
// parent, for preorder-built and insert-appended trees alike), so every walk
// terminates. A Flat built over mapped sections serves queries directly from
// the mapping; one built by BuildSubsetContext or copied by Clone aliases
// nothing, and only such a heap-resident tree may be grown by Insert.
//
// All slices have identical length. Leaves[i] is 1 for single-graph leaves,
// 0 otherwise; FirstChild/NextSibling/Parents use -1 for "none".
type Flat struct {
	Centroids   []graph.ID
	Parents     []int32
	FirstChild  []int32
	NextSibling []int32
	Sizes       []int32
	Leaves      []byte
	Radii       []float64
	Diameters   []float64
	stats       BuildStats
}

// NewFlatDeferred assembles a Flat from its component arrays — typically
// zero-copy views over a v4 index section. It checks only the array lengths
// and the root's parent, records stats (Nodes is recomputed; Leaves is the
// caller's claim, e.g. from persisted metadata), and defers the O(n)
// structural walk to Validate, which also checks the claimed leaf count. The
// tree must not be navigated until Validate has passed. Centroid range
// checks are the caller's job (the valid ID range is not known here). The
// arrays are retained, not copied.
func NewFlatDeferred(centroids []graph.ID, parents, firstChild, nextSibling, sizes []int32, leaves []byte, radii, diameters []float64, stats BuildStats) (*Flat, error) {
	n := len(centroids)
	if n == 0 {
		return nil, fmt.Errorf("nbtree: flat tree has no nodes")
	}
	if len(parents) != n || len(firstChild) != n || len(nextSibling) != n ||
		len(sizes) != n || len(leaves) != n || len(radii) != n || len(diameters) != n {
		return nil, fmt.Errorf("nbtree: flat tree arrays disagree on length (%d/%d/%d/%d/%d/%d/%d/%d)",
			n, len(parents), len(firstChild), len(nextSibling), len(sizes), len(leaves), len(radii), len(diameters))
	}
	if parents[0] != -1 {
		return nil, fmt.Errorf("nbtree: root parent is %d, want -1", parents[0])
	}
	stats.Nodes = n
	return &Flat{
		Centroids:   centroids,
		Parents:     parents,
		FirstChild:  firstChild,
		NextSibling: nextSibling,
		Sizes:       sizes,
		Leaves:      leaves,
		Radii:       radii,
		Diameters:   diameters,
		stats:       stats,
	}, nil
}

// Validate runs the O(n) structural walk a deferred construction skipped:
// parent/child/sibling links in range and acyclic (strictly forward), leaf
// flags boolean and consistent with the links, every non-root node in
// exactly one child chain under its recorded parent, sizes summing
// bottom-up, and the claimed leaf count matching the actual one. After
// Validate succeeds, every navigation a query performs stays in bounds.
func (f *Flat) Validate() error {
	n := len(f.Centroids)
	parents, firstChild, nextSibling := f.Parents, f.FirstChild, f.NextSibling
	sizes, leaves := f.Sizes, f.Leaves
	leafCount := 0
	for i := 0; i < n; i++ {
		if i > 0 && (parents[i] < 0 || int(parents[i]) >= i) {
			return fmt.Errorf("nbtree: node %d has parent %d (must be in [0,%d))", i, parents[i], i)
		}
		switch leaves[i] {
		case 0:
			if firstChild[i] == -1 {
				return fmt.Errorf("nbtree: non-leaf node %d has no children", i)
			}
		case 1:
			leafCount++
			if firstChild[i] != -1 {
				return fmt.Errorf("nbtree: leaf node %d has a child", i)
			}
			if sizes[i] != 1 {
				return fmt.Errorf("nbtree: leaf node %d has size %d", i, sizes[i])
			}
		default:
			return fmt.Errorf("nbtree: node %d has leaf flag %d", i, leaves[i])
		}
		if c := firstChild[i]; c != -1 && (int(c) <= i || int(c) >= n) {
			return fmt.Errorf("nbtree: node %d first child %d out of range (%d,%d)", i, c, i, n)
		}
		if s := nextSibling[i]; s != -1 && (int(s) <= i || int(s) >= n) {
			return fmt.Errorf("nbtree: node %d next sibling %d out of range (%d,%d)", i, s, i, n)
		}
	}
	if leafCount != f.stats.Leaves {
		return fmt.Errorf("nbtree: flat tree has %d leaves, metadata claims %d", leafCount, f.stats.Leaves)
	}
	// Every non-root node must appear in exactly one child chain, under its
	// recorded parent, and sizes must sum bottom-up. Chains move strictly
	// forward (checked above), so each walk terminates.
	inChain := make([]bool, n)
	for i := 0; i < n; i++ {
		sum := int32(0)
		for c := firstChild[i]; c != -1; c = nextSibling[c] {
			if parents[c] != int32(i) {
				return fmt.Errorf("nbtree: node %d is in the child chain of %d but has parent %d", c, i, parents[c])
			}
			if inChain[c] {
				return fmt.Errorf("nbtree: node %d appears in two child chains", c)
			}
			inChain[c] = true
			sum += sizes[c]
		}
		if leaves[i] == 0 && sum != sizes[i] {
			return fmt.Errorf("nbtree: node %d has size %d but children sum to %d", i, sizes[i], sum)
		}
	}
	for i := 1; i < n; i++ {
		if !inChain[i] {
			return fmt.Errorf("nbtree: node %d is in no child chain", i)
		}
	}
	return nil
}

// Len returns the number of nodes.
func (f *Flat) Len() int { return len(f.Centroids) }

// Leaf reports whether node i is a single-graph leaf.
func (f *Flat) Leaf(i int32) bool { return f.Leaves[i] == 1 }

// Stats returns the construction statistics carried with the tree.
func (f *Flat) Stats() BuildStats { return f.stats }

// Bytes approximates the memory footprint of the flat arrays.
func (f *Flat) Bytes() int64 {
	n := int64(f.Len())
	return n * (4 + 4 + 4 + 4 + 4 + 1 + 8 + 8)
}

// Clone returns a copy of the tree that shares no memory with f — how a tree
// opened over a read-only mapping moves onto the heap before Insert.
func (f *Flat) Clone() *Flat {
	return &Flat{
		Centroids:   append([]graph.ID(nil), f.Centroids...),
		Parents:     append([]int32(nil), f.Parents...),
		FirstChild:  append([]int32(nil), f.FirstChild...),
		NextSibling: append([]int32(nil), f.NextSibling...),
		Sizes:       append([]int32(nil), f.Sizes...),
		Leaves:      append([]byte(nil), f.Leaves...),
		Radii:       append([]float64(nil), f.Radii...),
		Diameters:   append([]float64(nil), f.Diameters...),
		stats:       f.stats,
	}
}

// add appends a node under parent (-1 for the root), after its sibling prev
// (-1 when it is the first child), and returns the node's index. A node of
// size 1 is a single-graph leaf. Callers append in the order they want the
// child chain to read, so the build's preorder and Insert's end-of-chain
// placement both fall out of it.
func (f *Flat) add(parent, prev int32, centroid graph.ID, size int32, radius, diameter float64) int32 {
	i := int32(len(f.Centroids))
	leaf := byte(0)
	if size == 1 {
		leaf = 1
	}
	f.Centroids = append(f.Centroids, centroid)
	f.Parents = append(f.Parents, parent)
	f.FirstChild = append(f.FirstChild, -1)
	f.NextSibling = append(f.NextSibling, -1)
	f.Sizes = append(f.Sizes, size)
	f.Leaves = append(f.Leaves, leaf)
	f.Radii = append(f.Radii, radius)
	f.Diameters = append(f.Diameters, diameter)
	switch {
	case prev != -1:
		f.NextSibling[prev] = i
	case parent != -1:
		f.FirstChild[parent] = i
	}
	return i
}

// Insert adds a newly appended database graph to the tree: it descends to
// the closest leaf-level cluster, appends a new leaf at the end of that
// cluster's child chain, and maintains sound (possibly loosened) radius and
// diameter upper bounds along the path. The new leaf always takes the
// largest node index, so children keep ascending indices. A single-leaf tree
// grows a root cluster over both graphs instead, laid out in preorder: the
// root at 0, the old leaf at 1, the new one at 2. Fan-out may temporarily
// exceed the build-time branching factor; rebuild periodically if insert
// volume is high. The arrays must be heap-resident (see Clone). Not safe
// concurrently with reads.
func (f *Flat) Insert(id graph.ID, m metric.Metric) {
	if f.Leaf(0) {
		old := f.Centroids[0]
		d := m.Distance(old, id)
		f.Leaves[0], f.Sizes[0], f.Radii[0], f.Diameters[0] = 0, 2, d, d
		oldLeaf := f.add(0, -1, old, 1, 0, 0)
		f.add(0, oldLeaf, id, 1, 0, 0)
		f.stats.Nodes = f.Len()
		f.stats.Leaves++
		return
	}
	n := int32(0)
	for {
		d := m.Distance(f.Centroids[n], id)
		f.stats.ExactDistances++
		// Diameter first: new pairs are bounded by d + old radius.
		if ub := d + f.Radii[n]; ub > f.Diameters[n] {
			f.Diameters[n] = ub
		}
		if d > f.Radii[n] {
			f.Radii[n] = d
		}
		f.Sizes[n]++
		// Stop at a node whose children are leaves; otherwise descend into
		// the child cluster with the closest centroid (first wins ties).
		best, last, bestD := int32(-1), int32(-1), 0.0
		for c := f.FirstChild[n]; c != -1; c = f.NextSibling[c] {
			last = c
			if !f.Leaf(c) {
				dc := m.Distance(f.Centroids[c], id)
				f.stats.ExactDistances++
				if best == -1 || dc < bestD {
					best, bestD = c, dc
				}
			}
		}
		if best == -1 {
			f.add(n, last, id, 1, 0, 0)
			f.stats.Nodes++
			f.stats.Leaves++
			return
		}
		n = best
	}
}

// Graphs returns the graphs in node i's subtree, in child-chain order.
func (f *Flat) Graphs(i int32) []graph.ID {
	out := make([]graph.ID, 0, f.Sizes[i])
	var visit func(n int32)
	visit = func(n int32) {
		if f.Leaf(n) {
			out = append(out, f.Centroids[n])
			return
		}
		for c := f.FirstChild[n]; c != -1; c = f.NextSibling[c] {
			visit(c)
		}
	}
	visit(i)
	return out
}

// ValidateMetric checks the tree's metric invariants under m on top of the
// structural ones Validate checks: every graph of db appears exactly once;
// leaves carry zero radius and diameter; every member of a cluster lies
// within Radius of the centroid; Diameter bounds every pairwise member
// distance. Intended for tests; cost is O(n²) distances in the worst case,
// so call it on small trees.
func (f *Flat) ValidateMetric(db *graph.Database, m metric.Metric) error {
	if err := f.Validate(); err != nil {
		return err
	}
	seen := make(map[graph.ID]int)
	for _, id := range f.Graphs(0) {
		seen[id]++
	}
	if len(seen) != db.Len() {
		return fmt.Errorf("nbtree: tree covers %d graphs, database has %d", len(seen), db.Len())
	}
	for id, c := range seen {
		if c != 1 {
			return fmt.Errorf("nbtree: graph %d appears %d times", id, c)
		}
	}
	for i := int32(0); i < int32(f.Len()); i++ {
		if f.Leaf(i) {
			if f.Radii[i] != 0 || f.Diameters[i] != 0 {
				return fmt.Errorf("nbtree: malformed leaf %d", i)
			}
			continue
		}
		members := f.Graphs(i)
		for _, id := range members {
			if d := m.Distance(f.Centroids[i], id); d > f.Radii[i]+1e-9 {
				return fmt.Errorf("nbtree: node %d: member %d at %v exceeds radius %v", i, id, d, f.Radii[i])
			}
		}
		for a := 0; a < len(members); a++ {
			for b := a + 1; b < len(members); b++ {
				if d := m.Distance(members[a], members[b]); d > f.Diameters[i]+1e-9 {
					return fmt.Errorf("nbtree: node %d: pair (%d,%d) at %v exceeds diameter %v",
						i, members[a], members[b], d, f.Diameters[i])
				}
			}
		}
	}
	return nil
}

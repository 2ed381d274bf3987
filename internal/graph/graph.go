// Package graph provides the labelled undirected graph model used throughout
// the library. Graphs are the database objects of top-k representative
// queries: each graph carries a vertex-labelled, edge-labelled structure plus
// a numeric feature vector on which query-time relevance functions operate.
//
// Graphs are immutable once built (see Builder); immutability makes them safe
// to share between indexes, caches, and concurrent query workers without
// copying. The adjacency is stored in CSR form (offset table plus flat
// neighbor/label arrays), which is both the compact heap layout and, for
// databases opened from a GRDB001 container, a set of zero-copy views over a
// read-only mapping — one Graph value reads identically either way.
package graph

import (
	"fmt"
	"sort"
)

// Label identifies a vertex or edge type, e.g. an atom symbol, a community
// id, or a product category. The zero Label is valid and means "unlabelled".
type Label uint32

// Edge is an undirected labelled edge between two vertex indices.
type Edge struct {
	U, V  int
	Label Label
}

// Graph is an immutable labelled undirected graph tagged with a feature
// vector. Construct graphs with a Builder or one of the dataset generators.
//
// The adjacency is CSR: vertex v's incident half-edges occupy
// adjTo[adjOff[v]:adjOff[v+1]] (graph-local neighbor indices, ascending) with
// matching edge labels in adjLabel. Offsets are absolute indices into
// adjTo/adjLabel, not rebased per graph: a heap-built graph starts at
// adjOff[0] == 0 and owns exactly its own halves, while a graph served from a
// mapped database slices its offset row out of the file-global offset table
// and shares the file-global adjTo/adjLabel arrays. Every method indexes
// through adjOff, so it cannot tell the difference.
type Graph struct {
	id     ID
	labels []Label // vertex labels, indexed by vertex
	// adjOff has Order()+1 entries: absolute half-edge bounds per vertex.
	adjOff   []uint64
	adjTo    []int32   // neighbor vertex (graph-local), ascending per row
	adjLabel []Label   // connecting edge label, parallel to adjTo
	features []float64 // feature vector the relevance function sees
}

// ID uniquely identifies a graph within a Database.
type ID int32

// Order returns the number of vertices.
func (g *Graph) Order() int { return len(g.labels) }

// Size returns the number of edges.
func (g *Graph) Size() int {
	if len(g.adjOff) == 0 {
		return 0
	}
	return int(g.adjOff[len(g.adjOff)-1]-g.adjOff[0]) / 2
}

// ID returns the graph's database identifier.
func (g *Graph) ID() ID { return g.id }

// VertexLabel returns the label of vertex v.
func (g *Graph) VertexLabel(v int) Label { return g.labels[v] }

// VertexLabels returns the slice of all vertex labels. The caller must not
// modify the returned slice: for a mapped database it aliases the read-only
// mapping.
func (g *Graph) VertexLabels() []Label { return g.labels }

// Edges returns the normalized edge list (U < V, sorted by (U, V)). The list
// is derived from the CSR adjacency on every call, so callers on hot paths
// should iterate Neighbors instead; the returned slice is the caller's own.
func (g *Graph) Edges() []Edge {
	edges := make([]Edge, 0, g.Size())
	for v := 0; v < g.Order(); v++ {
		for i := g.adjOff[v]; i < g.adjOff[v+1]; i++ {
			if w := int(g.adjTo[i]); w > v {
				edges = append(edges, Edge{U: v, V: w, Label: g.adjLabel[i]})
			}
		}
	}
	return edges
}

// Features returns the graph's feature vector. The caller must not modify the
// returned slice.
func (g *Graph) Features() []float64 { return g.features }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return int(g.adjOff[v+1] - g.adjOff[v]) }

// Adjacency returns vertex v's CSR row: its neighbors (ascending) and the
// parallel edge labels. The caller must not modify either slice: for a
// mapped database they alias the read-only mapping.
func (g *Graph) Adjacency(v int) (to []int32, labels []Label) {
	lo, hi := g.adjOff[v], g.adjOff[v+1]
	return g.adjTo[lo:hi:hi], g.adjLabel[lo:hi:hi]
}

// Neighbors calls fn for every neighbor of v (ascending) with the connecting
// edge label.
func (g *Graph) Neighbors(v int, fn func(w int, l Label)) {
	for i := g.adjOff[v]; i < g.adjOff[v+1]; i++ {
		fn(int(g.adjTo[i]), g.adjLabel[i])
	}
}

// EdgeLabel returns the label of edge (u,v) and whether the edge exists.
func (g *Graph) EdgeLabel(u, v int) (Label, bool) {
	for i := g.adjOff[u]; i < g.adjOff[u+1]; i++ {
		if int(g.adjTo[i]) == v {
			return g.adjLabel[i], true
		}
	}
	return 0, false
}

// HasEdge reports whether the undirected edge (u,v) exists.
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := g.EdgeLabel(u, v)
	return ok
}

// String renders a compact human-readable description.
func (g *Graph) String() string {
	return fmt.Sprintf("graph(id=%d, |V|=%d, |E|=%d)", g.id, g.Order(), g.Size())
}

// LabelHistogram returns label -> count over vertices.
func (g *Graph) LabelHistogram() map[Label]int {
	h := make(map[Label]int, 8)
	for _, l := range g.labels {
		h[l]++
	}
	return h
}

// EdgeLabelHistogram returns label -> count over edges.
func (g *Graph) EdgeLabelHistogram() map[Label]int {
	h := make(map[Label]int, 8)
	for v := 0; v < g.Order(); v++ {
		for i := g.adjOff[v]; i < g.adjOff[v+1]; i++ {
			if int(g.adjTo[i]) > v {
				h[g.adjLabel[i]]++
			}
		}
	}
	return h
}

// Builder accumulates vertices and edges and produces an immutable Graph.
// The zero value is ready to use.
type Builder struct {
	labels   []Label
	edges    []Edge
	features []float64
	err      error
}

// NewBuilder returns a Builder pre-sized for n vertices.
func NewBuilder(n int) *Builder {
	return &Builder{labels: make([]Label, 0, n)}
}

// AddVertex appends a vertex with the given label and returns its index.
func (b *Builder) AddVertex(l Label) int {
	b.labels = append(b.labels, l)
	return len(b.labels) - 1
}

// AddEdge records an undirected edge between u and v. Self-loops and
// out-of-range endpoints are recorded as errors surfaced by Build.
func (b *Builder) AddEdge(u, v int, l Label) {
	if b.err != nil {
		return
	}
	if u == v {
		b.err = fmt.Errorf("graph: self-loop on vertex %d", u)
		return
	}
	if u < 0 || v < 0 || u >= len(b.labels) || v >= len(b.labels) {
		b.err = fmt.Errorf("graph: edge (%d,%d) out of range for %d vertices", u, v, len(b.labels))
		return
	}
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, Edge{U: u, V: v, Label: l})
}

// SetFeatures attaches the feature vector. The slice is copied.
func (b *Builder) SetFeatures(f []float64) {
	b.features = append([]float64(nil), f...)
}

// Build finalizes the graph with the given id. Duplicate edges are an error.
func (b *Builder) Build(id ID) (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	edges := append([]Edge(nil), b.edges...)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	for i := 1; i < len(edges); i++ {
		if edges[i].U == edges[i-1].U && edges[i].V == edges[i-1].V {
			return nil, fmt.Errorf("graph: duplicate edge (%d,%d)", edges[i].U, edges[i].V)
		}
	}
	n := len(b.labels)
	adjOff := make([]uint64, n+1)
	for _, e := range edges {
		adjOff[e.U+1]++
		adjOff[e.V+1]++
	}
	for v := 0; v < n; v++ {
		adjOff[v+1] += adjOff[v]
	}
	adjTo := make([]int32, 2*len(edges))
	adjLabel := make([]Label, 2*len(edges))
	cur := append([]uint64(nil), adjOff[:n]...)
	// Filling rows in sorted-edge order leaves every row ascending: vertex
	// v first receives its lower neighbors (edges where it is V, U ascending
	// through the sort) and then its higher neighbors (edges where it is U,
	// V ascending).
	for _, e := range edges {
		adjTo[cur[e.U]], adjLabel[cur[e.U]] = int32(e.V), e.Label
		cur[e.U]++
		adjTo[cur[e.V]], adjLabel[cur[e.V]] = int32(e.U), e.Label
		cur[e.V]++
	}
	return &Graph{
		id:       id,
		labels:   append([]Label(nil), b.labels...),
		adjOff:   adjOff,
		adjTo:    adjTo,
		adjLabel: adjLabel,
		features: b.features,
	}, nil
}

// MustBuild is Build that panics on error; intended for tests and literals.
func (b *Builder) MustBuild(id ID) *Graph {
	g, err := b.Build(id)
	if err != nil {
		panic(err)
	}
	return g
}

// Clone returns a copy of g with a new id. Used by generators that derive
// perturbed family members from a scaffold.
func (g *Graph) Clone(id ID) *Builder {
	b := NewBuilder(g.Order())
	b.labels = append(b.labels, g.labels...)
	b.edges = append(b.edges, g.Edges()...)
	b.features = append([]float64(nil), g.features...)
	_ = id // id is assigned at Build time by the caller
	return b
}

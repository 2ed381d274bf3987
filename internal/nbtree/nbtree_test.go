package nbtree

import (
	"context"
	"math/rand"
	"testing"

	"graphrep/internal/graph"
	"graphrep/internal/metric"
	"graphrep/internal/vantage"
)

func randDB(t testing.TB, n int, seed int64) (*graph.Database, metric.Metric) {
	if t != nil {
		t.Helper()
	}
	rng := rand.New(rand.NewSource(seed))
	graphs := make([]*graph.Graph, n)
	for i := range graphs {
		order := 2 + rng.Intn(7)
		b := graph.NewBuilder(order)
		for v := 0; v < order; v++ {
			b.AddVertex(graph.Label(rng.Intn(3)))
		}
		for u := 0; u < order; u++ {
			for v := u + 1; v < order; v++ {
				if rng.Float64() < 0.35 {
					b.AddEdge(u, v, 0)
				}
			}
		}
		g, err := b.Build(graph.ID(i))
		if err != nil {
			panic(err)
		}
		graphs[i] = g
	}
	db, err := graph.NewDatabase(graphs)
	if err != nil {
		panic(err)
	}
	return db, metric.NewCache(metric.Star(db))
}

// build clusters the first n graphs of db (all of them when n is db.Len()).
func build(db *graph.Database, m metric.Metric, n int, opt Options, seed int64) (*Flat, error) {
	ids := make([]graph.ID, n)
	for i := range ids {
		ids[i] = graph.ID(i)
	}
	return BuildSubsetContext(context.Background(), db, m, ids, opt, rand.New(rand.NewSource(seed)))
}

func TestBuildValidates(t *testing.T) {
	db, m := randDB(t, 60, 1)
	for _, b := range []int{2, 4, 8} {
		f, err := build(db, m, db.Len(), Options{Branching: b}, 2)
		if err != nil {
			t.Fatalf("Build(b=%d): %v", b, err)
		}
		if err := f.ValidateMetric(db, m); err != nil {
			t.Fatalf("Validate(b=%d): %v", b, err)
		}
		if int(f.Sizes[0]) != db.Len() {
			t.Errorf("root size = %d, want %d", f.Sizes[0], db.Len())
		}
		if f.Stats().Leaves != db.Len() || f.Stats().Nodes != f.Len() {
			t.Errorf("stats = %+v, want %d leaves of %d nodes", f.Stats(), db.Len(), f.Len())
		}
		if f.Leaf(0) {
			t.Error("root of a 60-graph tree is a leaf")
		}
		if f.Bytes() <= 0 {
			t.Error("Bytes <= 0")
		}
	}
}

func TestBuildErrors(t *testing.T) {
	db, m := randDB(t, 5, 3)
	if _, err := build(db, m, db.Len(), Options{Branching: 1}, 1); err == nil {
		t.Error("branching=1 accepted")
	}
	if _, err := build(db, m, 0, Options{Branching: 2}, 1); err == nil {
		t.Error("empty subset accepted")
	}
}

// The build lays nodes out in DFS preorder: walking the child chains from
// the root visits the nodes in index order.
func TestBuildIsPreorder(t *testing.T) {
	db, m := randDB(t, 40, 4)
	f, err := build(db, m, db.Len(), Options{Branching: 3}, 5)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	next := int32(0)
	var walk func(n int32)
	walk = func(n int32) {
		if n != next {
			t.Fatalf("preorder visits node %d at position %d", n, next)
		}
		next++
		for c := f.FirstChild[n]; c != -1; c = f.NextSibling[c] {
			walk(c)
		}
	}
	walk(0)
	if int(next) != f.Len() {
		t.Fatalf("preorder walk reached %d of %d nodes", next, f.Len())
	}
}

func TestDuplicateGraphs(t *testing.T) {
	// All graphs identical: distance 0 everywhere. Construction must
	// terminate and produce a flat, valid tree.
	b := graph.NewBuilder(2)
	b.AddVertex(1)
	b.AddVertex(1)
	b.AddEdge(0, 1, 0)
	proto, err := b.Build(0)
	if err != nil {
		t.Fatal(err)
	}
	graphs := make([]*graph.Graph, 10)
	graphs[0] = proto
	for i := 1; i < 10; i++ {
		g, err := proto.Clone(graph.ID(i)).Build(graph.ID(i))
		if err != nil {
			t.Fatal(err)
		}
		graphs[i] = g
	}
	db, err := graph.NewDatabase(graphs)
	if err != nil {
		t.Fatal(err)
	}
	m := metric.Star(db)
	f, err := build(db, m, db.Len(), Options{Branching: 3}, 1)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := f.ValidateMetric(db, m); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if f.Radii[0] != 0 || f.Diameters[0] != 0 {
		t.Errorf("radius/diameter = %v/%v, want 0/0", f.Radii[0], f.Diameters[0])
	}
}

func TestSingletonDatabase(t *testing.T) {
	db, m := randDB(t, 1, 6)
	f, err := build(db, m, db.Len(), Options{Branching: 2}, 1)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if f.Len() != 1 || !f.Leaf(0) {
		t.Errorf("singleton tree malformed: %d nodes, root leaf=%v", f.Len(), f.Leaf(0))
	}
}

func TestVPAcceleratedBuildIsValidAndPrunes(t *testing.T) {
	db, base := randDB(t, 120, 7)
	rng := rand.New(rand.NewSource(8))
	vps, err := vantage.SelectVPs(db, base, 6, vantage.SelectMaxMin, rng)
	if err != nil {
		t.Fatalf("SelectVPs: %v", err)
	}
	vo, err := vantage.Build(db, base, vps)
	if err != nil {
		t.Fatalf("vantage.Build: %v", err)
	}
	counter := metric.NewCounter(base)
	f, err := build(db, counter, db.Len(), Options{Branching: 4, VO: vo}, 9)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := f.ValidateMetric(db, base); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	st := f.Stats()
	if st.PrunedDistances == 0 {
		t.Error("vantage pruning never fired")
	}
	if st.ExactDistances != counter.Count() {
		t.Errorf("stats exact = %d, counter = %d", st.ExactDistances, counter.Count())
	}
	// Unaccelerated build must do strictly more exact work.
	counter2 := metric.NewCounter(base)
	if _, err := build(db, counter2, db.Len(), Options{Branching: 4}, 9); err != nil {
		t.Fatalf("Build plain: %v", err)
	}
	if counter.Count() >= counter2.Count() {
		t.Errorf("VP build used %d distances, plain build %d; expected fewer", counter.Count(), counter2.Count())
	}
}

func TestGraphsMatchSizes(t *testing.T) {
	db, m := randDB(t, 30, 10)
	f, err := build(db, m, db.Len(), Options{Branching: 3}, 11)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for i := int32(0); i < int32(f.Len()); i++ {
		if g := f.Graphs(i); len(g) != int(f.Sizes[i]) {
			t.Fatalf("node %d: Graphs len %d != Size %d", i, len(g), f.Sizes[i])
		}
	}
}

func TestConstructionCostScalesAsBLogB(t *testing.T) {
	// §6.4 cost analysis: O(|D|·b·log_b|D|) exact distances without VP
	// acceleration. Sanity-check the measured count is within a small factor.
	db, m := randDB(t, 200, 12)
	counter := metric.NewCounter(m)
	_, err := build(db, counter, db.Len(), Options{Branching: 4}, 13)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	n := float64(db.Len())
	bound := n * 4 * 6 // log_4(200) ≈ 3.8, allow slack: farthest-first costs ~b per level
	if got := float64(counter.Count()); got > bound*4 {
		t.Errorf("construction used %v distances, loose bound %v", got, bound*4)
	}
}

package nbindex_test

import (
	"math/rand"
	"reflect"
	"testing"

	"graphrep/internal/core"
	"graphrep/internal/graph"
	"graphrep/internal/metric"
	"graphrep/internal/nbindex"
	"graphrep/internal/shard"
)

// Build an index on a prefix of a clustered database, insert the rest one by
// one, and check that queries through the grown index match the baseline
// greedy over the full database exactly — the strongest possible insert
// correctness property, since index quality cannot affect answer exactness.
func TestInsertPreservesExactAnswers(t *testing.T) {
	full, _ := clusteredDB(t, 5, 12, 400)
	prefixLen := full.Len() * 2 / 3

	// Growable database seeded with the prefix.
	graphs := make([]*graph.Graph, prefixLen)
	copy(graphs, full.Graphs()[:prefixLen])
	db, err := graph.NewDatabase(graphs)
	if err != nil {
		t.Fatal(err)
	}
	m := metric.NewCache(metric.Star(db))
	set := buildSet(t, db, m, []float64{2, 4, 8, 16, 64}, 401)
	for i := prefixLen; i < full.Len(); i++ {
		src := full.Graph(graph.ID(i))
		g, err := src.Clone(graph.ID(i)).Build(graph.ID(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Append(g); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if err := set.Insert(graph.ID(i)); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	checkGrownPart(t, set.Part(0), db, m)
	relevance := func(f []float64) bool { return f[0] > 0.3 }
	for _, theta := range []float64{3, 6, 12} {
		want, err := core.BaselineGreedy(db, m, core.Query{Relevance: relevance, Theta: theta, K: 6})
		if err != nil {
			t.Fatal(err)
		}
		got, err := newSession(t, set, relevance).TopK(theta, 6)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Answer, want.Answer) {
			t.Fatalf("θ=%v after inserts: %v, want %v", theta, got.Answer, want.Answer)
		}
	}
}

func TestInsertIntoSingletonIndex(t *testing.T) {
	db1, _ := clusteredDB(t, 1, 1, 402)
	db, err := graph.NewDatabase([]*graph.Graph{db1.Graph(0)})
	if err != nil {
		t.Fatal(err)
	}
	m := metric.NewCache(metric.Star(db))
	set, err := shard.Build(db, m, shard.Options{Shards: 1, NumVPs: 1, Branching: 2, ThetaGrid: []float64{4}},
		rand.New(rand.NewSource(403)))
	if err != nil {
		t.Fatal(err)
	}
	more, _ := clusteredDB(t, 2, 3, 404)
	for i := 1; i <= 4; i++ {
		g, err := more.Graph(graph.ID(i)).Clone(graph.ID(i)).Build(graph.ID(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Append(g); err != nil {
			t.Fatal(err)
		}
		if err := set.Insert(graph.ID(i)); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	checkGrownPart(t, set.Part(0), db, m)
	res, err := newSession(t, set, func([]float64) bool { return true }).TopK(1e9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Power != 1 || res.Relevant != 5 {
		t.Errorf("post-insert query: %+v", res)
	}
}

// checkGrownPart checks a part after inserts: the tree keeps its metric
// invariants and the leaf map sends every graph to the leaf holding it.
func checkGrownPart(t *testing.T, ix *nbindex.Index, db *graph.Database, m metric.Metric) {
	t.Helper()
	f := ix.Flat()
	if err := f.ValidateMetric(db, m); err != nil {
		t.Fatalf("tree invalid after inserts: %v", err)
	}
	for id := graph.ID(0); int(id) < db.Len(); id++ {
		if l := int32(ix.LeafIdx(id)); !f.Leaf(l) || f.Centroids[l] != id {
			t.Fatalf("leaf map sends graph %d to node %d", id, l)
		}
	}
}

func TestInsertErrors(t *testing.T) {
	db, m := clusteredDB(t, 2, 4, 405)
	ix := buildIndex(t, db, m, []float64{4}, 406)
	if err := ix.Insert(graph.ID(0)); err == nil {
		t.Error("re-inserting an indexed id accepted")
	}
	if err := ix.Insert(graph.ID(db.Len())); err == nil {
		t.Error("inserting beyond the database accepted")
	}
}

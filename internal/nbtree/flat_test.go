package nbtree

import (
	"reflect"
	"testing"

	"graphrep/internal/graph"
	"graphrep/internal/metric"
)

func buildTestTree(t *testing.T, n int, branching int) *Flat {
	t.Helper()
	db, m := randDB(t, n, 11)
	f, err := build(db, m, db.Len(), Options{Branching: branching}, 12)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return f
}

// reassemble runs a tree's arrays through the deferred constructor and the
// structural walk, as a mapped open does.
func reassemble(f *Flat, stats BuildStats) (*Flat, error) {
	g, err := NewFlatDeferred(f.Centroids, f.Parents, f.FirstChild, f.NextSibling, f.Sizes, f.Leaves, f.Radii, f.Diameters, stats)
	if err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

func TestBuildPassesValidate(t *testing.T) {
	f := buildTestTree(t, 45, 3)
	g, err := reassemble(f, f.stats)
	if err != nil {
		t.Fatalf("Validate rejected a built tree: %v", err)
	}
	if !reflect.DeepEqual(f, g) {
		t.Fatal("reassembled tree differs from the built one")
	}
	if !reflect.DeepEqual(f, f.Clone()) {
		t.Fatal("Clone differs from its source")
	}
}

// Insert grows a built tree graph by graph: every step keeps the structural
// and metric invariants, appends the new leaf as the last node, and counts
// exactly the distances it computed.
func TestInsertKeepsFlatValid(t *testing.T) {
	db, m := randDB(t, 60, 21)
	for _, prefix := range []int{1, 40} {
		f, err := build(db, m, prefix, Options{Branching: 4}, 22)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		for id := prefix; id < db.Len(); id++ {
			counter := metric.NewCounter(m)
			before := f.Stats()
			f.Insert(graph.ID(id), counter)
			last := int32(f.Len() - 1)
			if !f.Leaf(last) || f.Centroids[last] != graph.ID(id) {
				t.Fatalf("prefix %d: graph %d is not the last node", prefix, id)
			}
			if _, err := reassemble(f, f.stats); err != nil {
				t.Fatalf("prefix %d: Validate rejected the tree after inserting %d: %v", prefix, id, err)
			}
			st := f.Stats()
			if st.Nodes != f.Len() || st.Leaves != before.Leaves+1 {
				t.Fatalf("prefix %d: stats after inserting %d: %+v (before %+v)", prefix, id, st, before)
			}
			if id == 1 {
				// The single-leaf root grew a cluster: root, old leaf, new leaf.
				d := m.Distance(0, 1)
				if f.Len() != 3 || f.Leaf(0) || f.Centroids[0] != 0 || f.Centroids[1] != 0 ||
					f.NextSibling[1] != 2 || f.Radii[0] != d || f.Diameters[0] != d {
					t.Fatalf("single-leaf insert laid out %+v", f)
				}
				continue
			}
			if got := st.ExactDistances - before.ExactDistances; got != counter.Count() {
				t.Fatalf("prefix %d: inserting %d counted %d distances, computed %d", prefix, id, got, counter.Count())
			}
		}
		if err := f.ValidateMetric(db, m); err != nil {
			t.Fatalf("prefix %d: %v", prefix, err)
		}
	}
}

func TestNewFlatRejectsCorruption(t *testing.T) {
	base := buildTestTree(t, 30, 3)
	mutate := func(fn func(*Flat)) *Flat {
		f := base.Clone()
		fn(f)
		return f
	}
	leafIdx := int32(-1)
	for i := range base.Leaves {
		if base.Leaves[i] == 1 {
			leafIdx = int32(i)
			break
		}
	}
	cases := map[string]*Flat{
		"short array":     mutate(func(f *Flat) { f.Sizes = f.Sizes[:len(f.Sizes)-1] }),
		"root has parent": mutate(func(f *Flat) { f.Parents[0] = 2 }),
		"forward parent":  mutate(func(f *Flat) { f.Parents[1] = 1 }),
		"backward child":  mutate(func(f *Flat) { f.FirstChild[0] = 0 }),
		"child oob":       mutate(func(f *Flat) { f.FirstChild[0] = int32(f.Len()) }),
		"sibling oob":     mutate(func(f *Flat) { f.NextSibling[1] = int32(f.Len() + 5) }),
		"leaf with child": mutate(func(f *Flat) { f.FirstChild[leafIdx] = int32(f.Len() - 1) }),
		"leaf flag junk":  mutate(func(f *Flat) { f.Leaves[leafIdx] = 7 }),
		"leaf wrong size": mutate(func(f *Flat) { f.Sizes[leafIdx] = 3 }),
		"size mismatch":   mutate(func(f *Flat) { f.Sizes[0]++ }),
		"orphaned node":   mutate(func(f *Flat) { f.NextSibling[int32(f.FirstChild[0])] = -1; f.Leaves[0] = 0 }),
		"childless inner": mutate(func(f *Flat) { f.Leaves[leafIdx] = 0 }),
		"empty":           {Centroids: nil},
	}
	for name, f := range cases {
		if _, err := reassemble(f, f.stats); err == nil {
			t.Errorf("%s: NewFlatDeferred+Validate accepted corrupt tree", name)
		}
	}
}

// The deferred constructor recomputes the node count and Validate holds the
// claimed leaf count to the actual flags.
func TestNewFlatRecomputesStats(t *testing.T) {
	f := buildTestTree(t, 25, 3)
	lied := f.stats
	lied.Nodes = 1
	g, err := reassemble(f, lied)
	if err != nil {
		t.Fatal(err)
	}
	if g.Stats() != f.Stats() {
		t.Fatalf("stats not recomputed: %+v, want %+v", g.Stats(), f.Stats())
	}
	lied.Leaves = 99
	if _, err := reassemble(f, lied); err == nil {
		t.Fatal("Validate accepted a false leaf count")
	}
}

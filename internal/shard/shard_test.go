package shard

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"graphrep/internal/core"
	"graphrep/internal/dataset"
	"graphrep/internal/ged"
	"graphrep/internal/graph"
	"graphrep/internal/metric"
	"graphrep/internal/nbindex"
)

func TestPlan(t *testing.T) {
	for _, tc := range []struct {
		n, shards int
		want      []Range
	}{
		{10, 1, []Range{{0, 10}}},
		{10, 0, []Range{{0, 10}}},                // ≤ 1 collapses to one shard
		{10, -3, []Range{{0, 10}}},               // negative too
		{10, 20, nil},                            // clamped to n: checked below
		{10, 3, []Range{{0, 4}, {4, 3}, {7, 3}}}, // larger ranges first
		{12, 4, []Range{{0, 3}, {3, 3}, {6, 3}, {9, 3}}},
	} {
		got := Plan(tc.n, tc.shards)
		if tc.want != nil && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Plan(%d, %d) = %v, want %v", tc.n, tc.shards, got, tc.want)
			continue
		}
		// Structural properties every plan must satisfy.
		next, minC, maxC := graph.ID(0), tc.n, 0
		for _, r := range got {
			if r.Base != next || r.Count <= 0 {
				t.Errorf("Plan(%d, %d): non-contiguous range %+v at %d", tc.n, tc.shards, r, next)
			}
			next += graph.ID(r.Count)
			if r.Count < minC {
				minC = r.Count
			}
			if r.Count > maxC {
				maxC = r.Count
			}
		}
		if int(next) != tc.n {
			t.Errorf("Plan(%d, %d) covers %d graphs", tc.n, tc.shards, next)
		}
		if maxC-minC > 1 {
			t.Errorf("Plan(%d, %d): shard sizes differ by %d", tc.n, tc.shards, maxC-minC)
		}
	}
}

func testSet(t *testing.T, n, shards int, seed int64) (*Set, *graph.Database, metric.Metric) {
	t.Helper()
	db, err := dataset.ByName("dud", n, seed)
	if err != nil {
		t.Fatal(err)
	}
	m := metric.NewCache(metric.Func(func(a, b graph.ID) float64 {
		return ged.StarDistance(db.Graph(a), db.Graph(b))
	}))
	rng := rand.New(rand.NewSource(seed))
	grid := nbindex.ChooseGrid(db, m, 8, 2000, rng)
	set, err := Build(db, m, Options{Shards: shards, NumVPs: 8, ThetaGrid: grid}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return set, db, m
}

// TestPiHatIsUpperBoundOnNeighborhoods checks the session's global π̂ rows
// against brute force, at one shard and at several: every relevant graph has
// a row, stored at its leaf in its home shard, that bounds the true
// |N_θ(g) ∩ L_q| at every grid threshold and is monotone in θ.
func TestPiHatIsUpperBoundOnNeighborhoods(t *testing.T) {
	for _, shards := range []int{1, 3} {
		set, db, m := testSet(t, 90, shards, 14)
		relevance := core.FirstQuartileRelevance(db, nil)
		sess, err := set.NewSession(relevance)
		if err != nil {
			t.Fatal(err)
		}
		grid := set.Grid()
		rel := core.Relevant(db, relevance)
		for _, id := range rel {
			home := set.PartFor(id)
			row := sess.piHat[home][set.Part(home).LeafIdx(id)]
			if row == nil {
				t.Fatalf("shards=%d: relevant graph %d has no π̂-vector", shards, id)
			}
			for slot, theta := range grid {
				// True |N_θ(id) ∩ L_q|.
				n := 0
				for _, other := range rel {
					if m.Distance(id, other) <= theta {
						n++
					}
				}
				if int(row[slot]) < n {
					t.Fatalf("shards=%d: π̂[%d][θ=%v] = %d < true %d", shards, id, theta, row[slot], n)
				}
			}
			for s := 1; s < len(row); s++ {
				if row[s] < row[s-1] {
					t.Fatalf("shards=%d: π̂ not monotone for %d: %v", shards, id, row)
				}
			}
		}
	}
}

// TestEncodeRoundTrip persists a 3-shard set and reloads it: same shard
// layout, same answers, and byte-identical re-encoding.
func TestEncodeRoundTrip(t *testing.T) {
	set, db, m := testSet(t, 100, 3, 4)
	var buf bytes.Buffer
	if err := set.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	blob := append([]byte(nil), buf.Bytes()...)
	loaded, err := ReadBytesContext(context.Background(), buf.Bytes(), db, m)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Shards() != set.Shards() {
		t.Fatalf("loaded %d shards, want %d", loaded.Shards(), set.Shards())
	}
	for p := 0; p < set.Shards(); p++ {
		if loaded.Part(p).Base() != set.Part(p).Base() || loaded.Part(p).Count() != set.Part(p).Count() {
			t.Errorf("shard %d range [%d,+%d), want [%d,+%d)", p,
				loaded.Part(p).Base(), loaded.Part(p).Count(), set.Part(p).Base(), set.Part(p).Count())
		}
	}
	rel := core.FirstQuartileRelevance(db, nil)
	s1, err := set.NewSession(rel)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := loaded.NewSession(rel)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s1.TopK(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.TopK(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("loaded set answers %+v, want %+v", got, want)
	}
	var again bytes.Buffer
	if err := loaded.Encode(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), blob) {
		t.Error("re-encoded bytes differ")
	}
}

// TestReadContextCancel checks ReadBytesContext aborts between shard
// sections.
func TestReadContextCancel(t *testing.T) {
	set, db, m := testSet(t, 80, 2, 6)
	var buf bytes.Buffer
	if err := set.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ReadBytesContext(ctx, buf.Bytes(), db, m); err != context.Canceled {
		t.Fatalf("cancelled ReadBytesContext returned %v, want context.Canceled", err)
	}
}

// TestMappedStatsEqualHeap checks that the view-backed read path does exactly
// the work the heap-backed one does: a built set's parts, behind a fresh
// metric, and ReadBytesContext of that set's encoding, behind another fresh
// metric, report field-for-field equal QueryStats for every query, at shard
// counts 1, 2, 4 and session workers 1 and GOMAXPROCS. Sessions decide
// through the set's metric only, so both sides start equally cold; each
// metric is primed with its side's embeddings, as an engine open primes it.
func TestMappedStatsEqualHeap(t *testing.T) {
	db, err := dataset.ByName("dud", 150, 5)
	if err != nil {
		t.Fatal(err)
	}
	rel := core.FirstQuartileRelevance(db, nil)
	for _, shards := range []int{1, 2, 4} {
		rng := rand.New(rand.NewSource(5))
		bm := metric.NewCache(metric.Star(db))
		grid := nbindex.ChooseGrid(db, bm, 8, 2000, rng)
		built, err := Build(db, bm, Options{Shards: shards, NumVPs: 8, ThetaGrid: grid}, rng)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := built.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			heapStar := metric.Star(db)
			heap := &Set{db: db, m: metric.NewCache(heapStar), grid: built.grid, parts: built.parts}
			for _, part := range heap.parts {
				heapStar.PrimeEmbeddings(part.Base(), part.Embeddings())
			}
			mappedStar := metric.Star(db)
			mapped, err := ReadBytesContext(context.Background(), buf.Bytes(), db, metric.NewCache(mappedStar))
			if err != nil {
				t.Fatal(err)
			}
			for _, part := range mapped.parts {
				mappedStar.PrimeEmbeddingTable(part.Base(), part.EmbeddingTable())
			}
			var stats [2][]nbindex.QueryStats
			for side, set := range []*Set{heap, mapped} {
				set.SetWorkers(workers)
				sess, err := set.NewSession(rel)
				if err != nil {
					t.Fatal(err)
				}
				for _, theta := range []float64{4, 6, 8, 11} {
					if _, err := sess.TopK(theta, 5); err != nil {
						t.Fatal(err)
					}
					stats[side] = append(stats[side], sess.LastStats())
				}
			}
			if !reflect.DeepEqual(stats[1], stats[0]) {
				t.Errorf("shards=%d workers=%d: mapped query stats differ from heap:\n got %+v\nwant %+v",
					shards, workers, stats[1], stats[0])
			}
		}
	}
}

// TestPartFor checks the owning-shard lookup across every boundary.
func TestPartFor(t *testing.T) {
	set, db, _ := testSet(t, 91, 4, 2)
	for id := graph.ID(0); int(id) < db.Len(); id++ {
		p := set.PartFor(id)
		part := set.Part(p)
		if id < part.Base() || int(id-part.Base()) >= part.Count() {
			t.Fatalf("PartFor(%d) = %d covering [%d,+%d)", id, p, part.Base(), part.Count())
		}
	}
}

// TestInsertLandsInLastShard appends one graph and checks only the last
// shard grew.
func TestInsertLandsInLastShard(t *testing.T) {
	set, db, _ := testSet(t, 60, 3, 8)
	var before []int
	for p := 0; p < set.Shards(); p++ {
		before = append(before, set.Part(p).Count())
	}
	src := db.Graph(0)
	b := graph.NewBuilder(src.Order())
	for _, l := range src.VertexLabels() {
		b.AddVertex(l)
	}
	for _, e := range src.Edges() {
		b.AddEdge(e.U, e.V, e.Label)
	}
	b.SetFeatures(src.Features())
	g, err := b.Build(graph.ID(db.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Append(g); err != nil {
		t.Fatal(err)
	}
	if err := set.Insert(g.ID()); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < set.Shards(); p++ {
		want := before[p]
		if p == set.Shards()-1 {
			want++
		}
		if got := set.Part(p).Count(); got != want {
			t.Errorf("shard %d count %d after insert, want %d", p, got, want)
		}
	}
	if set.PartFor(g.ID()) != set.Shards()-1 {
		t.Errorf("inserted graph owned by shard %d, want last", set.PartFor(g.ID()))
	}
}

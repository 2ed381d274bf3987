// The NB-Index tests build through shard.Build with one shard — the only
// builder of a full-database index — and answer queries through
// shard.Session, the one query loop over NB-Index parts.
package nbindex_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"graphrep/internal/core"
	"graphrep/internal/graph"
	"graphrep/internal/metric"
	"graphrep/internal/nbindex"
	"graphrep/internal/shard"
	"graphrep/internal/vantage"
)

// clusteredDB builds a database with planted structural families so that
// representative queries have meaningful cluster structure: nFamilies
// scaffolds, each perturbed into members.
func clusteredDB(t testing.TB, nFamilies, perFamily int, seed int64) (*graph.Database, metric.Metric) {
	if t != nil {
		t.Helper()
	}
	rng := rand.New(rand.NewSource(seed))
	var graphs []*graph.Graph
	id := 0
	for f := 0; f < nFamilies; f++ {
		order := 6 + rng.Intn(5)
		base := graph.NewBuilder(order)
		for v := 0; v < order; v++ {
			base.AddVertex(graph.Label(rng.Intn(4)))
		}
		for v := 0; v+1 < order; v++ {
			base.AddEdge(v, v+1, 0)
		}
		for u := 0; u < order; u++ {
			for v := u + 2; v < order; v++ {
				if rng.Float64() < 0.15 {
					base.AddEdge(u, v, 0)
				}
			}
		}
		scaffold, err := base.Build(0)
		if err != nil {
			panic(err)
		}
		for p := 0; p < perFamily; p++ {
			b := scaffold.Clone(graph.ID(id))
			// Perturb: relabel one vertex.
			member, err := b.Build(graph.ID(id))
			if err != nil {
				panic(err)
			}
			// Rebuild with one random label flip for diversity.
			bb := graph.NewBuilder(member.Order())
			for v := 0; v < member.Order(); v++ {
				l := member.VertexLabel(v)
				if rng.Intn(member.Order()) == v {
					l = graph.Label(rng.Intn(4))
				}
				bb.AddVertex(l)
			}
			for _, e := range member.Edges() {
				bb.AddEdge(e.U, e.V, e.Label)
			}
			bb.SetFeatures([]float64{rng.Float64(), float64(f)})
			g, err := bb.Build(graph.ID(id))
			if err != nil {
				panic(err)
			}
			graphs = append(graphs, g)
			id++
		}
	}
	db, err := graph.NewDatabase(graphs)
	if err != nil {
		panic(err)
	}
	return db, metric.NewCache(metric.Star(db))
}

// buildSet builds a one-shard index with 5 vantage points and fan-out 4.
func buildSet(t testing.TB, db *graph.Database, m metric.Metric, grid []float64, seed int64) *shard.Set {
	if t != nil {
		t.Helper()
	}
	set, err := shard.Build(db, m, shard.Options{Shards: 1, NumVPs: 5, Branching: 4, ThetaGrid: grid}, rand.New(rand.NewSource(seed)))
	if err != nil {
		panic(err)
	}
	return set
}

// buildIndex is buildSet's one part: an NB-Index over the whole database.
func buildIndex(t testing.TB, db *graph.Database, m metric.Metric, grid []float64, seed int64) *nbindex.Index {
	if t != nil {
		t.Helper()
	}
	return buildSet(t, db, m, grid, seed).Part(0)
}

// newSession opens a session on set for relevance, failing the test on error.
func newSession(t testing.TB, set *shard.Set, relevance core.Relevance) *shard.Session {
	t.Helper()
	sess, err := set.NewSession(relevance)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

func TestBuildErrors(t *testing.T) {
	db, m := clusteredDB(t, 3, 5, 1)
	rng := rand.New(rand.NewSource(1))
	build := func(db *graph.Database, numVPs int, grid []float64) error {
		_, err := shard.Build(db, m, shard.Options{Shards: 1, NumVPs: numVPs, Branching: 2, ThetaGrid: grid}, rng)
		return err
	}
	if err := build(db, 2, nil); err == nil {
		t.Error("empty grid accepted")
	}
	if err := build(db, 2, []float64{5, 3}); err == nil {
		t.Error("unsorted grid accepted")
	}
	if err := build(db, 0, []float64{1}); err == nil {
		t.Error("NumVPs=0 accepted")
	}
	empty, _ := graph.NewDatabase(nil)
	if err := build(empty, 1, []float64{1}); err == nil {
		t.Error("empty db accepted")
	}
}

func TestGridSlot(t *testing.T) {
	db, m := clusteredDB(t, 2, 4, 2)
	ix := buildIndex(t, db, m, []float64{2, 5, 10}, 3)
	cases := []struct {
		theta float64
		want  int
	}{{0, 0}, {2, 0}, {3, 1}, {5, 1}, {9, 2}, {10, 2}, {11, 3}}
	for _, c := range cases {
		if got := ix.GridSlot(c.theta); got != c.want {
			t.Errorf("GridSlot(%v) = %d, want %d", c.theta, got, c.want)
		}
	}
}

// The central correctness property: the NB-Index greedy must return exactly
// the baseline greedy's answer (same picks, same order, same power) for any
// θ — both indexed and unindexed thresholds.
func TestTopKMatchesBaselineGreedy(t *testing.T) {
	db, m := clusteredDB(t, 5, 12, 4)
	set := buildSet(t, db, m, []float64{2, 4, 8, 16, 64}, 5)
	relevance := func(f []float64) bool { return f[0] > 0.3 }
	sess := newSession(t, set, relevance)
	for _, theta := range []float64{0, 1, 3, 4, 6.5, 10, 20, 100} {
		for _, k := range []int{1, 3, 10} {
			q := core.Query{Relevance: relevance, Theta: theta, K: k}
			want, err := core.BaselineGreedy(db, m, q)
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			got, err := sess.TopK(theta, k)
			if err != nil {
				t.Fatalf("TopK(θ=%v,k=%d): %v", theta, k, err)
			}
			if !reflect.DeepEqual(got.Answer, want.Answer) {
				t.Fatalf("θ=%v k=%d: answer %v, want %v", theta, k, got.Answer, want.Answer)
			}
			if math.Abs(got.Power-want.Power) > 1e-12 || got.Covered != want.Covered {
				t.Fatalf("θ=%v k=%d: power %v/%d, want %v/%d", theta, k, got.Power, got.Covered, want.Power, want.Covered)
			}
			if !reflect.DeepEqual(got.Gains, want.Gains) {
				t.Fatalf("θ=%v k=%d: gains %v, want %v", theta, k, got.Gains, want.Gains)
			}
		}
	}
}

func TestTopKEmptyRelevantSet(t *testing.T) {
	db, m := clusteredDB(t, 2, 5, 6)
	set := buildSet(t, db, m, []float64{4}, 7)
	sess := newSession(t, set, func([]float64) bool { return false })
	res, err := sess.TopK(4, 5)
	if err != nil {
		t.Fatalf("TopK: %v", err)
	}
	if len(res.Answer) != 0 || res.Power != 0 {
		t.Errorf("res = %+v", res)
	}
}

func TestTopKArgErrors(t *testing.T) {
	db, m := clusteredDB(t, 2, 5, 8)
	set := buildSet(t, db, m, []float64{4}, 9)
	sess := newSession(t, set, func([]float64) bool { return true })
	if _, err := sess.TopK(-1, 3); err == nil {
		t.Error("negative θ accepted")
	}
	if _, err := sess.TopK(3, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

// Refinement: repeated TopK calls on one session at different θ must agree
// with fresh baseline runs — the session state must not leak across calls.
func TestRefinementReusesSessionCorrectly(t *testing.T) {
	db, m := clusteredDB(t, 4, 10, 10)
	set := buildSet(t, db, m, []float64{2, 4, 8, 16, 64}, 11)
	relevance := func(f []float64) bool { return f[0] > 0.2 }
	sess := newSession(t, set, relevance)
	thetas := []float64{6, 5.4, 6.6, 4.9, 7.3, 6, 6} // zoom in/out pattern incl. repeats
	for _, theta := range thetas {
		want, err := core.BaselineGreedy(db, m, core.Query{Relevance: relevance, Theta: theta, K: 5})
		if err != nil {
			t.Fatal(err)
		}
		got, err := sess.TopK(theta, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Answer, want.Answer) {
			t.Fatalf("θ=%v: answer %v, want %v", theta, got.Answer, want.Answer)
		}
	}
}

// The index must issue far fewer exact distance computations than the
// quadratic baseline — the whole point of the paper.
func TestIndexSavesDistanceComputations(t *testing.T) {
	db, _ := clusteredDB(t, 6, 15, 12)
	base := metric.Star(db)
	relevance := func(f []float64) bool { return f[0] > 0.25 }
	theta := 4.0

	counterBase := metric.NewCounter(base)
	if _, err := core.BaselineGreedy(db, counterBase, core.Query{Relevance: relevance, Theta: theta, K: 10}); err != nil {
		t.Fatal(err)
	}

	counterIx := metric.NewCounter(base)
	cached := metric.NewCache(counterIx)
	set := buildSet(t, db, cached, []float64{2, 4, 8, 16, 64}, 13)
	buildCost := counterIx.Count()
	sess := newSession(t, set, relevance)
	if _, err := sess.TopK(theta, 10); err != nil {
		t.Fatal(err)
	}
	queryCost := counterIx.Count() - buildCost
	if queryCost >= counterBase.Count() {
		t.Errorf("index query used %d distances, baseline %d; expected savings", queryCost, counterBase.Count())
	}
	st := sess.LastStats()
	if st.VerifiedLeaves == 0 || st.PQPops == 0 {
		t.Errorf("stats not recorded: %+v", st)
	}
}

// Soak test: randomized cross-engine equivalence across many configurations.
// Every (database, grid, VP count, branching, θ, k) combination must produce
// the exact baseline-greedy answer through the index.
func TestCrossEngineEquivalenceSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 12; trial++ {
		db, m := clusteredDB(t, 2+rng.Intn(5), 3+rng.Intn(12), int64(700+trial))
		gridSize := 1 + rng.Intn(5)
		grid := make([]float64, 0, gridSize)
		v := 1 + rng.Float64()*3
		for len(grid) < gridSize {
			grid = append(grid, v)
			v *= 1.5 + rng.Float64()*2
		}
		set, err := shard.Build(db, m, shard.Options{
			Shards:    1,
			NumVPs:    1 + rng.Intn(7),
			Branching: 2 + rng.Intn(6),
			ThetaGrid: grid,
		}, rand.New(rand.NewSource(int64(800+trial))))
		if err != nil {
			t.Fatalf("trial %d: Build: %v", trial, err)
		}
		cut := rng.Float64() * 0.8
		relevance := func(f []float64) bool { return f[0] > cut }
		sess := newSession(t, set, relevance)
		for q := 0; q < 4; q++ {
			theta := rng.Float64() * grid[len(grid)-1] * 1.5
			k := 1 + rng.Intn(12)
			want, err := core.BaselineGreedy(db, m, core.Query{Relevance: relevance, Theta: theta, K: k})
			if err != nil {
				t.Fatal(err)
			}
			got, err := sess.TopK(theta, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Answer, want.Answer) {
				t.Fatalf("trial %d θ=%v k=%d: %v, want %v", trial, theta, k, got.Answer, want.Answer)
			}
		}
	}
}

// An index is immutable after Build: concurrent sessions (each with its own
// working state) must produce the same answers as sequential ones.
func TestConcurrentSessions(t *testing.T) {
	db, m := clusteredDB(t, 4, 10, 90)
	set := buildSet(t, db, m, []float64{2, 4, 8, 16, 64}, 91)
	relevance := func(f []float64) bool { return f[0] > 0.3 }
	want, err := newSession(t, set, relevance).TopK(5, 6)
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func() {
			for i := 0; i < 5; i++ {
				sess, err := set.NewSession(relevance)
				if err != nil {
					errs <- err
					return
				}
				got, err := sess.TopK(5, 6)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got.Answer, want.Answer) {
					errs <- fmt.Errorf("concurrent session answered %v, want %v", got.Answer, want.Answer)
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < 8; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestChooseGridFromLog(t *testing.T) {
	log := []float64{5, 12, 12, 16, 20, 25, 30, 35, 40, 75, 100}
	grid := nbindex.ChooseGridFromLog(log, 5)
	if len(grid) == 0 || !sort.Float64sAreSorted(grid) {
		t.Fatalf("grid = %v", grid)
	}
	if grid[len(grid)-1] != 100 {
		t.Errorf("grid must cover the logged maximum: %v", grid)
	}
	for i := 1; i < len(grid); i++ {
		if grid[i] == grid[i-1] {
			t.Errorf("duplicate values: %v", grid)
		}
	}
	if nbindex.ChooseGridFromLog(nil, 5) != nil {
		t.Error("empty log returned a grid")
	}
	if nbindex.ChooseGridFromLog(log, 0) != nil {
		t.Error("gridSize=0 returned a grid")
	}
}

func TestChooseGrid(t *testing.T) {
	db, m := clusteredDB(t, 5, 8, 16)
	rng := rand.New(rand.NewSource(17))
	grid := nbindex.ChooseGrid(db, m, 8, 300, rng)
	if len(grid) == 0 {
		t.Fatal("empty grid")
	}
	if !sort.Float64sAreSorted(grid) {
		t.Fatalf("grid unsorted: %v", grid)
	}
	for i := 1; i < len(grid); i++ {
		if grid[i] == grid[i-1] {
			t.Fatalf("duplicate grid values: %v", grid)
		}
	}
	// Degenerate inputs.
	if g := nbindex.ChooseGrid(db, m, 0, 10, rng); g != nil {
		t.Errorf("gridSize=0 returned %v", g)
	}
	single, _ := graph.NewDatabase(nil)
	if g := nbindex.ChooseGrid(single, m, 4, 10, rng); g != nil {
		t.Errorf("tiny db returned %v", g)
	}
}

func TestAccessorsAndFootprint(t *testing.T) {
	db, m := clusteredDB(t, 3, 6, 18)
	grid := []float64{2, 8}
	set := buildSet(t, db, m, grid, 19)
	ix := set.Part(0)
	if ix.Flat() == nil || ix.VO() == nil {
		t.Fatal("nil components")
	}
	if !reflect.DeepEqual(ix.Grid(), grid) {
		t.Errorf("Grid = %v", ix.Grid())
	}
	if ix.Bytes() <= 0 {
		t.Error("Bytes <= 0")
	}
	sess := newSession(t, set, func([]float64) bool { return true })
	if sess.RelevantCount() != db.Len() {
		t.Errorf("RelevantCount = %d", sess.RelevantCount())
	}
	if sess.PiHatBytes() <= 0 {
		t.Error("PiHatBytes <= 0")
	}
}

// VP count ablation: a session built over an index with more VPs must not
// verify more candidate distances (tighter N̂).
func TestMoreVPsNeverHurtCandidateCounts(t *testing.T) {
	db, base := clusteredDB(t, 5, 10, 20)
	relevance := func(f []float64) bool { return f[0] > 0.25 }
	run := func(numVPs int) int {
		m := metric.NewCache(base)
		set, err := shard.Build(db, m, shard.Options{Shards: 1, NumVPs: numVPs, VPPolicy: vantage.SelectMaxMin, Branching: 4, ThetaGrid: []float64{2, 4, 8, 16, 64}}, rand.New(rand.NewSource(21)))
		if err != nil {
			t.Fatal(err)
		}
		sess := newSession(t, set, relevance)
		if _, err := sess.TopK(4, 8); err != nil {
			t.Fatal(err)
		}
		return sess.LastStats().CandidateScans
	}
	few, many := run(1), run(8)
	if many > few {
		t.Errorf("8 VPs scanned %d candidates, 1 VP scanned %d", many, few)
	}
}

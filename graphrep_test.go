package graphrep_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"graphrep"
)

func openSmall(t testing.TB) (*graphrep.Database, *graphrep.Engine) {
	if t != nil {
		t.Helper()
	}
	db, err := graphrep.GenerateDataset("dud", 120, 1)
	if err != nil {
		panic(err)
	}
	engine, err := graphrep.Open(db, graphrep.Options{Seed: 2})
	if err != nil {
		panic(err)
	}
	return db, engine
}

func TestOpenErrors(t *testing.T) {
	if _, err := graphrep.Open(nil); err == nil {
		t.Error("nil database accepted")
	}
	empty, _ := graphrep.NewDatabase(nil)
	if _, err := graphrep.Open(empty); err == nil {
		t.Error("empty database accepted")
	}
}

func TestGenerateDatasetNames(t *testing.T) {
	for _, name := range []string{"dud", "dblp", "amazon"} {
		db, err := graphrep.GenerateDataset(name, 30, 3)
		if err != nil || db.Len() != 30 {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := graphrep.GenerateDataset("bogus", 10, 1); err == nil {
		t.Error("bogus dataset accepted")
	}
}

// TestTopKRepresentativeMatchesExact is the differential sweep of the
// NB-Index against the quadratic exact greedy: on dud and dblp at n=150,
// shards 1 and 2, kernel on and off, three θ drawn by a fixed seed from the
// engine's own grid and k ∈ {3, 7}, the indexed answer and its power must
// equal TopKRepresentativeExact's.
func TestTopKRepresentativeMatchesExact(t *testing.T) {
	for _, dataset := range []string{"dud", "dblp"} {
		db, err := graphrep.GenerateDataset(dataset, 150, 11)
		if err != nil {
			t.Fatal(err)
		}
		rel := graphrep.FirstQuartileRelevance(db, nil)
		var thetas []float64
		for _, shards := range []int{1, 2} {
			for _, off := range []bool{false, true} {
				engine, err := graphrep.Open(db, graphrep.Options{Seed: 3, Shards: shards, DisableBoundedKernel: off})
				if err != nil {
					t.Fatal(err)
				}
				sess, err := engine.NewSession(rel)
				if err != nil {
					t.Fatal(err)
				}
				if thetas == nil {
					// The grid depends on the data and the seed only, so the
					// first engine's sweep names the θ every engine is asked.
					sweep, err := sess.SweepTheta(3)
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(17))
					for _, i := range rng.Perm(len(sweep))[:3] {
						thetas = append(thetas, sweep[i].Theta)
					}
				}
				for _, theta := range thetas {
					for _, k := range []int{3, 7} {
						fast, err := sess.TopK(theta, k)
						if err != nil {
							t.Fatal(err)
						}
						exact, err := engine.TopKRepresentativeExact(graphrep.Query{Relevance: rel, Theta: theta, K: k})
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(fast.Answer, exact.Answer) || fast.Power != exact.Power {
							t.Errorf("%s shards=%d kernelOff=%v θ=%v k=%d: index %v (π %v), exact %v (π %v)",
								dataset, shards, off, theta, k, fast.Answer, fast.Power, exact.Answer, exact.Power)
						}
						if len(fast.Answer) == 0 || fast.Power <= 0 {
							t.Errorf("%s θ=%v k=%d: degenerate result %+v", dataset, theta, k, fast)
						}
					}
				}
			}
		}
	}
}

// TestStaleSessionAfterInsert: a session created before Engine.Insert
// returns ErrStaleSession from TopK, TopKContext and SweepTheta instead of
// walking the grown index with its old rows, on built and mapped engines at
// shards 1 and 2. A session created after the insert answers as the exact
// greedy over the grown database.
func TestStaleSessionAfterInsert(t *testing.T) {
	extra, err := graphrep.GenerateDataset("dud", 1, 99)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		for _, mapped := range []bool{false, true} {
			db, err := graphrep.GenerateDataset("dud", 200, 1)
			if err != nil {
				t.Fatal(err)
			}
			engine, err := graphrep.Open(db, graphrep.Options{Seed: 1, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if mapped {
				path := saveV4(t, engine, t.TempDir(), "stale")
				if engine, err = graphrep.OpenWithIndexFile(db, path); err != nil {
					t.Fatal(err)
				}
			}
			name := fmt.Sprintf("shards=%d mapped=%v", shards, mapped)
			rel := graphrep.FirstQuartileRelevance(db, nil)
			q := graphrep.Query{Relevance: rel, Theta: 8, K: 5}
			stale, err := engine.NewSession(rel)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := stale.TopK(q.Theta, q.K); err != nil {
				t.Fatalf("%s: TopK before the insert: %v", name, err)
			}
			id := graphrep.ID(db.Len())
			g, err := extra.Graph(0).Clone(id).Build(id)
			if err != nil {
				t.Fatal(err)
			}
			if err := engine.Insert(g); err != nil {
				t.Fatal(err)
			}
			if _, err := stale.TopK(q.Theta, q.K); !errors.Is(err, graphrep.ErrStaleSession) {
				t.Errorf("%s: stale TopK error %v, want ErrStaleSession", name, err)
			}
			if _, err := stale.TopKContext(context.Background(), q.Theta, q.K); !errors.Is(err, graphrep.ErrStaleSession) {
				t.Errorf("%s: stale TopKContext error %v, want ErrStaleSession", name, err)
			}
			if _, err := stale.SweepTheta(q.K); !errors.Is(err, graphrep.ErrStaleSession) {
				t.Errorf("%s: stale SweepTheta error %v, want ErrStaleSession", name, err)
			}
			fresh, err := engine.NewSession(rel)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fresh.TopK(q.Theta, q.K)
			if err != nil {
				t.Fatalf("%s: fresh TopK: %v", name, err)
			}
			exact, err := engine.TopKRepresentativeExact(q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Answer, exact.Answer) || got.Power != exact.Power {
				t.Errorf("%s: fresh session %v (π %v), exact %v (π %v)", name, got.Answer, got.Power, exact.Answer, exact.Power)
			}
			if err := engine.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestTopKRepresentativeValidation(t *testing.T) {
	_, engine := openSmall(t)
	if _, err := engine.TopKRepresentative(graphrep.Query{Theta: 1, K: 1}); err == nil {
		t.Error("nil relevance accepted")
	}
	if _, err := engine.TopKRepresentative(graphrep.Query{
		Relevance: func([]float64) bool { return true }, Theta: -1, K: 1,
	}); err == nil {
		t.Error("negative theta accepted")
	}
}

func TestSessionRefinement(t *testing.T) {
	_, engine := openSmall(t)
	rel := graphrep.FirstQuartileRelevance(engine.Database(), nil)
	sess, err := engine.NewSession(rel)
	if err != nil {
		t.Fatal(err)
	}
	if sess.RelevantCount() <= 0 {
		t.Fatal("no relevant graphs")
	}
	for _, theta := range []float64{8, 7.2, 8.8} {
		res, err := sess.TopK(theta, 5)
		if err != nil {
			t.Fatalf("TopK(%v): %v", theta, err)
		}
		want, err := engine.TopKRepresentativeExact(graphrep.Query{Relevance: rel, Theta: theta, K: 5})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Answer, want.Answer) {
			t.Errorf("θ=%v: refined answer %v, want %v", theta, res.Answer, want.Answer)
		}
	}
	if _, err := engine.NewSession(nil); err == nil {
		t.Error("nil relevance session accepted")
	}
}

func TestTopKRepresentativePolished(t *testing.T) {
	db, engine := openSmall(t)
	q := graphrep.Query{
		Relevance: graphrep.FirstQuartileRelevance(db, nil),
		Theta:     8,
		K:         4,
	}
	plain, err := engine.TopKRepresentative(q)
	if err != nil {
		t.Fatal(err)
	}
	polished, err := engine.TopKRepresentativePolished(q)
	if err != nil {
		t.Fatal(err)
	}
	if polished.Power < plain.Power-1e-12 {
		t.Errorf("polished π %v below greedy π %v", polished.Power, plain.Power)
	}
	if len(polished.Answer) != len(plain.Answer) {
		t.Errorf("polish changed answer size: %d vs %d", len(polished.Answer), len(plain.Answer))
	}
	if _, err := engine.TopKRepresentativePolished(graphrep.Query{Theta: 1, K: 1}); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestTraditionalTopKAndPower(t *testing.T) {
	_, engine := openSmall(t)
	score := graphrep.DimensionScore([]int{0})
	top := engine.TraditionalTopK(score, 5)
	if len(top) != 5 {
		t.Fatalf("top-5 has %d entries", len(top))
	}
	rel := graphrep.FirstQuartileRelevance(engine.Database(), []int{0})
	p := engine.Power(rel, top, 8)
	if p < 0 || p > 1 {
		t.Errorf("power = %v", p)
	}
	if len(engine.Relevant(rel)) == 0 {
		t.Error("no relevant graphs")
	}
}

func TestDistanceIsMetricAtAPILevel(t *testing.T) {
	db, _ := openSmall(t)
	a, b, c := db.Graph(0), db.Graph(1), db.Graph(2)
	dab, dba := graphrep.Distance(a, b), graphrep.Distance(b, a)
	if dab != dba || dab < 0 {
		t.Errorf("distance not symmetric/non-negative: %v %v", dab, dba)
	}
	if graphrep.Distance(a, a) != 0 {
		t.Error("d(a,a) != 0")
	}
	if graphrep.Distance(a, c) > dab+graphrep.Distance(b, c)+1e-9 {
		t.Error("triangle inequality violated")
	}
}

func TestDatabaseRoundTripThroughAPI(t *testing.T) {
	db, _ := openSmall(t)
	var buf bytes.Buffer
	if err := graphrep.WriteDatabase(&buf, db); err != nil {
		t.Fatal(err)
	}
	got, err := graphrep.ReadDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != db.Len() {
		t.Fatalf("round trip len %d, want %d", got.Len(), db.Len())
	}
	// Engines opened on the round-tripped database answer identically.
	e1, err := graphrep.Open(db, graphrep.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := graphrep.Open(got, graphrep.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rel := graphrep.FirstQuartileRelevance(db, nil)
	q := graphrep.Query{Relevance: rel, Theta: 8, K: 4}
	r1, err := e1.TopKRepresentative(q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e2.TopKRepresentative(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Answer, r2.Answer) {
		t.Errorf("answers differ after round trip: %v vs %v", r1.Answer, r2.Answer)
	}
}

func TestBuilderThroughAPI(t *testing.T) {
	b := graphrep.NewBuilder(2)
	b.AddVertex(1)
	b.AddVertex(2)
	b.AddEdge(0, 1, 3)
	b.SetFeatures([]float64{0.5})
	g, err := b.Build(0)
	if err != nil {
		t.Fatal(err)
	}
	db, err := graphrep.NewDatabase([]*graphrep.Graph{g})
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 1 {
		t.Fatal("len != 1")
	}
	// A singleton database still opens and answers.
	engine, err := graphrep.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.TopKRepresentative(graphrep.Query{
		Relevance: func([]float64) bool { return true }, Theta: 1, K: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answer) != 1 || math.Abs(res.Power-1) > 1e-12 {
		t.Errorf("singleton result %+v", res)
	}
}

func TestSaveAndReopenIndex(t *testing.T) {
	db, engine := openSmall(t)
	var buf bytes.Buffer
	if err := engine.SaveIndex(&buf); err != nil {
		t.Fatalf("SaveIndex: %v", err)
	}
	reopened, err := graphrep.OpenWithIndex(db, &buf)
	if err != nil {
		t.Fatalf("OpenWithIndex: %v", err)
	}
	rel := graphrep.FirstQuartileRelevance(db, nil)
	q := graphrep.Query{Relevance: rel, Theta: 8, K: 5}
	want, err := engine.TopKRepresentative(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := reopened.TopKRepresentative(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Answer, want.Answer) || got.Power != want.Power {
		t.Errorf("reopened engine differs: %v vs %v", got.Answer, want.Answer)
	}
	// Error paths.
	if _, err := graphrep.OpenWithIndex(nil, &bytes.Buffer{}); err == nil {
		t.Error("nil db accepted")
	}
	if _, err := graphrep.OpenWithIndex(db, bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("garbage index accepted")
	}
}

func TestIndexBytes(t *testing.T) {
	_, engine := openSmall(t)
	if engine.IndexBytes() <= 0 {
		t.Error("IndexBytes <= 0")
	}
}

func TestEngineInsert(t *testing.T) {
	db, engine := openSmall(t)
	rel := graphrep.FirstQuartileRelevance(db, nil)
	before, err := engine.TopKRepresentative(graphrep.Query{Relevance: rel, Theta: 8, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Insert 5 new molecules cloned (with fresh IDs) from another dataset.
	extra, err := graphrep.GenerateDataset("dud", 10, 99)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		id := graphrep.ID(db.Len())
		g, err := extra.Graph(graphrep.ID(i)).Clone(id).Build(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := engine.Insert(g); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	if db.Len() != 125 {
		t.Fatalf("db len = %d, want 125", db.Len())
	}
	// Post-insert answers must exactly match the quadratic greedy over the
	// grown database.
	after, err := engine.TopKRepresentative(graphrep.Query{Relevance: rel, Theta: 8, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := engine.TopKRepresentativeExact(graphrep.Query{Relevance: rel, Theta: 8, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after.Answer, exact.Answer) {
		t.Errorf("post-insert index answer %v, exact %v", after.Answer, exact.Answer)
	}
	_ = before
	// Wrong-ID insert is rejected.
	bad, err := extra.Graph(7).Clone(0).Build(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.Insert(bad); err == nil {
		t.Error("wrong-id insert accepted")
	}
}

func TestSweepAndSuggestThroughAPI(t *testing.T) {
	db, engine := openSmall(t)
	sess, err := engine.NewSession(graphrep.FirstQuartileRelevance(db, nil))
	if err != nil {
		t.Fatal(err)
	}
	points, err := sess.SweepTheta(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("empty sweep")
	}
	best, err := graphrep.SuggestTheta(points)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.TopK(best.Theta, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Power <= 0 {
		t.Errorf("suggested θ produced π=%v", res.Power)
	}
}

func TestScenarioQueryFunctionsThroughAPI(t *testing.T) {
	f := []float64{1, 0, 0.5}
	if s := graphrep.TopicScore([]int{0})(f); s <= 0 || s > 1 {
		t.Errorf("TopicScore = %v", s)
	}
	if !graphrep.TopicRelevance([]int{0}, 0.1)(f) {
		t.Error("TopicRelevance false")
	}
	if s := graphrep.WeightedScore([]float64{2, 0, 2})(f); s != 3 {
		t.Errorf("WeightedScore = %v", s)
	}
	if !graphrep.WeightedRelevance([]float64{2, 0, 2}, 2)(f) {
		t.Error("WeightedRelevance false")
	}
	db, _ := openSmall(t)
	if graphrep.WLHash(db.Graph(0), 2) == 0 {
		t.Error("WLHash returned 0 (suspicious)")
	}
	if graphrep.WLHash(db.Graph(0), 2) != graphrep.WLHash(db.Graph(0), 2) {
		t.Error("WLHash not deterministic")
	}
}

func TestOpenRejectsBrokenMetrics(t *testing.T) {
	db, _ := graphrep.GenerateDataset("dud", 30, 5)
	cases := map[string]graphrep.MetricFunc{
		"nonzero identity": func(a, b graphrep.ID) float64 { return 1 },
		"negative":         func(a, b graphrep.ID) float64 { return float64(a) - float64(b) },
		"asymmetric": func(a, b graphrep.ID) float64 {
			if a == b {
				return 0
			}
			return float64(a)*1000 + float64(b)
		},
	}
	for name, m := range cases {
		if _, err := graphrep.Open(db, graphrep.Options{Metric: m}); err == nil {
			t.Errorf("%s metric accepted", name)
		}
	}
	// A valid custom metric passes.
	ok := graphrep.MetricFunc(func(a, b graphrep.ID) float64 {
		if a > b {
			a, b = b, a
		}
		return float64(b - a)
	})
	if _, err := graphrep.Open(db, graphrep.Options{Metric: ok}); err != nil {
		t.Errorf("valid metric rejected: %v", err)
	}
}

func TestOpenWithCustomGridAndVPs(t *testing.T) {
	db, _ := graphrep.GenerateDataset("dblp", 60, 9)
	engine, err := graphrep.Open(db, graphrep.Options{
		NumVPs:    3,
		Branching: 2,
		ThetaGrid: []float64{2, 8, 32},
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.TopKRepresentative(graphrep.Query{
		Relevance: graphrep.FirstQuartileRelevance(db, nil),
		Theta:     8,
		K:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answer) == 0 {
		t.Error("empty answer")
	}
}

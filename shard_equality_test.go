package graphrep_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"graphrep"
)

// The sharding determinism contract, as tests:
//
//   - answers (Answer, Gains, Covered, Power) are byte-identical for any
//     shard count — the global vantage point set and θ grid make per-shard
//     bounds compose exactly;
//   - at a fixed shard count, everything — answers, SaveIndex bytes, and
//     QueryStats — is identical for any Workers value;
//   - a multi-shard index round-trips through SaveIndex/OpenWithIndex with
//     its shard count intact.
//
// QueryStats totals are deliberately NOT compared across different shard
// counts: each count's forest has its own shape, so the search does a
// different (equally correct) amount of bookkeeping work.

var equalityThetas = []float64{4, 6, 8, 11}

type answer struct {
	Answer   []graphrep.ID
	Gains    []int
	Covered  int
	Relevant int
	Power    float64
}

// collectAnswers runs TopK at every test θ plus a full sweep, recording the
// results and per-query stats.
func collectAnswers(t *testing.T, engine *graphrep.Engine, k int) ([]answer, []graphrep.QueryStats, []graphrep.ThetaPoint) {
	t.Helper()
	rel := graphrep.FirstQuartileRelevance(engine.Database(), nil)
	sess, err := engine.NewSession(rel)
	if err != nil {
		t.Fatal(err)
	}
	var answers []answer
	var stats []graphrep.QueryStats
	for _, theta := range equalityThetas {
		res, err := sess.TopK(theta, k)
		if err != nil {
			t.Fatal(err)
		}
		answers = append(answers, answer{
			Answer: res.Answer, Gains: res.Gains,
			Covered: res.Covered, Relevant: res.Relevant, Power: res.Power,
		})
		stats = append(stats, sess.LastStats())
	}
	points, err := sess.SweepTheta(k)
	if err != nil {
		t.Fatal(err)
	}
	return answers, stats, points
}

// TestShardCountAnswerEquality builds the same database at 1, 2, and 4
// shards and checks every answer — TopK at several θ and the full sweep
// curve — is identical.
func TestShardCountAnswerEquality(t *testing.T) {
	db, err := graphrep.GenerateDataset("dud", 150, 5)
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		shards  int
		answers []answer
		points  []graphrep.ThetaPoint
	}
	var runs []run
	for _, shards := range []int{1, 2, 4} {
		engine, err := graphrep.Open(db, graphrep.Options{Seed: 5, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if engine.Shards() != shards {
			t.Fatalf("engine has %d shards, want %d", engine.Shards(), shards)
		}
		answers, _, points := collectAnswers(t, engine, 5)
		runs = append(runs, run{shards, answers, points})
	}
	for _, r := range runs[1:] {
		if !reflect.DeepEqual(r.answers, runs[0].answers) {
			t.Errorf("shards=%d answers differ from shards=1:\n got %+v\nwant %+v",
				r.shards, r.answers, runs[0].answers)
		}
		if !reflect.DeepEqual(r.points, runs[0].points) {
			t.Errorf("shards=%d sweep curve differs from shards=1", r.shards)
		}
	}
}

// TestShardWorkerEquality fixes the shard count and varies Workers: answers,
// QueryStats, and the persisted index bytes must all be identical — the
// parallelism is pre-partitioned and every randomized decision is pinned
// before any fan-out.
func TestShardWorkerEquality(t *testing.T) {
	db, err := graphrep.GenerateDataset("dud", 140, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4} {
		type run struct {
			workers int
			answers []answer
			stats   []graphrep.QueryStats
			blob    []byte
		}
		var runs []run
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			engine, err := graphrep.Open(db, graphrep.Options{Seed: 9, Shards: shards, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := engine.SaveIndex(&buf); err != nil {
				t.Fatal(err)
			}
			answers, stats, _ := collectAnswers(t, engine, 4)
			runs = append(runs, run{workers, answers, stats, buf.Bytes()})
		}
		for _, r := range runs[1:] {
			if !bytes.Equal(r.blob, runs[0].blob) {
				t.Errorf("shards=%d: index bytes differ between workers=%d and workers=%d",
					shards, r.workers, runs[0].workers)
			}
			if !reflect.DeepEqual(r.answers, runs[0].answers) {
				t.Errorf("shards=%d: answers differ between workers=%d and workers=%d",
					shards, r.workers, runs[0].workers)
			}
			if !reflect.DeepEqual(r.stats, runs[0].stats) {
				t.Errorf("shards=%d: query stats differ between workers=%d and workers=%d:\n got %+v\nwant %+v",
					shards, r.workers, runs[0].workers, r.stats, runs[0].stats)
			}
		}
	}
}

// TestBoundedKernelAnswerEquality is the kernel's core acceptance contract:
// with the bounded distance kernel on (default) and off
// (DisableBoundedKernel), answers, sweep curves, and persisted index bytes
// are byte-identical — at every shard count and worker count. The kernel may
// only change how a threshold decision is reached, never the decision.
func TestBoundedKernelAnswerEquality(t *testing.T) {
	db, err := graphrep.GenerateDataset("dud", 150, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			type run struct {
				disabled bool
				answers  []answer
				stats    []graphrep.QueryStats
				points   []graphrep.ThetaPoint
				blob     []byte
			}
			var runs []run
			for _, disabled := range []bool{false, true} {
				engine, err := graphrep.Open(db, graphrep.Options{
					Seed: 5, Shards: shards, Workers: workers,
					DisableBoundedKernel: disabled,
				})
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := engine.SaveIndex(&buf); err != nil {
					t.Fatal(err)
				}
				answers, stats, points := collectAnswers(t, engine, 5)
				runs = append(runs, run{disabled, answers, stats, points, buf.Bytes()})
				snap := engine.Telemetry().Snapshot()
				if disabled && snap.Prune.Pruned()+snap.Prune.BoundedExact != 0 {
					t.Errorf("shards=%d workers=%d: disabled kernel still made bounded decisions: %+v",
						shards, workers, snap.Prune)
				}
				if !disabled && snap.QueryTotals.PrunedDistances == 0 {
					t.Errorf("shards=%d workers=%d: bounded kernel pruned nothing on the query path",
						shards, workers)
				}
			}
			on, off := runs[0], runs[1]
			if !bytes.Equal(on.blob, off.blob) {
				t.Errorf("shards=%d workers=%d: index bytes differ with kernel on vs off", shards, workers)
			}
			if !reflect.DeepEqual(on.answers, off.answers) {
				t.Errorf("shards=%d workers=%d: answers differ with kernel on vs off:\n on %+v\noff %+v",
					shards, workers, on.answers, off.answers)
			}
			if !reflect.DeepEqual(on.points, off.points) {
				t.Errorf("shards=%d workers=%d: sweep curves differ with kernel on vs off", shards, workers)
			}
			// The split between pruned and exact differs by design, but the
			// total candidate tests per query must not.
			for i := range on.stats {
				a, b := on.stats[i], off.stats[i]
				if a.PQPops != b.PQPops || a.VerifiedLeaves != b.VerifiedLeaves ||
					a.CandidateScans != b.CandidateScans ||
					a.ExactDistances+a.PrunedDistances != b.ExactDistances+b.PrunedDistances {
					t.Errorf("shards=%d workers=%d query %d: work shape differs with kernel on vs off:\n on %+v\noff %+v",
						shards, workers, i, a, b)
				}
				if b.PrunedDistances != 0 {
					t.Errorf("shards=%d workers=%d query %d: disabled kernel reported pruned distances", shards, workers, i)
				}
			}
		}
	}
}

// TestSaveIndexShardRoundTrip persists a multi-shard index and reloads it:
// the shard count survives, the answers match the original engine, and
// re-saving reproduces the same bytes.
func TestSaveIndexShardRoundTrip(t *testing.T) {
	db, err := graphrep.GenerateDataset("dud", 130, 3)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := graphrep.Open(db, graphrep.Options{Seed: 3, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := engine.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	blob := append([]byte(nil), buf.Bytes()...)

	loaded, err := graphrep.OpenWithIndex(db, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Shards() != 3 {
		t.Fatalf("loaded engine has %d shards, want 3", loaded.Shards())
	}
	wantAnswers, _, _ := collectAnswers(t, engine, 5)
	gotAnswers, _, _ := collectAnswers(t, loaded, 5)
	if !reflect.DeepEqual(gotAnswers, wantAnswers) {
		t.Errorf("loaded engine answers differ:\n got %+v\nwant %+v", gotAnswers, wantAnswers)
	}
	var again bytes.Buffer
	if err := loaded.SaveIndex(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), blob) {
		t.Error("re-saved index bytes differ from the original")
	}
}

// TestOpenWithIndexContextCancel checks the satellite contract on the load
// path: a pre-cancelled context aborts OpenWithIndexContext with ctx.Err().
func TestOpenWithIndexContextCancel(t *testing.T) {
	db, err := graphrep.GenerateDataset("dud", 60, 2)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := graphrep.Open(db, graphrep.Options{Seed: 2, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := engine.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := graphrep.OpenWithIndexContext(ctx, db, &buf); err != context.Canceled {
		t.Fatalf("cancelled OpenWithIndexContext returned %v, want context.Canceled", err)
	}
}

// TestGraphStoreEquality is the mapped-corpus acceptance contract: the same
// dataset served from the heap (text-loaded) and from a GRDB001 container
// (memory-mapped) must produce byte-identical answers, sweep curves,
// QueryStats, and persisted index bytes — at every shard count and worker
// count. The storage layer may only change where the bytes live, never what
// any query computes. The mapped engines at a given shard count all share ONE
// mapped database, so running this test under -race also checks that
// concurrent sessions over a single shared mapping are safe.
func TestGraphStoreEquality(t *testing.T) {
	heap, err := graphrep.GenerateDataset("dud", 150, 5)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corpus.grdb")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graphrep.SaveDatabase(f, heap); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	mapped, err := graphrep.OpenDatabaseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if !mapped.Mapped() {
		t.Log("corpus opened without a mapping (heap-copy fallback); equality checks still apply")
	}
	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			type run struct {
				store   string
				db      *graphrep.Database
				answers []answer
				stats   []graphrep.QueryStats
				points  []graphrep.ThetaPoint
				blob    []byte
			}
			runs := []run{{store: "heap", db: heap}, {store: "mapped", db: mapped}}
			for i := range runs {
				engine, err := graphrep.Open(runs[i].db, graphrep.Options{Seed: 5, Shards: shards, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := engine.SaveIndex(&buf); err != nil {
					t.Fatal(err)
				}
				runs[i].answers, runs[i].stats, runs[i].points = collectAnswers(t, engine, 5)
				runs[i].blob = buf.Bytes()
			}
			h, m := runs[0], runs[1]
			if !bytes.Equal(m.blob, h.blob) {
				t.Errorf("shards=%d workers=%d: index bytes differ heap vs mapped", shards, workers)
			}
			if !reflect.DeepEqual(m.answers, h.answers) {
				t.Errorf("shards=%d workers=%d: answers differ heap vs mapped:\n heap %+v\nmapped %+v",
					shards, workers, h.answers, m.answers)
			}
			if !reflect.DeepEqual(m.stats, h.stats) {
				t.Errorf("shards=%d workers=%d: query stats differ heap vs mapped:\n heap %+v\nmapped %+v",
					shards, workers, h.stats, m.stats)
			}
			if !reflect.DeepEqual(m.points, h.points) {
				t.Errorf("shards=%d workers=%d: sweep curves differ heap vs mapped", shards, workers)
			}
		}
	}
}

// TestGraphStoreExactAndPolished covers the engine paths that bypass session
// creation (and therefore carry their own deferred-validation trigger): exact
// and polished answers over a mapped corpus must equal the heap answers.
func TestGraphStoreExactAndPolished(t *testing.T) {
	heap, err := graphrep.GenerateDataset("dud", 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corpus.grdb")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graphrep.SaveDatabase(f, heap); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	mapped, err := graphrep.OpenDatabaseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	he, err := graphrep.Open(heap, graphrep.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	me, err := graphrep.Open(mapped, graphrep.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	q := graphrep.Query{Theta: 6, K: 4, Relevance: graphrep.FirstQuartileRelevance(heap, nil)}
	wantExact, err := he.TopKRepresentativeExact(q)
	if err != nil {
		t.Fatal(err)
	}
	gotExact, err := me.TopKRepresentativeExact(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotExact, wantExact) {
		t.Errorf("exact answers differ heap vs mapped:\n heap %+v\nmapped %+v", wantExact, gotExact)
	}
	wantPol, err := he.TopKRepresentativePolished(q)
	if err != nil {
		t.Fatal(err)
	}
	gotPol, err := me.TopKRepresentativePolished(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotPol, wantPol) {
		t.Errorf("polished answers differ heap vs mapped:\n heap %+v\nmapped %+v", wantPol, gotPol)
	}
}

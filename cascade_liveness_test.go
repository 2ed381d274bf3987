package graphrep_test

import (
	"testing"

	"graphrep"
)

// TestCascadeNoDeadTierOnReferenceWorkload pins the fix for the dead-tier
// regression: on the reference bench workload (dud, n=400 — the exact
// configuration where the retired size and histogram tiers fired zero times)
// and on dblp at the same size, every remaining cascade stage must decide at
// least one threshold test. A permanently-zero counter means a tier is
// burning comparisons per call without ever terminating one, which is how
// the kernel's bounded path came to lose to the exact path in the first
// place.
func TestCascadeNoDeadTierOnReferenceWorkload(t *testing.T) {
	for _, dataset := range []string{"dud", "dblp"} {
		prune := sweepPrune(t, dataset, 400, 0)
		for _, tier := range []struct {
			name  string
			fired int64
		}{
			{"embedding", prune.Embedding},
			{"rowmin", prune.RowMin},
			{"greedy", prune.Greedy},
			{"exact", prune.BoundedExact},
		} {
			if tier.fired == 0 {
				t.Errorf("%s: cascade tier %s never fired on the reference workload (%+v)", dataset, tier.name, prune)
			}
		}
	}
}

// TestKernelCountsPinned is the machine-independent kernel gate: the exact
// cascade breakdown of the dud n=400 sweep, at one worker and at the
// default. The counts are deterministic and worker-independent, so any
// kernel or cache change that moves one fails here on every machine, where
// a wall-clock ratio would drown it in scheduling noise. A change that moves
// them on purpose re-pins them and says why.
func TestKernelCountsPinned(t *testing.T) {
	want := graphrep.PruneStats{
		Embedding:    218,
		RowMin:       104,
		Greedy:       1670,
		BoundedExact: 1789,
		ExactValues:  11730,
		GreedyTried:  3459,
	}
	const wantFull, wantPruned = 13519, 1992
	for _, workers := range []int{1, 0} {
		got := sweepPrune(t, "dud", 400, workers)
		if got != want {
			t.Errorf("Workers %d: cascade counts %+v, want %+v", workers, got, want)
		}
		if got.FullSolves() != wantFull || got.Pruned() != wantPruned {
			t.Errorf("Workers %d: %d full solves, %d pruned; want %d, %d",
				workers, got.FullSolves(), got.Pruned(), wantFull, wantPruned)
		}
	}
}

// sweepPrune opens an engine over an n-graph dataset with the given worker
// bound (0 is GOMAXPROCS), sweeps θ at k=5 and answers a top-5 query at
// every swept θ, then returns the cascade counters.
func sweepPrune(t *testing.T, dataset string, n, workers int) graphrep.PruneStats {
	t.Helper()
	db, err := graphrep.GenerateDataset(dataset, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := graphrep.Open(db, graphrep.Options{Seed: 1, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := engine.NewSession(graphrep.FirstQuartileRelevance(db, nil))
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := sess.SweepTheta(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range sweep {
		if _, err := sess.TopK(p.Theta, 5); err != nil {
			t.Fatal(err)
		}
	}
	return engine.Telemetry().Snapshot().Prune
}

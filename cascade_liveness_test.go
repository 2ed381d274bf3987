package graphrep_test

import (
	"testing"

	"graphrep"
)

// TestCascadeNoDeadTierOnReferenceWorkload pins the fix for the dead-tier
// regression: on the reference bench workload (dud, n=400 — the exact
// configuration where the retired size and histogram tiers fired zero times)
// every remaining cascade stage must decide at least one threshold test.
// A permanently-zero counter means a tier is burning comparisons per call
// without ever terminating one, which is how the kernel's bounded path came
// to lose to the exact path in the first place.
func TestCascadeNoDeadTierOnReferenceWorkload(t *testing.T) {
	prune := sweepPrune(t, "dud", 400)
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
			t.Errorf("cascade tier %s never fired on the reference workload (%+v)", tier.name, prune)
		}
	}
}

// TestCascadeRowMinDeepBranchFires pins the row-minima bound's deep branch —
// a miss past τ by more than the sweep margin, returned without a hardening
// solve. It never fires on dud, where every row-minima decision is a shallow
// miss that pays the solve (RowMin == RowMinSolved), but it does on dblp, so
// dud-only counts are no evidence that the branch is dead.
func TestCascadeRowMinDeepBranchFires(t *testing.T) {
	prune := sweepPrune(t, "dblp", 400)
	t.Logf("dblp n=400: %d row-minima decisions, %d with a hardening solve", prune.RowMin, prune.RowMinSolved)
	if prune.RowMin <= prune.RowMinSolved {
		t.Errorf("row-minima deep branch never fired on dblp n=400: %d row-minima decisions, %d solved (%+v)",
			prune.RowMin, prune.RowMinSolved, prune)
	}
}

// sweepPrune opens an engine over an n-graph dataset, sweeps θ at k=5 and
// answers a top-5 query at every swept θ, then returns the cascade counters.
func sweepPrune(t *testing.T, dataset string, n int) graphrep.PruneStats {
	t.Helper()
	db, err := graphrep.GenerateDataset(dataset, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := graphrep.Open(db, graphrep.Options{Seed: 1})
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

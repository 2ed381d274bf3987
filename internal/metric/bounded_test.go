package metric

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"graphrep/internal/graph"
)

// within is the verdict of Decide alone.
func within(m Metric, a, b graph.ID, theta float64) bool {
	leq, _ := Decide(m, a, b, theta)
	return leq
}

// Every built-in metric must satisfy the bounded-decision contract exactly:
// Decide(m, a, b, θ) ⇔ Distance(a, b) ≤ θ, at thresholds on, below, and
// above the true distance.
func TestDecideMatchesDistance(t *testing.T) {
	db := testDB(t, 40, 3)
	metrics := map[string]Metric{
		"star":    Star(db),
		"counter": NewCounter(Star(db)),
		"cache":   NewCache(NewCounter(Star(db))),
		"matrix":  NewMatrix(db, Star(db), 2),
	}
	rng := rand.New(rand.NewSource(7))
	for name, m := range metrics {
		for trial := 0; trial < 400; trial++ {
			a := graph.ID(rng.Intn(db.Len()))
			b := graph.ID(rng.Intn(db.Len()))
			d := m.Distance(a, b)
			for _, theta := range []float64{d - 1, d - 0.5, d, d + 0.5, d + 1, 0, -1, d * 2} {
				if got := within(m, a, b, theta); got != (d <= theta) {
					t.Fatalf("%s: Decide(%d,%d,%v) = %v but Distance = %v", name, a, b, theta, got, d)
				}
			}
		}
	}
}

// Decide must fall back to an exact comparison (never pruned) for plain
// metrics and for metrics whose bounded path ExactOnly hides.
func TestDecideFallback(t *testing.T) {
	db := testDB(t, 20, 5)
	star := Star(db)
	plain := Func(star.Distance)
	exact := ExactOnly(NewCache(star))
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		a := graph.ID(rng.Intn(db.Len()))
		b := graph.ID(rng.Intn(db.Len()))
		d := star.Distance(a, b)
		for _, theta := range []float64{d - 1, d, d + 1} {
			for name, m := range map[string]Metric{"plain": plain, "exactonly": exact} {
				leq, pruned := Decide(m, a, b, theta)
				if leq != (d <= theta) {
					t.Fatalf("%s: Decide(%d,%d,%v) = %v, distance %v", name, a, b, theta, leq, d)
				}
				if pruned {
					t.Fatalf("%s: Decide reported pruned for a metric with no bounded path", name)
				}
			}
		}
	}
}

// ExactOnly must hide the bounded capability entirely.
func TestExactOnlyHidesBoundedPath(t *testing.T) {
	m := ExactOnly(NewCache(Star(testDB(t, 5, 1))))
	if _, ok := m.(decider); ok {
		t.Error("ExactOnly metric still exposes the detailed decision path")
	}
}

// A pruned decision must still help later calls: the interval it stores
// answers a repeat of the same test from the table (a hit with no inner
// computation), and Misses continues to equal the inner computations issued.
func TestCacheIntervalMemoization(t *testing.T) {
	db := testDB(t, 30, 9)
	counter := NewCounter(Star(db))
	c := NewCache(counter)

	a, b, d, theta, _ := openIntervalPair(t, db)
	if within(c, a, b, theta) {
		t.Fatalf("Decide(%v) true but distance is %v", theta, d)
	}
	if c.Misses() != 1 || c.Size() != 1 {
		t.Fatalf("after first decision: misses=%d size=%d, want 1, 1", c.Misses(), c.Size())
	}
	// Identical repeat: decided by the stored interval, no inner computation.
	if within(c, a, b, theta) {
		t.Fatal("repeat decision changed its verdict")
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("repeat decision: hits=%d misses=%d, want 1, 1", c.Hits(), c.Misses())
	}
	// A lower threshold is decided by the same lower bound (lo > θ' too).
	if within(c, a, b, theta-5) {
		t.Fatal("decision at lower threshold changed its verdict")
	}
	if c.Hits() != 2 || c.Misses() != 1 {
		t.Fatalf("lower-threshold decision: hits=%d misses=%d, want 2, 1", c.Hits(), c.Misses())
	}
	if got := counter.Count(); got != c.Misses() {
		t.Fatalf("inner computations %d != misses %d", got, c.Misses())
	}

	// A Distance call cannot be served by the interval: it counts a miss,
	// computes, and upgrades the entry to exact without growing the table.
	if got := c.Distance(a, b); got != d {
		t.Fatalf("Distance = %v, want %v", got, d)
	}
	if c.Misses() != 2 || c.Size() != 1 {
		t.Fatalf("after Distance: misses=%d size=%d, want 2, 1", c.Misses(), c.Size())
	}
	// Now exact: every further call at any threshold is a hit.
	hits := c.Hits()
	if !within(c, a, b, d) || within(c, a, b, d-0.5) || c.Distance(a, b) != d {
		t.Fatal("exact entry answered incorrectly")
	}
	if c.Hits() != hits+3 || c.Misses() != 2 {
		t.Fatalf("exact entry: hits=%d misses=%d, want %d, 2", c.Hits(), c.Misses(), hits+3)
	}

	// Clear drops interval entries along with exact ones.
	c.Clear()
	if c.Size() != 0 || c.Hits() != 0 || c.Misses() != 0 {
		t.Fatal("Clear left residue")
	}
}

// openIntervalPair finds a pair and threshold whose fresh bounded decision
// is a prune with an open interval [lo, ∞), probing a scratch metric so the
// caller's counters stay untouched. It returns the exact distance d and the
// proven lo; lo ≤ d, so a probe at θ = lo is one the interval cannot decide.
func openIntervalPair(t *testing.T, db *graph.Database) (a, b graph.ID, d, theta, lo float64) {
	t.Helper()
	probe := Star(db)
	for i := 0; i < db.Len(); i++ {
		for j := i + 1; j < db.Len(); j++ {
			dd := probe.Distance(graph.ID(i), graph.ID(j))
			if dd < 3 {
				continue
			}
			for _, th := range []float64{1, dd / 2, dd - 1} {
				if th <= 0 {
					continue
				}
				if dec := probe.boundedDecide(graph.ID(i), graph.ID(j), th); dec.pruned && math.IsInf(dec.hi, 1) {
					return graph.ID(i), graph.ID(j), dd, th, dec.lo
				}
			}
		}
	}
	t.Fatal("no pair with a pruned open-interval decision in test database")
	return
}

// A stored interval that cannot decide a probe is replaced by exactly one
// exact Distance on the inner metric, after which every test at any
// threshold is a table hit and the inner metric is never consulted again.
func TestCachePromoteToExact(t *testing.T) {
	db := testDB(t, 30, 9)
	star := Star(db)
	c := NewCache(star)
	a, b, d, theta, lo := openIntervalPair(t, db)

	if within(c, a, b, theta) {
		t.Fatalf("Decide(%v) true but distance is %v", theta, d)
	}
	// θ = lo lies inside the stored [lo, ∞): the interval cannot decide.
	before := star.PruneStats()
	if got := within(c, a, b, lo); got != (d <= lo) {
		t.Fatalf("undecided repeat: Decide(%v) = %v, distance %v", lo, got, d)
	}
	after := star.PruneStats()
	if after.ExactValues-before.ExactValues != 1 || after.FullSolves()-before.FullSolves() != 1 ||
		after.Pruned() != before.Pruned() {
		t.Fatalf("undecided repeat spent %d exact values, %d full solves, %d prunes; want 1, 1, 0 (%+v -> %+v)",
			after.ExactValues-before.ExactValues, after.FullSolves()-before.FullSolves(),
			after.Pruned()-before.Pruned(), before, after)
	}
	if c.Misses() != 2 {
		t.Fatalf("misses = %d, want 2", c.Misses())
	}
	// Promoted: every further call, at any threshold, is a hit.
	hits := c.Hits()
	if within(c, a, b, d-1) || !within(c, a, b, d) || c.Distance(a, b) != d {
		t.Fatal("promoted entry answered incorrectly")
	}
	if s := star.PruneStats(); s != after {
		t.Errorf("inner consulted after promotion: %+v -> %+v", after, s)
	}
	if c.Hits() != hits+3 || c.Misses() != 2 {
		t.Errorf("hits=%d misses=%d after promotion, want %d, 2", c.Hits(), c.Misses(), hits+3)
	}
}

// Concurrent decision/Distance storms on one Cache must converge to exact
// values that agree with an uncached reference, with the hit/miss invariant
// (hits + misses == non-identity lookups, misses == inner computations)
// intact. Run under -race this also checks the striped locking around the
// interval merges.
func TestCacheBoundedConcurrent(t *testing.T) {
	db := testDB(t, 25, 13)
	counter := NewCounter(Star(db))
	c := NewCache(counter)
	ref := Star(db)

	const workers = 8
	const perWorker = 600
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				a := graph.ID(rng.Intn(db.Len()))
				b := graph.ID(rng.Intn(db.Len()))
				theta := float64(rng.Intn(12))
				if rng.Intn(3) == 0 {
					d := c.Distance(a, b)
					if want := ref.Distance(a, b); d != want {
						errs <- "Distance diverged from reference"
						return
					}
				} else if got, want := within(c, a, b, theta), ref.Distance(a, b) <= theta; got != want {
					errs <- "Decide diverged from reference"
					return
				}
			}
		}(int64(100 + w))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if c.Misses() != counter.Count() {
		t.Errorf("misses %d != inner computations %d", c.Misses(), counter.Count())
	}

	// After the storm, sequential Distance calls over every pair must still
	// equal the reference: intervals never corrupt values.
	for i := 0; i < db.Len(); i++ {
		for j := 0; j < db.Len(); j++ {
			a, b := graph.ID(i), graph.ID(j)
			if got, want := c.Distance(a, b), ref.Distance(a, b); got != want {
				t.Fatalf("post-storm Distance(%d,%d) = %v, want %v", a, b, got, want)
			}
		}
	}
}

// The Star metric's PruneStats must account for every bounded decision and
// every exact value computation, with pruned + full solves == total tests.
func TestStarPruneStats(t *testing.T) {
	db := testDB(t, 30, 17)
	star := Star(db)
	if s := star.PruneStats(); s != (PruneStats{}) {
		t.Fatalf("fresh metric has nonzero stats: %+v", s)
	}
	rng := rand.New(rand.NewSource(19))
	tests := 0
	for i := 0; i < 500; i++ {
		a := graph.ID(rng.Intn(db.Len()))
		b := graph.ID(rng.Intn(db.Len()))
		if a == b {
			continue
		}
		Decide(star, a, b, float64(rng.Intn(14)))
		tests++
	}
	s := star.PruneStats()
	if got := s.Pruned() + s.FullSolves(); got != int64(tests) {
		t.Errorf("stage counts %+v sum to %d, want %d bounded tests", s, got, tests)
	}
	if s.ExactValues != 0 {
		t.Errorf("ExactValues = %d without any Distance call", s.ExactValues)
	}
	star.Distance(0, 1)
	if s := star.PruneStats(); s.ExactValues != 1 {
		t.Errorf("ExactValues = %d after one Distance call, want 1", s.ExactValues)
	}
}

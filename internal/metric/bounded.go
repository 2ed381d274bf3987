package metric

import (
	"math"

	"graphrep/internal/ged"
	"graphrep/internal/graph"
)

// decision is the internal detailed outcome of a bounded test: the verdict,
// whether it was reached without a completed exact solve (pruned), and the
// proven interval lo ≤ d ≤ hi (hi is +Inf when no upper bound exists). The
// interval is what Cache memoizes.
type decision struct {
	leq    bool
	pruned bool
	lo, hi float64
}

// decider is implemented by the star metric and by the Counter and Cache
// wrappers to expose the detailed decision to each other (Cache needs the
// inner interval to memoize it) and to Decide. Its contract is strict: the verdict equals
// Distance(a, b) ≤ theta for every theta — a bounded decision may be
// cheaper, never different — which keeps answers byte-identical whether or
// not the bounded kernel is enabled.
type decider interface {
	boundedDecide(a, b graph.ID, theta float64) decision
}

// Decide resolves d(a,b) ≤ theta through m, preferring the bounded path when
// m supports it, and additionally reports whether the decision was pruned —
// reached without a completed exact Hungarian solve. It is the one decision
// entry of the verify loops, which use the flag to split QueryStats between
// PrunedDistances and ExactDistances.
func Decide(m Metric, a, b graph.ID, theta float64) (leq, pruned bool) {
	d := boundedDecide(m, a, b, theta)
	return d.leq, d.pruned
}

// boundedDecide takes the detailed path of a metric that has one; for any
// other Metric the exact distance is computed and compared.
func boundedDecide(m Metric, a, b graph.ID, theta float64) decision {
	if mm, ok := m.(decider); ok {
		return mm.boundedDecide(a, b, theta)
	}
	d := m.Distance(a, b)
	return decision{leq: d <= theta, pruned: false, lo: d, hi: d}
}

// PruneStats is the cascade breakdown of a Star metric: how many bounded
// decisions each lower/upper-bound stage resolved without a completed
// Hungarian solve, how many bounded decisions needed the full solve
// (BoundedExact), and how many plain Distance computations were issued
// (ExactValues — always a full solve). FullSolves is therefore the number of
// complete Hungarian runs; Pruned the number avoided.
type PruneStats struct {
	// Embedding counts decisions the precomputed filter tier resolved from
	// two cached vectors alone (the max of the padding/size bound and the
	// center+spoke histogram L1 bound; O(dims), no per-pair assignment
	// work). It subsumes the retired size and histogram tiers.
	Embedding int64
	RowMin    int64 // decisions the row-minima lower bound made (O(n²))
	Greedy    int64 // greedy-assignment upper bound (O(n²))
	// Dual is always 0: the cascade has no dual-abort tier. The field stays
	// because the perfbench module's trace still reads it.
	Dual int64

	// RowMinSolved is always 0: a row-minima miss never spends a solve. The
	// field stays because the perfbench module's trace still reads it.
	RowMinSolved int64

	BoundedExact int64
	ExactValues  int64

	// GreedyTried is the number of decisions the greedy tier ran on: every
	// decision past the lower-bound tiers, Greedy + BoundedExact. It is
	// derived, and stays because the perfbench module's trace reads it.
	GreedyTried int64
	// DualArmed is always 0, like Dual, and stays for the same reader.
	DualArmed int64
}

// Pruned returns the decisions resolved without a completed exact solve.
func (p PruneStats) Pruned() int64 {
	return p.Embedding + p.RowMin + p.Greedy
}

// FullSolves returns the number of completed Hungarian solves issued.
func (p PruneStats) FullSolves() int64 {
	return p.BoundedExact + p.ExactValues
}

func (m *StarMetric) boundedDecide(a, b graph.ID, theta float64) decision {
	if a == b {
		return decision{leq: 0 <= theta, pruned: true, lo: 0, hi: 0}
	}
	// Embedding-first: with both filter vectors cached (decoded from the
	// index's primed table, or left behind by earlier sig materializations),
	// a far pair is decided without touching the star signatures at all. The
	// bound is then handed down so the cascade does not re-scan the vectors.
	// Signatures and vectors are snapshotted in one reader-lock round.
	sa, sb, ea, eb := m.pairState(a, b)
	lb := -1.0
	if ea != nil && eb != nil {
		lb = ea.LowerBound(eb)
		if lb > theta {
			m.stages[ged.StageEmbedding].Add(1)
			return decision{leq: false, pruned: true, lo: lb, hi: math.Inf(1)}
		}
	}
	if sa == nil {
		sa = m.sig(a)
	}
	if sb == nil {
		sb = m.sig(b)
	}
	if lb < 0 {
		lb = sa.Embedding().LowerBound(sb.Embedding())
	}
	dec := sa.DistanceAtMostWithLower(sb, theta, lb)
	m.stages[dec.Stage].Add(1)
	return decision{leq: dec.Leq, pruned: !dec.Exact(), lo: dec.Lo, hi: dec.Hi}
}

// PruneStats returns the cascade breakdown of every decision and exact
// value this metric has issued; the engine telemetry exports it as the
// graphrep_metric_* series.
func (m *StarMetric) PruneStats() PruneStats {
	p := PruneStats{
		Embedding:    m.stages[ged.StageEmbedding].Load(),
		RowMin:       m.stages[ged.StageRowMin].Load(),
		Greedy:       m.stages[ged.StageGreedy].Load(),
		BoundedExact: m.stages[ged.StageExact].Load(),
		ExactValues:  m.exactValues.Load(),
	}
	p.GreedyTried = p.Greedy + p.BoundedExact
	return p
}

// boundedDecide counts the call as one distance computation (the paper's
// efficiency measure charges threshold tests and value computations alike)
// and delegates the decision to the inner metric.
func (c *Counter) boundedDecide(a, b graph.ID, theta float64) decision {
	c.n.Add(1)
	return boundedDecide(c.inner, a, b, theta)
}

// boundedDecide memoizes intervals: an entry whose interval already decides
// the test answers it as a hit (pruned unless the entry is exact). A fresh
// pair issues the inner decision and stores the interval it proves. A stored
// interval that cannot decide the probe is replaced by one exact Distance:
// the pair straddles the workload's thresholds (θ sweeps walk the same pairs
// through a grid of nearby values), and the exact value makes every later
// test on it a hit. Either way the probe is a miss, keeping Misses == inner
// computations.
func (c *Cache) boundedDecide(a, b graph.ID, theta float64) decision {
	if a == b {
		return decision{leq: 0 <= theta, pruned: true, lo: 0, hi: 0}
	}
	k := pairKey(a, b)
	sh := c.shard(k)
	sh.mu.RLock()
	e, ok := sh.memo[k]
	sh.mu.RUnlock()
	if ok {
		switch {
		case e.exact():
			c.hits.Add(1)
			return decision{leq: e.lo <= theta, pruned: false, lo: e.lo, hi: e.hi}
		case e.lo > theta:
			c.hits.Add(1)
			return decision{leq: false, pruned: true, lo: e.lo, hi: e.hi}
		case e.hi <= theta:
			c.hits.Add(1)
			return decision{leq: true, pruned: true, lo: e.lo, hi: e.hi}
		default:
			c.misses.Add(1)
			d := c.inner.Distance(a, b)
			sh.store(k, d, d)
			return decision{leq: d <= theta, pruned: false, lo: d, hi: d}
		}
	}
	c.misses.Add(1)
	d := boundedDecide(c.inner, a, b, theta)
	sh.store(k, d.lo, d.hi)
	return d
}

// ExactOnly hides any bounded-decision capability of m: the returned metric
// implements only plain Metric, so every threshold test falls back to a full
// Distance computation. It is the kernel kill switch behind
// Options.DisableBoundedKernel, used for baseline benchmarks and for
// bisecting any suspected kernel difference (there must never be one —
// answers are byte-identical either way).
func ExactOnly(m Metric) Metric { return exactOnly{inner: m} }

type exactOnly struct{ inner Metric }

// Distance implements Metric.
func (e exactOnly) Distance(a, b graph.ID) float64 { return e.inner.Distance(a, b) }

// Compile-time checks: the star metric and the wrappers that can sit over
// it support the bounded path. (A Matrix lookup is already exact, so it
// takes the plain path.)
var (
	_ decider = (*StarMetric)(nil)
	_ decider = (*Counter)(nil)
	_ decider = (*Cache)(nil)
)

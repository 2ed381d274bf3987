package metric

import (
	"math"

	"graphrep/internal/ged"
	"graphrep/internal/graph"
)

// BoundedMetric is a Metric that can decide the threshold test
// d(a,b) ≤ theta without necessarily computing the exact distance. The
// contract is strict: Within(a, b, theta) ⇔ Distance(a, b) ≤ theta, for
// every theta — a bounded implementation may be faster, never different.
// Every built-in metric (Star, Counter, Cache, Matrix) satisfies it; the
// engine's verify paths rely on the equivalence to keep answers byte-
// identical whether or not the bounded kernel is enabled.
type BoundedMetric interface {
	Metric
	Within(a, b graph.ID, theta float64) (leq bool)
}

// decision is the internal detailed outcome of a bounded test: the verdict,
// whether it was reached without a completed exact solve (pruned), and the
// proven interval lo ≤ d ≤ hi (hi is +Inf when no upper bound exists). The
// interval is what Cache memoizes.
type decision struct {
	leq    bool
	pruned bool
	lo, hi float64
}

// decider is implemented by the built-in metrics to expose the detailed
// decision to each other (Cache needs the inner interval to memoize it) and
// to Decide.
type decider interface {
	boundedDecide(a, b graph.ID, theta float64) decision
}

// Decide resolves d(a,b) ≤ theta through m, preferring the bounded path when
// m supports it, and additionally reports whether the decision was pruned —
// reached without a completed exact Hungarian solve. The verify loops use it
// to split QueryStats between PrunedDistances and ExactDistances while
// keeping a single call site.
func Decide(m Metric, a, b graph.ID, theta float64) (leq, pruned bool) {
	d := boundedDecide(m, a, b, theta)
	return d.leq, d.pruned
}

// boundedDecide dispatches to the richest interface m offers. For a foreign
// BoundedMetric the interval is reconstructed from the verdict alone (d > θ
// implies d ≥ nextafter(θ), d ≤ θ implies d ∈ [0, θ]); for a plain Metric
// the exact distance is computed and compared.
func boundedDecide(m Metric, a, b graph.ID, theta float64) decision {
	switch mm := m.(type) {
	case decider:
		return mm.boundedDecide(a, b, theta)
	case BoundedMetric:
		if mm.Within(a, b, theta) {
			return decision{leq: true, pruned: false, lo: 0, hi: theta}
		}
		return decision{leq: false, pruned: false, lo: math.Nextafter(theta, math.Inf(1)), hi: math.Inf(1)}
	default:
		d := m.Distance(a, b)
		return decision{leq: d <= theta, pruned: false, lo: d, hi: d}
	}
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

	// RowMinSolved is the subset of RowMin whose miss was shallow — within
	// rowMinDeepMargin of τ — so the cascade spent a full solve hardening the
	// memoized interval to an exact value. Those decisions were made by the
	// bound but still cost a Hungarian run, so they count in FullSolves and
	// not in Pruned.
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
	return p.Embedding + (p.RowMin - p.RowMinSolved) + p.Greedy
}

// FullSolves returns the number of completed Hungarian solves issued.
func (p PruneStats) FullSolves() int64 {
	return p.BoundedExact + p.RowMinSolved + p.ExactValues
}

// StageCounter is implemented by metrics that track the PruneStats
// breakdown; the Star metric does, and the engine telemetry exports the
// counts as graphrep_metric_* series.
type StageCounter interface {
	PruneStats() PruneStats
}

// EmbeddingPrimer is implemented by metrics that can adopt precomputed
// per-graph filter embeddings (the default star metric does). The engine
// primes the metric with the per-shard vectors carried by the index — built
// or loaded — so threshold tests on far pairs resolve from the cached
// vectors without ever materializing a star signature.
type EmbeddingPrimer interface {
	PrimeEmbeddings(base graph.ID, embs []*ged.Embedding)
}

// EmbeddingTablePrimer is implemented by metrics that can adopt a per-shard
// embedding table in its encoded form (the default star metric does). An
// engine that opens a mapped v4 index registers the table instead of eagerly
// decoding every vector; the metric decodes records on first use. Decoded
// vectors are identical to eagerly primed ones, so answers and stage
// attribution are independent of the priming path.
type EmbeddingTablePrimer interface {
	PrimeEmbeddingTable(base graph.ID, tab *ged.Table)
}

// Within implements BoundedMetric via the ged bound cascade.
func (m *starMetric) Within(a, b graph.ID, theta float64) bool {
	return m.boundedDecide(a, b, theta).leq
}

func (m *starMetric) boundedDecide(a, b graph.ID, theta float64) decision {
	if a == b {
		return decision{leq: 0 <= theta, pruned: true, lo: 0, hi: 0}
	}
	// Embedding-first: with both filter vectors cached (primed from a loaded
	// index, or left behind by earlier sig materializations), a far pair is
	// decided without touching the star signatures at all. The bound is then
	// handed down so the cascade does not re-scan the vectors. Signatures and
	// vectors are snapshotted in one reader-lock round.
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
	if dec.Stage == ged.StageRowMin && dec.Exact() {
		m.rowMinSolved.Add(1)
	}
	return decision{leq: dec.Leq, pruned: !dec.Exact(), lo: dec.Lo, hi: dec.Hi}
}

// PruneStats implements StageCounter.
func (m *starMetric) PruneStats() PruneStats {
	p := PruneStats{
		Embedding:    m.stages[ged.StageEmbedding].Load(),
		RowMin:       m.stages[ged.StageRowMin].Load(),
		Greedy:       m.stages[ged.StageGreedy].Load(),
		RowMinSolved: m.rowMinSolved.Load(),
		BoundedExact: m.stages[ged.StageExact].Load(),
		ExactValues:  m.exactValues.Load(),
	}
	p.GreedyTried = p.Greedy + p.BoundedExact
	return p
}

// Within implements BoundedMetric: the call counts as one distance
// computation (the paper's efficiency measure charges threshold tests and
// value computations alike) and delegates the decision to the inner metric.
func (c *Counter) Within(a, b graph.ID, theta float64) bool {
	return c.boundedDecide(a, b, theta).leq
}

func (c *Counter) boundedDecide(a, b graph.ID, theta float64) decision {
	c.n.Add(1)
	return boundedDecide(c.inner, a, b, theta)
}

// Within implements BoundedMetric with interval memoization: an entry whose
// interval already decides the test answers it as a hit (pruned unless the
// entry is exact); otherwise the inner decision is issued (a miss, keeping
// Misses == inner computations) and the interval it proves is merged into
// the table, tightening it for future calls at any threshold. Exact values
// always win: once lo == hi the entry never widens.
func (c *Cache) Within(a, b graph.ID, theta float64) bool {
	return c.boundedDecide(a, b, theta).leq
}

// promoteProbes is the undecided-repeat count at which the Cache stops
// issuing partial cascades for a pair and computes its exact distance: the
// first repeat probe inside the stored interval (second miss overall) pays
// for one full solve so every later test is a table hit. A repeat inside the
// interval means the pair straddles the workload's thresholds — θ sweeps walk
// the same pairs through a grid of nearby values — and every further partial
// cascade on it is near-full-solve work that proves nothing reusable.
const promoteProbes = 1

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
			// A stored interval that fails to decide means this pair is
			// being probed again at a threshold inside its bounds — repeat
			// traffic (θ sweeps walk the same pairs through a grid of
			// thresholds). After a couple of such repeats, promote to exact:
			// one full computation makes every future test on the pair a
			// hit, instead of re-running a partial cascade per threshold.
			// Either way the probe counts as a miss like any other inner
			// computation.
			c.misses.Add(1)
			if sh.bumpProbes(k) >= promoteProbes {
				d := c.inner.Distance(a, b)
				sh.store(k, d, d)
				return decision{leq: d <= theta, pruned: false, lo: d, hi: d}
			}
			d := boundedDecide(c.inner, a, b, theta)
			sh.store(k, d.lo, d.hi)
			return d
		}
	}
	c.misses.Add(1)
	d := boundedDecide(c.inner, a, b, theta)
	sh.store(k, d.lo, d.hi)
	return d
}

// Within implements BoundedMetric; the matrix is precomputed, so the lookup
// is already exact.
func (m *Matrix) Within(a, b graph.ID, theta float64) bool {
	return m.Distance(a, b) <= theta
}

func (m *Matrix) boundedDecide(a, b graph.ID, theta float64) decision {
	d := m.Distance(a, b)
	return decision{leq: d <= theta, pruned: false, lo: d, hi: d}
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

// Compile-time checks: every built-in metric supports the bounded path.
var (
	_ BoundedMetric = (*starMetric)(nil)
	_ BoundedMetric = (*Counter)(nil)
	_ BoundedMetric = (*Cache)(nil)
	_ BoundedMetric = (*Matrix)(nil)
	_ StageCounter  = (*starMetric)(nil)
)

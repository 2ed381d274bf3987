package ged

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"graphrep/internal/assignment"
	"graphrep/internal/graph"
)

// StarDistance computes the star-matching distance between g1 and g2: both
// graphs are decomposed into their vertex stars, the star multisets are
// padded with empty stars to equal cardinality, and the minimum-cost star
// assignment (Hungarian algorithm) is returned.
//
// The ground cost between two stars is
//
//	centerCost(s1,s2) + |spokes(s1) Δ spokes(s2)|
//
// with centerCost the discrete metric on center labels and Δ the multiset
// symmetric difference; the cost against the padding star ε is 1 + degree.
// Both pieces are metrics on the extended star space, and the minimum-cost
// matching between equal-cardinality multisets under a metric ground cost is
// itself a metric — so StarDistance satisfies the triangle inequality
// exactly, which Theorems 3–8 of the paper rely on.
//
// Every ground cost is a small non-negative integer, and the kernel carries
// that integrality in its types: cells are int32 (see MaxStarDegree), duals
// and totals int64, and a real threshold τ enters the solver as ⌊τ⌋. All
// arithmetic — including the threshold-bounded cascade below — is therefore
// exact, which is what makes DistanceAtMost(b, τ) equivalent to
// Distance(b) ≤ τ bit for bit.
//
// StarDistance is the default database distance d(g,g') of this library and
// corresponds to the mapping distance of the paper's GED citation [28].
func StarDistance(g1, g2 *graph.Graph) float64 {
	return newStarSig(g1).Distance(newStarSig(g2))
}

// MaxStarDegree is the largest vertex degree the star kernel accepts. A cost
// cell is at most 1 + deg_a + deg_b, so degrees up to this bound keep every
// cell within int32; duals and totals are int64 and cannot overflow for any
// matrix of such cells. Building a StarSig of a graph with a larger degree
// panics: such a graph has over 2^30 stars, so its n×n cost matrix could
// not be allocated anyway, and the check names the cause up front.
const MaxStarDegree = (math.MaxInt32 - 1) / 2

// StarSig is a precomputed star decomposition, used to amortize the
// decomposition cost when one graph participates in many distance
// computations (as every pivot, centroid, and vantage point does). It also
// carries the graph's filter Embedding, which powers the constant-per-
// dimension lower bound that opens DistanceAtMost.
//
// Star i is vertex i. The decomposition is kept as two postings lists built
// straight from the graph's CSR adjacency, which is what the cost fill
// merges: centers maps each center label to the stars carrying it, spokes
// maps each spoke key (edge label high, leaf label low) to the stars having
// that spoke with its multiplicity. Both are sorted by key, star ids
// ascending within a key.
type StarSig struct {
	deg []int32 // deg[i] = degree of star i

	// centerIDs[centerOff[k]:centerOff[k+1]] are the stars whose center label
	// is centerKeys[k].
	centerKeys []uint32
	centerOff  []int32
	centerIDs  []int32

	// spokePost[spokeOff[k]:spokeOff[k+1]] are the stars with at least one
	// spoke of key spokeKeys[k], and how many.
	spokeKeys []uint64
	spokeOff  []int32
	spokePost []posting

	emb *Embedding
}

// posting is one star's entry in a spoke key's postings list.
type posting struct {
	id, mult int32
}

// NewStarSig precomputes the star decomposition of g along with its filter
// embedding.
func NewStarSig(g *graph.Graph) *StarSig {
	s := newStarSig(g)
	s.emb = s.embedding()
	return s
}

// NewStarSigWithEmbedding precomputes the star decomposition of g but adopts
// the given embedding instead of recomputing it — the load path hands the
// per-shard vectors persisted in the index container straight to the metric.
// emb must be g's embedding (they are a pure function of the graph); a nil
// emb falls back to computing it.
func NewStarSigWithEmbedding(g *graph.Graph, emb *Embedding) *StarSig {
	s := newStarSig(g)
	if emb == nil {
		emb = s.embedding()
	}
	s.emb = emb
	return s
}

// Embedding returns the signature's filter vector.
func (a *StarSig) Embedding() *Embedding { return a.emb }

// newStarSig builds the postings of g without the embedding. Every grouping
// is an integer sort or a counting pass: center labels and star ids pack into
// one uint64, and spoke keys are ranked among the graph's distinct keys and
// bucketed in vertex order, so each bucket lists its stars ascending with a
// star's repeated spokes adjacent.
func newStarSig(g *graph.Graph) *StarSig {
	n := g.Order()
	labels := g.VertexLabels()
	s := &StarSig{deg: make([]int32, n), centerIDs: make([]int32, n)}

	packed := make([]uint64, n)
	m := 0
	for v := 0; v < n; v++ {
		d := g.Degree(v)
		if d > MaxStarDegree {
			panic(fmt.Sprintf("ged: vertex %d has degree %d, above MaxStarDegree %d", v, d, MaxStarDegree))
		}
		s.deg[v] = int32(d)
		m += d
		packed[v] = uint64(labels[v])<<32 | uint64(v)
	}
	slices.Sort(packed)
	nc := 0
	for k, x := range packed {
		if k == 0 || x>>32 != packed[k-1]>>32 {
			nc++
		}
	}
	s.centerKeys = make([]uint32, 0, nc)
	s.centerOff = make([]int32, 0, nc+1)
	for k, x := range packed {
		if k == 0 || x>>32 != packed[k-1]>>32 {
			s.centerKeys = append(s.centerKeys, uint32(x>>32))
			s.centerOff = append(s.centerOff, int32(k))
		}
		s.centerIDs[k] = int32(uint32(x))
	}
	s.centerOff = append(s.centerOff, int32(n))

	keys := make([]uint64, 0, m) // one key per half-edge, in vertex order
	for v := 0; v < n; v++ {
		to, el := g.Adjacency(v)
		for h, w := range to {
			keys = append(keys, uint64(el[h])<<32|uint64(labels[w]))
		}
	}
	distinct := slices.Clone(keys)
	slices.Sort(distinct)
	distinct = slices.Compact(distinct)
	ns := len(distinct)
	rank := make([]int32, m)
	start := make([]int32, ns+1)
	for h, key := range keys {
		r, _ := slices.BinarySearch(distinct, key)
		rank[h] = int32(r)
		start[r+1]++
	}
	for r := 0; r < ns; r++ {
		start[r+1] += start[r]
	}
	next := slices.Clone(start[:ns])
	ids := make([]int32, m)
	h := 0
	for v := 0; v < n; v++ {
		for e := int32(0); e < s.deg[v]; e++ {
			r := rank[h]
			ids[next[r]] = int32(v)
			next[r]++
			h++
		}
	}
	s.spokeKeys = append([]uint64(nil), distinct...)
	s.spokeOff = make([]int32, ns+1)
	s.spokePost = make([]posting, 0, m)
	for r := 0; r < ns; r++ {
		s.spokeOff[r] = int32(len(s.spokePost))
		for q := start[r]; q < start[r+1]; q++ {
			if q > start[r] && ids[q] == ids[q-1] {
				s.spokePost[len(s.spokePost)-1].mult++
				continue
			}
			s.spokePost = append(s.spokePost, posting{id: ids[q], mult: 1})
		}
	}
	s.spokeOff[ns] = int32(len(s.spokePost))
	return s
}

// Distance computes the exact star-matching distance between two signatures:
// the cost fill, its row minima, and the warm-started integer solve
// (assignment.IntSolver.TotalWarm). It is the one exact entry point — the
// bounded cascade's completed solves, index build, insert and the kernel-off
// engine all land here or on the same solve. The solve runs on pooled
// scratch, so steady-state calls allocate nothing.
func (a *StarSig) Distance(b *StarSig) float64 {
	n := max(len(a.deg), len(b.deg))
	if n == 0 {
		return 0
	}
	sc := getScratch(n)
	fillCost(sc.cost, a, b, n)
	assignment.RowMins(sc.cost, n, sc.rowMin)
	total := sc.solver.TotalWarm(sc.cost, n, sc.rowMin)
	putScratch(sc)
	return float64(total)
}

// Stage identifies where the bounded distance cascade terminated.
type Stage uint8

const (
	// StageEmbedding: pruned by the precomputed-embedding lower bound — the
	// max of the padding/size bound (O(1)) and the center+spoke histogram L1
	// bound (O(dims)), both read from the two cached filter vectors with no
	// per-pair assignment work. Subsumes the retired size and histogram
	// tiers (Embedding.LowerBound is ≥ both, always).
	StageEmbedding Stage = iota
	// StageRowMin: pruned by the row-minima lower bound (O(n²), computed
	// while filling the cost matrix); the decision carries [rowSum, ∞).
	StageRowMin
	// StageGreedy: decided ≤ τ by the swap-polished greedy-assignment upper
	// bound (O(n²)).
	StageGreedy
	// StageExact: the solve ran to completion; Lo == Hi == Distance.
	StageExact
	numStages
)

// NumStages is the number of cascade stages, for sizing per-stage counters.
const NumStages = int(numStages)

// String names the stage for stats output.
func (s Stage) String() string {
	switch s {
	case StageEmbedding:
		return "embedding"
	case StageRowMin:
		return "rowmin"
	case StageGreedy:
		return "greedy"
	case StageExact:
		return "exact"
	}
	return "unknown"
}

// Decision is the outcome of DistanceAtMost: the threshold verdict plus the
// distance interval [Lo, Hi] the cascade proved along the way (Hi is +Inf
// when no upper bound was established). Lo ≤ Distance ≤ Hi always holds, and
// Leq is false only when Lo > τ, true only when Hi ≤ τ. The interval is
// exact (Lo == Hi) exactly when the solve ran to completion, at StageExact.
type Decision struct {
	Leq   bool
	Stage Stage
	Lo    float64
	Hi    float64
}

// Exact reports whether the cascade computed the exact distance — the
// interval collapsed to a point.
func (d Decision) Exact() bool { return d.Lo == d.Hi }

// DistanceAtMost decides Distance(a,b) ≤ tau through a cascade of provable
// bounds, running the exact Hungarian solve only when no cheaper stage is
// conclusive: precomputed-embedding bound → row-minima bound → greedy
// upper bound → warm-started Hungarian. The cascade order follows the
// measured fire-rate-per-nanosecond on the reference dud workload: the
// embedding tier decides most far pairs from two cached vectors before any
// per-pair work, and the former standalone size and histogram tiers — which
// fired zero times there — are folded into it (LowerBound dominates both).
// Because every ground cost is a non-negative integer, the decision equals
// Distance(a,b) ≤ tau exactly, for every tau.
//
// The bound stages only prove an interval and never spend a solve: a miss
// returns [bound, ∞) however close to tau it lands. Settling a pair whose
// stored interval later fails to decide a probe is the caller's one exact
// path (metric.Cache computes Distance for it).
func (a *StarSig) DistanceAtMost(b *StarSig, tau float64) Decision {
	return a.DistanceAtMostWithLower(b, tau, a.emb.LowerBound(b.emb))
}

// DistanceAtMostWithLower is DistanceAtMost for callers that already hold the
// embedding lower bound of the pair (the metric layer computes it from the
// cached vectors before deciding whether to materialize the signatures, and
// passing it down avoids a second L1 scan per decision). emblo must equal
// a.Embedding().LowerBound(b.Embedding()).
func (a *StarSig) DistanceAtMostWithLower(b *StarSig, tau, emblo float64) Decision {
	n := max(len(a.deg), len(b.deg))
	if n == 0 {
		return Decision{Leq: 0 <= tau, Stage: StageExact, Lo: 0, Hi: 0}
	}
	inf := math.Inf(1)

	// Stage 1 — embedding filter: the max of the size/padding bound and the
	// center+spoke histogram L1 bound, straight off the cached vectors.
	lo := emblo
	if lo > tau {
		return Decision{Leq: false, Stage: StageEmbedding, Lo: lo, Hi: inf}
	}

	// Stages 2+3 — fill the cost matrix, then one scan per row produces both
	// bounds: every row is assigned somewhere, so Σ_i min_j c[i][j] bounds the
	// optimum from below (StageRowMin), while the greedy row-by-row
	// assignment, found from each row's minimum, bounds it from above
	// (StageGreedy). The row bound is checked first — it is admissible, so
	// its verdicts take precedence and the greedy total is discarded when it
	// fires. (The transposed column-minima sum is an equally valid lower
	// bound, but on the reference workload it decided under 1% of the fills
	// that paid for it.)
	//
	// Verdicts compare against tau itself; only the solver's own early exits
	// see the integer threshold ⌊tau⌋, which decides every integer total
	// identically.
	sc := getScratch(n)
	fillCost(sc.cost, a, b, n)
	greedy, rowSum := sc.solver.GreedyWithMins(sc.cost, n, sc.rowMin)
	lo = max(lo, float64(rowSum))
	if lo > tau {
		putScratch(sc)
		return Decision{Leq: false, Stage: StageRowMin, Lo: lo, Hi: inf}
	}
	// Greedy upper bound: any feasible assignment bounds the optimum from
	// above, so greedy (with 2-swap polish, exiting the moment the running
	// total reaches τ) ≤ τ already proves the answer.
	//
	// Before the polish runs, the warm start's row and column reduction (see
	// assignment.IntSolver.Reduce) is taken. Its dual objective is a lower
	// bound on the optimum, so when it already exceeds τ no feasible
	// assignment can reach τ and the polish, which could only fail, is
	// skipped; otherwise the polish reads the reduced costs, which let it
	// skip most pairs unread. The bound decides nothing itself — stage,
	// verdict and interval are those of the tier failing — and the exact
	// solve below resumes from the reduced duals, so the pass costs nothing
	// when the tier does not land.
	if ub := float64(greedy); ub <= tau {
		putScratch(sc)
		return Decision{Leq: true, Stage: StageGreedy, Lo: lo, Hi: ub}
	}
	if t := floorThreshold(tau); sc.solver.Reduce(sc.cost, n, sc.rowMin) <= t {
		if ub := float64(sc.solver.PolishAtMost(sc.cost, n, t, greedy)); ub <= tau {
			putScratch(sc)
			return Decision{Leq: true, Stage: StageGreedy, Lo: lo, Hi: ub}
		}
	}

	// Stage 4 — the exact solve, resumed from the duals Reduce set (see
	// assignment.IntSolver.TotalWarm): the cascade's bound computations
	// double as the solver's initialization.
	total := float64(sc.solver.TotalReduced(sc.cost, n))
	putScratch(sc)
	return Decision{Leq: total <= tau, Stage: StageExact, Lo: total, Hi: total}
}

// floorThreshold maps a real threshold onto the integer one the solver's
// early exits compare against: ⌊tau⌋, saturated at the int64 range so ±Inf
// keep their meaning. An integer total x satisfies x ≤ tau ⇔ x ≤ ⌊tau⌋. NaN
// maps to -1, so no exit fires on it; the verdicts compare in float64 and
// stay false against NaN as before.
func floorThreshold(tau float64) int64 {
	switch {
	case tau >= 1<<62:
		return math.MaxInt64
	case tau < -(1 << 62):
		return math.MinInt64
	case tau != tau:
		return -1
	}
	return int64(math.Floor(tau))
}

// starScratch is the pooled per-solve arena: the flat row-major cost matrix,
// the per-row minima, and the integer solver's own scratch. One scratch serves one solve at a time; concurrency
// gets distinct instances from the pool.
type starScratch struct {
	cost   []int32
	rowMin []int32
	solver assignment.IntSolver
}

var starPool = sync.Pool{New: func() any { return new(starScratch) }}

func getScratch(n int) *starScratch {
	sc := starPool.Get().(*starScratch)
	if cap(sc.cost) < n*n {
		sc.cost = make([]int32, n*n)
	}
	sc.cost = sc.cost[:n*n]
	if cap(sc.rowMin) < n {
		sc.rowMin = make([]int32, n)
	}
	sc.rowMin = sc.rowMin[:n]
	return sc
}

func putScratch(sc *starScratch) { starPool.Put(sc) }

// fillCost writes the n×n ground-cost matrix of the padded star multisets
// into cost, row-major. Every real pair starts at 1 + deg_a + deg_b — the
// cost with no center and no spoke in common — and one merge of each pair of
// postings lists then takes off 1 per shared center label and
// 2·min(multiplicities) per shared spoke key, leaving
// [center_a ≠ center_b] + |spokes_a Δ spokes_b| in every cell. A padding
// row or column costs 1 + degree of the real star, and 0 against padding.
func fillCost(cost []int32, a, b *StarSig, n int) {
	n1, n2 := len(a.deg), len(b.deg)
	for i := 0; i < n; i++ {
		row := cost[i*n : (i+1)*n : (i+1)*n]
		if i >= n1 {
			for j, d := range b.deg {
				row[j] = 1 + d
			}
			clear(row[n2:])
			continue
		}
		base := 1 + a.deg[i]
		for j, d := range b.deg {
			row[j] = base + d
		}
		for j := n2; j < n; j++ {
			row[j] = base
		}
	}
	ak, bk := a.centerKeys, b.centerKeys
	for x, y := 0, 0; x < len(ak) && y < len(bk); {
		switch {
		case ak[x] < bk[y]:
			x++
		case ak[x] > bk[y]:
			y++
		default:
			ids := b.centerIDs[b.centerOff[y]:b.centerOff[y+1]]
			for _, i := range a.centerIDs[a.centerOff[x]:a.centerOff[x+1]] {
				row := cost[int(i)*n : int(i)*n+n2]
				for _, j := range ids {
					row[j]--
				}
			}
			x++
			y++
		}
	}
	as, bs := a.spokeKeys, b.spokeKeys
	for x, y := 0, 0; x < len(as) && y < len(bs); {
		switch {
		case as[x] < bs[y]:
			x++
		case as[x] > bs[y]:
			y++
		default:
			post := b.spokePost[b.spokeOff[y]:b.spokeOff[y+1]]
			for _, p := range a.spokePost[a.spokeOff[x]:a.spokeOff[x+1]] {
				row := cost[int(p.id)*n : int(p.id)*n+n2]
				for _, q := range post {
					row[q.id] -= 2 * min(p.mult, q.mult)
				}
			}
			x++
			y++
		}
	}
}

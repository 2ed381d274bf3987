package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"graphrep/internal/bitset"
	"graphrep/internal/core"
	"graphrep/internal/graph"
	"graphrep/internal/metric"
	"graphrep/internal/nbindex"
	"graphrep/internal/nbtree"
	"graphrep/internal/pool"
)

// NewSession runs the initialization phase for relevance function q. See
// NewSessionContext.
func (s *Set) NewSession(q core.Relevance) (*Session, error) {
	return s.NewSessionContext(context.Background(), q)
}

// NewSessionContext runs the initialization phase for relevance function q:
// one global π̂ row per relevant graph, assembled by scanning every shard's
// vantage ordering with the graph's shared-VP coordinates. One session type
// serves every shard count, including one.
func (s *Set) NewSessionContext(ctx context.Context, q core.Relevance) (*Session, error) {
	if err := s.EnsureValid(); err != nil {
		return nil, err
	}
	return newSession(ctx, s, q)
}

// EnsureValid settles the deferred content validation of the graph store
// (a database opened from a GRDB001 container) and of every part (loaded
// from a mapped v4 container), each once; repeat calls return the cached
// verdicts. Sessions call it before any traversal, and a server may call it
// before serving, so corruption surfaces at startup.
func (s *Set) EnsureValid() error {
	if err := s.db.EnsureValid(); err != nil {
		return fmt.Errorf("shard: graph store: %w", err)
	}
	for p, part := range s.parts {
		if err := part.EnsureValid(); err != nil {
			return fmt.Errorf("shard %d: %w", p, err)
		}
	}
	return nil
}

// ErrStaleSession is returned by the queries of a session created before the
// set grew by Insert. The session's π̂ rows and relevance positions cover the
// graphs that existed at its creation, while the trees it would walk have
// grown since; a new session sees the inserted graphs.
var ErrStaleSession = errors.New("shard: session predates an insert; create a new session")

// Session is the initialization phase for one relevance function (§7): the
// global π̂ row of every relevant graph, stored at the graph's leaf in its
// home shard's tree. A Session answers any number of TopK calls at varying θ
// (interactive refinement) without repeating the initialization. After
// initialization it is read-only apart from the mutex-guarded LastStats
// bookkeeping, so TopK and SweepTheta are safe to call from multiple
// goroutines concurrently. The set must not be mutated (Insert) while
// queries are in flight, and once it has been, the session's queries return
// ErrStaleSession.
type Session struct {
	set  *Set
	grid []float64
	rel  []graph.ID
	// relPos maps a database ID to its position in rel, or −1. Its length
	// is the graph count at creation, which stale() checks.
	relPos []int
	// piHat[p][leafNodeIdx] is the GLOBAL π̂ row (summed across shards) of
	// the leaf's graph in shard p's tree; nil rows for irrelevant leaves.
	piHat     [][][]int32
	statsMu   sync.Mutex
	lastStats nbindex.QueryStats // guarded by statsMu
}

// newSession builds the session of a set whose EnsureValid has passed.
func newSession(ctx context.Context, set *Set, q core.Relevance) (*Session, error) {
	s := &Session{set: set, grid: set.grid}
	s.rel = core.Relevant(set.db, q)
	s.relPos = make([]int, set.db.Len())
	for i := range s.relPos {
		s.relPos[i] = -1
	}
	for i, id := range s.rel {
		s.relPos[id] = i
	}
	s.piHat = make([][][]int32, len(set.parts))
	for p, part := range set.parts {
		s.piHat[p] = make([][]int32, part.Flat().Len())
	}
	// Global π̂ rows: one coordinate row per relevant graph, scanned against
	// every shard. Each shard scan covers a disjoint ID range, so the summed
	// row equals the one-shard single-scan row exactly (same candidates, same
	// vantage lower bounds, hence the same grid slots). Rows are independent
	// and each lands in its own piHat slot, so the scans run on the worker
	// pool without affecting the result.
	if len(s.grid) > 0 && len(s.rel) > 0 {
		thetaMax := s.grid[len(s.grid)-1]
		isRel := func(id graph.ID) bool { return s.relPos[id] >= 0 }
		err := pool.Ranges(ctx, len(s.rel), set.workers, 16, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				id := s.rel[i]
				home := set.PartFor(id)
				coords := set.parts[home].VO().Coords(id)
				row := make([]int32, len(s.grid))
				for _, part := range set.parts {
					for _, c := range part.VO().CandidatesWithLB(coords, thetaMax, isRel) {
						slot := sort.SearchFloat64s(s.grid, c.LB)
						for t := slot; t < len(s.grid); t++ {
							row[t]++
						}
					}
				}
				s.piHat[home][set.parts[home].LeafIdx(id)] = row
			}
		})
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// stale reports whether the set has grown since the session was created.
func (s *Session) stale() bool { return s.set.db.Len() != len(s.relPos) }

// RelevantCount returns |L_q| for the session.
func (s *Session) RelevantCount() int { return len(s.rel) }

// LastStats returns statistics from the most recently completed TopK call.
func (s *Session) LastStats() nbindex.QueryStats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.lastStats
}

// PiHatBytes reports the memory consumed by the π̂ rows.
func (s *Session) PiHatBytes() int64 {
	var b int64
	for _, rows := range s.piHat {
		for _, row := range rows {
			b += int64(len(row)) * 4
		}
	}
	return b
}

// TopK runs the search-and-update phase (Alg. 2 driven greedy) at threshold
// theta with budget k. See TopKContext.
func (s *Session) TopK(theta float64, k int) (*core.Result, error) {
	return s.TopKContext(context.Background(), theta, k)
}

// TopKContext runs the search-and-update phase across every shard tree. Each
// greedy pick advances the per-shard frontiers in parallel on the worker
// pool — every shard enumerates its positive-bound candidate leaves from its
// own tree, independently of the others — then merges them into one list
// ordered by (bound desc, shard, node) and verifies serially down that list.
// A candidate's upper bound comes from its global π̂ row (the sum of
// shard-local π̂ bounds) and its exact marginal gain sums shard-local
// coverage contributions — each shard computes N_θ(g) ∩ shard with its own
// vantage ordering, and those read-only scans also run on the pool. Bounds
// are admissible and every candidate whose bound reaches the best verified
// gain is verified, so the pick is the exact greedy argmax with ties toward
// the lower graph ID — the baseline greedy's answer (picks stop when no
// candidate improves coverage), for any shard count and any worker count
// (the threshold tests that consult mutable metric state stay serial in list
// order, so QueryStats are worker-independent too). Cancellation is checked
// on entry, at every greedy pick, before every verification, and inside
// every pool fan-out; a cancelled query returns ctx.Err() without publishing
// stats.
//
// # Update rule
//
// Instead of re-deriving Theorems 6–8 literally, the update step uses an
// equivalent credit-propagation formulation that is easier to prove sound:
// when graph l becomes covered, one credit is added at the highest NB-Tree
// ancestor a of l with diameter(a) ≤ θ in l's home shard. For every graph g'
// under a, l is guaranteed inside N_θ(g') (d(g', l) ≤ diameter(a) ≤ θ,
// Theorem 7's argument), so the marginal-gain bound of every such g' may
// permanently drop by one. Summed over the members of a covered cluster this
// reproduces the |c_q| batch subtraction of Theorems 7–8, and clusters beyond
// reach are never credited, which is Theorem 6. Each covered graph is
// credited exactly once, so bounds never under-count and Alg. 2's pruning
// stays admissible.
func (s *Session) TopKContext(ctx context.Context, theta float64, k int) (*core.Result, error) {
	if math.IsNaN(theta) {
		return nil, fmt.Errorf("shard: theta is NaN")
	}
	if theta < 0 {
		return nil, fmt.Errorf("shard: negative theta %v", theta)
	}
	if k <= 0 {
		return nil, fmt.Errorf("shard: non-positive k %d", k)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.stale() {
		return nil, ErrStaleSession
	}
	parts := s.set.parts
	res := &core.Result{Relevant: len(s.rel)}
	var st nbindex.QueryStats
	finish := func() {
		s.statsMu.Lock()
		s.lastStats = st
		s.statsMu.Unlock()
		s.set.tel.Load().Observe(st)
	}
	if len(s.rel) == 0 {
		finish()
		return res, nil
	}

	// Per-shard bound state at this θ: leaf bounds come from the smallest
	// session-grid threshold ≥ θ, F is the per-subtree running maximum, sub
	// holds the permanent credit subtractions.
	slot := sort.SearchFloat64s(s.grid, theta)
	leafBound := func(p, idx int) int32 {
		row := s.piHat[p][idx]
		if row == nil {
			return -1 // irrelevant leaf: never selectable
		}
		if slot >= len(row) {
			return int32(len(s.rel)) // θ beyond the grid: trivial bound
		}
		return row[slot]
	}
	flats := make([]*nbtree.Flat, len(parts))
	sub := make([][]int32, len(parts))
	F := make([][]int32, len(parts))
	for p, part := range parts {
		flats[p] = part.Flat()
	}
	// Each shard's bound arrays are filled independently from its own tree,
	// so the fills run on the worker pool; every iteration writes only its
	// own slots, keeping the arrays identical for any worker count.
	if err := pool.Ranges(ctx, len(parts), s.set.workers, 1, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			f := flats[p]
			sub[p] = make([]int32, f.Len())
			F[p] = make([]int32, f.Len())
			for i := int32(f.Len() - 1); i >= 0; i-- {
				if f.Leaf(i) {
					F[p][i] = leafBound(p, int(i))
					continue
				}
				best := int32(-1)
				for c := f.FirstChild[i]; c != -1; c = f.NextSibling[c] {
					if F[p][c] > best {
						best = F[p][c]
					}
				}
				F[p][i] = best
			}
		}
	}); err != nil {
		return nil, err
	}

	covered := bitset.New(len(s.rel))
	inAnswer := make([]bool, len(s.rel))
	includeUncovered := func(id graph.ID) bool {
		pos := s.relPos[id]
		return pos >= 0 && !covered.Contains(pos)
	}

	// applyCredit records that relevant graph id became covered: one credit
	// at its highest diameter ≤ θ ancestor in its HOME shard's tree (credits
	// never cross shards — bounds in other shards merely stay looser, which
	// is sound).
	applyCredit := func(id graph.ID) {
		p := s.set.PartFor(id)
		f := flats[p]
		a := int32(parts[p].LeafIdx(id))
		for q := f.Parents[a]; q != -1 && f.Diameters[q] <= theta; q = f.Parents[q] {
			a = q
		}
		sub[p][a]++
		for n := a; n != -1; n = f.Parents[n] {
			var best int32
			if f.Leaf(n) {
				best = leafBound(p, int(n))
			} else {
				best = -1
				for c := f.FirstChild[n]; c != -1; c = f.NextSibling[c] {
					if F[p][c] > best {
						best = F[p][c]
					}
				}
			}
			nf := best - sub[p][n]
			if nf == F[p][n] && n != a {
				break // no change propagates further
			}
			F[p][n] = nf
		}
	}

	// collect runs the read-only half of one candidate's verification: g's
	// shared-VP coordinates scanned against every shard's vantage ordering.
	// It touches no stats and no metric state, so any number of collects may
	// run concurrently during a pick (covered and inAnswer are frozen between
	// picks — credits apply only after a pick completes).
	collect := func(g graph.ID) [][]graph.ID {
		coords := parts[s.set.PartFor(g)].VO().Coords(g)
		lists := make([][]graph.ID, len(parts))
		for p, part := range parts {
			lists[p] = part.VO().Candidates(coords, theta, includeUncovered)
		}
		return lists
	}
	for len(res.Answer) < k {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Advance every shard's frontier on the worker pool: a DFS over the
		// shard's positive-bound subtree collects its candidate leaves, with
		// the ancestor credit subtractions accumulated on the way down (no
		// per-node ancestor walks). Bounds are frozen during a pick — credits
		// apply only after it completes — so each shard's frontier is
		// independent of the others and of the worker count; only wall time
		// changes. The traversal visit counts land in PQPops, the search's
		// frontier-work measure.
		perShard := make([][]frontierCand, len(parts))
		visits := make([]int, len(parts))
		if err := pool.Ranges(ctx, len(parts), s.set.workers, 1, func(lo, hi int) {
			for p := lo; p < hi; p++ {
				f := flats[p]
				if F[p][0] <= 0 {
					continue
				}
				stack := []frontierFrame{{node: 0, acc: 0}}
				for len(stack) > 0 {
					fr := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					visits[p]++
					if f.Leaf(fr.node) {
						perShard[p] = append(perShard[p], frontierCand{
							bound: F[p][fr.node] - fr.acc,
							node:  fr.node,
							cent:  f.Centroids[fr.node],
						})
						continue
					}
					acc := fr.acc + sub[p][fr.node]
					for c := f.FirstChild[fr.node]; c != -1; c = f.NextSibling[c] {
						if F[p][c]-acc > 0 {
							stack = append(stack, frontierFrame{node: c, acc: acc})
						}
					}
				}
			}
		}); err != nil {
			return nil, err
		}
		// Merge serially into one list ordered by (bound desc, shard, node) —
		// the order a best-first heap over the same bounds pops leaves in.
		var list []frontierCand
		for p, cs := range perShard {
			st.PQPops += visits[p]
			for _, c := range cs {
				c.part = int32(p)
				list = append(list, c)
			}
		}
		sort.Slice(list, func(i, j int) bool {
			if list[i].bound != list[j].bound {
				return list[i].bound > list[j].bound
			}
			if list[i].part != list[j].part {
				return list[i].part < list[j].part
			}
			return list[i].node < list[j].node
		})

		best, bestGain := graph.ID(-1), int32(0)
		var bestNbrs []int // relevant positions newly covered by best
		// Walk the merged frontier in bound order. Candidates whose bound
		// reaches the best verified gain are verified exactly; bounds equal to
		// the best gain are still explored so that ties resolve toward the
		// lowest graph ID, matching the baseline greedy. After the first verification pins a gain, the remaining
		// still-qualifying candidates' scans are prefetched in one parallel
		// scatter — the scans are pure reads (see collect), while the
		// threshold tests below stay serial in list order: metric.Decide's
		// pruned-vs-exact outcome depends on the distance cache's evolving
		// state, so a fixed decision order keeps QueryStats identical for any
		// worker count.
		collected := make([][][]graph.ID, len(list))
		prefetched := false
		for i, c := range list {
			if c.bound < bestGain {
				break
			}
			pos := s.relPos[c.cent]
			if pos < 0 || inAnswer[pos] {
				continue
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if collected[i] == nil {
				collected[i] = collect(c.cent)
			}
			st.VerifiedLeaves++
			var nbrs []int
			for _, ids := range collected[i] {
				for _, id := range ids {
					st.CandidateScans++
					if id != c.cent {
						leq, pruned := metric.Decide(s.set.m, c.cent, id, theta)
						if pruned {
							st.PrunedDistances++
						} else {
							st.ExactDistances++
						}
						if !leq {
							continue
						}
					}
					nbrs = append(nbrs, s.relPos[id])
				}
			}
			gain := int32(len(nbrs))
			if gain > bestGain || (gain == bestGain && gain > 0 && c.cent < best) {
				best, bestGain, bestNbrs = c.cent, gain, nbrs
			}
			// Prefetch is speculative: candidates the rising best gain later
			// disqualifies have their scans wasted. With parallel workers the
			// waste is hidden wall-clock (the scans overlap); on one worker it
			// is pure extra serial work, so collect on demand instead. Either
			// way CandidateScans counts only consumed lists, so QueryStats are
			// identical for any worker count.
			if !prefetched && pool.Resolve(s.set.workers) > 1 {
				prefetched = true
				var todo []int
				for j := i + 1; j < len(list); j++ {
					if list[j].bound < bestGain {
						break
					}
					if p := s.relPos[list[j].cent]; p < 0 || inAnswer[p] {
						continue
					}
					todo = append(todo, j)
				}
				if err := pool.Ranges(ctx, len(todo), s.set.workers, 1, func(lo, hi int) {
					for t := lo; t < hi; t++ {
						collected[todo[t]] = collect(list[todo[t]].cent)
					}
				}); err != nil {
					return nil, err
				}
			}
		}
		if best < 0 || bestGain == 0 {
			break
		}
		inAnswer[s.relPos[best]] = true
		res.Answer = append(res.Answer, best)
		res.Gains = append(res.Gains, int(bestGain))
		for _, pos := range bestNbrs {
			covered.Add(pos)
			applyCredit(s.rel[pos])
		}
	}
	res.Covered = covered.Count()
	res.Power = float64(res.Covered) / float64(res.Relevant)
	finish()
	return res, nil
}

// SweepTheta answers the query at every indexed threshold (plus any extra
// thresholds given) and reports the quality trade-off curve. This powers the
// "optimal zoom level" workflow of §7: rather than guessing θ, a user sweeps
// the indexed grid — cheap, because the session is reused — and picks the
// level whose coverage/granularity trade-off fits the task.
func (s *Session) SweepTheta(k int, extra ...float64) ([]nbindex.ThetaPoint, error) {
	return s.SweepThetaContext(context.Background(), k, extra...)
}

// SweepThetaContext is SweepTheta with cancellation: the shared grid plus
// any extra thresholds, deduplicated ascending, one TopKContext each, so an
// expired deadline or a dropped client aborts the sweep between (or inside)
// thresholds with ctx.Err().
func (s *Session) SweepThetaContext(ctx context.Context, k int, extra ...float64) ([]nbindex.ThetaPoint, error) {
	if k <= 0 {
		return nil, fmt.Errorf("shard: non-positive k %d", k)
	}
	thetas := append(append([]float64(nil), s.grid...), extra...)
	sort.Float64s(thetas)
	out := thetas[:0]
	for i, t := range thetas {
		if i == 0 || t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	thetas = out
	points := make([]nbindex.ThetaPoint, 0, len(thetas))
	for _, theta := range thetas {
		if theta < 0 {
			return nil, fmt.Errorf("shard: negative theta %v in sweep", theta)
		}
		res, err := s.TopKContext(ctx, theta, k)
		if err != nil {
			return nil, err
		}
		points = append(points, nbindex.ThetaPoint{
			Theta:      theta,
			Power:      res.Power,
			CR:         res.CompressionRatio(),
			AnswerSize: len(res.Answer),
		})
	}
	return points, nil
}

// frontierFrame is one DFS frame of a shard's frontier advance: a tree node
// (flat index) with the credit subtractions accumulated from its ancestors,
// so the node's current bound is F[node] − acc without an ancestor walk.
type frontierFrame struct {
	node int32
	acc  int32
}

// frontierCand is one candidate leaf a shard's frontier produced: its current
// gain upper bound and identity. TopKContext merges the per-shard lists
// by (bound desc, part, node) — the same total order the best-first pop
// sequence follows — so the serial verification walk is deterministic for
// any worker count.
type frontierCand struct {
	bound int32
	part  int32
	node  int32
	cent  graph.ID
}

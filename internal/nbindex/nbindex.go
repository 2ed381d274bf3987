// Package nbindex implements the NB-Index of §6–7: the paper's index over
// θ-neighborhoods that makes top-k representative queries scale. It unifies
//
//   - vantage orderings (internal/vantage): a Lipschitz embedding giving the
//     candidate neighborhoods N̂_θ(g) ⊇ N_θ(g) of Theorem 5, and
//   - the NB-Tree (internal/nbtree): a hierarchical clustering whose nodes
//     carry π̂-vectors — upper bounds on representative power at a grid of
//     indexed thresholds (Definition 6) — enabling the best-first search of
//     Alg. 2 and cluster-batched updates in the spirit of Theorems 6–8.
//
// # Query processing
//
// The index holds the per-part primitives a query needs: the vantage
// orderings that yield candidate neighborhoods and π̂ rows, the flat NB-Tree
// with its diameters, and the leaf map. The best-first greedy of Alg. 2 —
// session initialization, bound propagation and the credit-based update rule
// — runs in internal/shard, which coordinates one or more parts. Its
// QueryStats and ThetaPoint types live here.
package nbindex

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"graphrep/internal/ged"
	"graphrep/internal/graph"
	"graphrep/internal/metric"
	"graphrep/internal/nbtree"
	"graphrep/internal/pool"
	"graphrep/internal/vantage"
)

// Index is an immutable NB-Index over one contiguous ID range of a database
// (BuildPartContext; internal/shard coordinates one or more such parts).
// Build once per database; relevance functions and θ are supplied at query
// time.
type Index struct {
	db *graph.Database
	m  metric.Metric
	vo *vantage.Ordering
	// flat is the NB-Tree, built in memory or viewed over a mapping; thaw
	// copies it onto the heap before Insert grows it.
	flat *nbtree.Flat
	grid []float64
	// base is the first graph ID covered.
	base graph.ID
	// leafOf maps a covered graph ID (offset by base) to its leaf node index
	// in the flat tree. May alias a mapped section; thaw copies it before
	// any mutation; validated by EnsureValid (deferred range checks for
	// view-backed indexes).
	leafOf []int32
	// embs[i] is the filter embedding of graph base+i: the precomputed
	// vector whose L1-style lower bound opens the bounded distance cascade.
	// Embeddings are a pure function of the graphs — independent of the
	// metric and of whether the bounded kernel is enabled — so index bytes
	// stay identical either way. Built indexes compute them; view-backed
	// indexes carry embTab instead and leave embs nil until thawed.
	embs []*ged.Embedding
	// embTab is the encoded embedding table of a view-backed index (nil for
	// built indexes): the same vectors as embs, decoded on demand by the
	// metric instead of eagerly at load.
	embTab *ged.Table
	// deferredCheck is the content validation a deferred construction
	// (PartFromViewsDeferred) postponed; EnsureValid runs it exactly once
	// before the first navigation and caches the verdict in checkErr. Nil
	// for eagerly-validated indexes.
	deferredCheck func() error
	checkOnce     sync.Once
	checkErr      error
	// timing records the wall time of each construction phase.
	timing BuildTiming
}

// BuildTiming reports the wall time of each construction phase, for the
// build-phase telemetry gauges (the offline cost of Fig. 6(k), split by
// stage).
type BuildTiming struct {
	// VPSelect covers vantage point selection (sequential; rng-driven).
	VPSelect time.Duration
	// Vantage covers the |V|×n vantage distance-matrix fill and sorted views.
	Vantage time.Duration
	// Tree covers the NB-Tree clustering.
	Tree time.Duration
	// Total is the whole Build call.
	Total time.Duration
}

// BuildPartContext constructs an NB-Index over the contiguous ID range
// [base, base+count) of db with an externally chosen vantage point set and θ
// grid. This is the shard build path: every shard shares one global VP set
// (so embedding coordinates are comparable across shards) and one global
// grid, while owning its own vantage rows and NB-Tree. rng drives only the
// NB-Tree pivot draws; pass a per-shard seeded source for reproducible shard
// builds.
func BuildPartContext(ctx context.Context, db *graph.Database, m metric.Metric, vps []graph.ID, grid []float64, base graph.ID, count, branching, workers int, rng *rand.Rand) (*Index, error) {
	if len(grid) == 0 {
		return nil, fmt.Errorf("nbindex: empty theta grid")
	}
	if !sort.Float64sAreSorted(grid) {
		return nil, fmt.Errorf("nbindex: theta grid not ascending")
	}
	start := time.Now() //lint:allow detrand build-phase wall-time gauge; timing only, never influences index content
	vo, err := vantage.BuildRangeContext(ctx, db, m, vps, base, count, workers)
	if err != nil {
		return nil, err
	}
	tVO := time.Now() //lint:allow detrand build-phase wall-time gauge; timing only, never influences index content
	if branching < 2 {
		branching = 4
	}
	ids := make([]graph.ID, count)
	for i := range ids {
		ids[i] = base + graph.ID(i)
	}
	flat, err := nbtree.BuildSubsetContext(ctx, db, m, ids,
		nbtree.Options{Branching: branching, VO: vo, Workers: workers}, rng)
	if err != nil {
		return nil, err
	}
	done := time.Now() //lint:allow detrand build-phase wall-time gauge; timing only, never influences index content
	leafOf := make([]int32, count)
	for i, c := range flat.Centroids {
		if flat.Leaf(int32(i)) {
			leafOf[c-base] = int32(i)
		}
	}
	ix := &Index{
		db:     db,
		m:      m,
		vo:     vo,
		flat:   flat,
		grid:   append([]float64(nil), grid...),
		base:   base,
		leafOf: leafOf,
		timing: BuildTiming{
			Vantage: tVO.Sub(start),
			Tree:    done.Sub(tVO),
			Total:   done.Sub(start),
		},
	}
	// Each embedding is a pure function of its graph, so the fill
	// parallelizes freely without affecting the result.
	ix.embs = make([]*ged.Embedding, count)
	if err := pool.Ranges(ctx, count, workers, 16, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ix.embs[i] = ged.NewEmbedding(db.Graph(base + graph.ID(i)))
		}
	}); err != nil {
		return nil, err
	}
	return ix, nil
}

// Embeddings returns the per-graph filter embeddings, indexed by covered
// graph ID minus Base(). The engine hands them to the star metric
// (metric.StarMetric.PrimeEmbeddings) so threshold tests on far pairs
// resolve from the cached vectors without materializing star signatures.
// Nil for view-backed indexes, which carry EmbeddingTable instead.
func (ix *Index) Embeddings() []*ged.Embedding { return ix.embs }

// PartFromViewsDeferred assembles an index part from persisted components —
// typically zero-copy views over one shard's v4 sections: the vantage
// ordering (vantage.FromViewsDeferred), the flat NB-Tree
// (nbtree.NewFlatDeferred), the leaf map, and the encoded embedding table.
// The shape invariants (grid ascending, range within the database, root
// size, claimed leaf count, array lengths) are checked now, in O(grid). The
// content scans run once on first use, via EnsureValid: the components' own
// deferred Validates plus the cross-component invariants queries lean on —
// every centroid in the ordering's range, the leaf map a bijection between
// covered graphs and leaves, and the embedding table matching the database
// graph for graph (record count and per-record star count). Sessions and
// Insert call EnsureValid themselves, so a part whose content never
// validated cannot be navigated; this is what keeps a mapped open's cost
// independent of index size. The components are retained, not copied; grid
// is copied.
func PartFromViewsDeferred(db *graph.Database, m metric.Metric, vo *vantage.Ordering, flat *nbtree.Flat, grid []float64, leafOf []int32, embTab *ged.Table) (*Index, error) {
	if len(grid) == 0 {
		return nil, fmt.Errorf("nbindex: empty theta grid")
	}
	if !sort.Float64sAreSorted(grid) {
		return nil, fmt.Errorf("nbindex: theta grid not ascending")
	}
	base, count := vo.Base(), vo.Len()
	if int(base)+count > db.Len() {
		return nil, fmt.Errorf("nbindex: part covers [%d, %d), database has %d graphs", base, int(base)+count, db.Len())
	}
	if rootSize := int(flat.Sizes[0]); rootSize != count {
		return nil, fmt.Errorf("nbindex: tree covers %d graphs, ordering covers %d", rootSize, count)
	}
	if flat.Stats().Leaves != count {
		return nil, fmt.Errorf("nbindex: tree has %d leaves, ordering covers %d graphs", flat.Stats().Leaves, count)
	}
	if len(leafOf) != count {
		return nil, fmt.Errorf("nbindex: leaf map of %d entries, ordering covers %d graphs", len(leafOf), count)
	}
	if embTab == nil {
		return nil, fmt.Errorf("nbindex: part has no embedding table")
	}
	if embTab.Len() != count {
		return nil, fmt.Errorf("nbindex: embedding table of %d records, ordering covers %d graphs", embTab.Len(), count)
	}
	ix := &Index{
		db:     db,
		m:      m,
		vo:     vo,
		flat:   flat,
		grid:   append([]float64(nil), grid...),
		base:   base,
		leafOf: leafOf,
		embTab: embTab,
	}
	ix.deferredCheck = ix.validateViews
	return ix, nil
}

// validateViews is the deferred content scan of a view-backed part: the
// component Validates plus the cross-component loops PartFromViewsDeferred
// documents. Runs once, via EnsureValid.
func (ix *Index) validateViews() error {
	if err := ix.vo.Validate(); err != nil {
		return err
	}
	if err := ix.flat.Validate(); err != nil {
		return err
	}
	if err := ix.embTab.Validate(); err != nil {
		return err
	}
	base, count, flat := ix.base, ix.vo.Len(), ix.flat
	for i, c := range flat.Centroids {
		if c < base || int(c-base) >= count {
			return fmt.Errorf("nbindex: node %d centroid %d outside covered range [%d, %d)", i, c, base, int(base)+count)
		}
	}
	for i, l := range ix.leafOf {
		if l < 0 || int(l) >= flat.Len() {
			return fmt.Errorf("nbindex: leaf map entry %d is node %d, tree has %d nodes", i, l, flat.Len())
		}
		if !flat.Leaf(l) {
			return fmt.Errorf("nbindex: leaf map entry %d points at non-leaf node %d", i, l)
		}
		if flat.Centroids[l] != base+graph.ID(i) {
			return fmt.Errorf("nbindex: leaf map entry %d points at node %d holding graph %d", i, l, flat.Centroids[l])
		}
	}
	for i := 0; i < count; i++ {
		if order := ix.db.Graph(base + graph.ID(i)).Order(); ix.embTab.Stars(i) != order {
			return fmt.Errorf("nbindex: embedding %d has %d stars, graph %d has %d vertices",
				i, ix.embTab.Stars(i), int(base)+i, order)
		}
	}
	return nil
}

// EnsureValid runs a deferred content validation (PartFromViewsDeferred)
// exactly once and returns its verdict — nil for indexes built in memory or
// loaded through eagerly-validating paths. Safe for concurrent callers;
// sessions and Insert call it before the first navigation, so corrupt
// content surfaces as an error there rather than as a fault mid-query.
func (ix *Index) EnsureValid() error {
	ix.checkOnce.Do(func() {
		if ix.deferredCheck != nil {
			ix.checkErr = ix.deferredCheck()
			ix.deferredCheck = nil
		}
	})
	return ix.checkErr
}

// Timing returns the wall time each construction phase took. Zero for
// indexes opened from persisted views (no construction happened).
func (ix *Index) Timing() BuildTiming { return ix.timing }

// Insert extends the index with a graph already appended to the database
// (its ID must be the database's last, and this index must be the one whose
// range ends there — the last shard, in sharded deployments). Costs |V|
// vantage distances plus a tree descent. Sessions created before an Insert
// are stale (shard.ErrStaleSession); create a fresh Session afterwards. Not
// safe concurrently with queries.
func (ix *Index) Insert(id graph.ID) error {
	if err := ix.EnsureValid(); err != nil {
		return err
	}
	if int(id) != ix.db.Len()-1 {
		return fmt.Errorf("nbindex: inserting id %d, want the database's last id %d", id, ix.db.Len()-1)
	}
	if int(id-ix.base) != ix.vo.Len() {
		return fmt.Errorf("nbindex: inserting id %d, index covers [%d, %d)", id, ix.base, int(ix.base)+ix.vo.Len())
	}
	ix.thaw()
	if err := ix.vo.Insert(id, ix.m); err != nil {
		return err
	}
	// The new leaf is the tree's last node. Growing a single-leaf tree also
	// moves the old leaf — the part's only graph, base — under a new root,
	// to node 1.
	wasLeaf := ix.flat.Leaf(0)
	ix.flat.Insert(id, ix.m)
	if wasLeaf {
		ix.leafOf[0] = 1
	}
	ix.leafOf = append(ix.leafOf, int32(ix.flat.Len()-1))
	ix.embs = append(ix.embs, ged.NewEmbedding(ix.db.Graph(id)))
	return nil
}

// thaw moves a view-backed index onto the heap so it can be mutated, once:
// the flat tree and the leaf map are copied off the mapping (Insert writes
// their elements in place), and the encoded embedding table is decoded into
// the eager slice. Built indexes are already heap-resident, and a thawed
// index has no table left, so thaw is a no-op for both. Vantage rows need
// no thaw: views are handed out with cap == len, so the ordering's sorted
// insertions reallocate on first append.
func (ix *Index) thaw() {
	if ix.embTab == nil {
		return
	}
	embs := make([]*ged.Embedding, ix.embTab.Len())
	for i := range embs {
		embs[i] = ix.embTab.At(i)
	}
	ix.embs, ix.embTab = embs, nil
	ix.flat = ix.flat.Clone()
	ix.leafOf = append([]int32(nil), ix.leafOf...)
}

// Flat exposes the NB-Tree every query navigates.
func (ix *Index) Flat() *nbtree.Flat { return ix.flat }

// VO exposes the vantage orderings (read-only).
func (ix *Index) VO() *vantage.Ordering { return ix.vo }

// Grid returns the indexed thresholds.
func (ix *Index) Grid() []float64 { return ix.grid }

// Base returns the first graph ID the index covers (0 for a full index).
func (ix *Index) Base() graph.ID { return ix.base }

// Count returns the number of graphs the index covers.
func (ix *Index) Count() int { return ix.vo.Len() }

// LeafIdx returns the tree node index of the leaf holding covered graph id.
// Callers reach it through a shard session, whose construction already ran
// EnsureValid on every part.
//
//lint:allow oncevalid shard sessions validate every part before any query can call this
func (ix *Index) LeafIdx(id graph.ID) int { return int(ix.leafOf[id-ix.base]) }

// LeafOf returns the leaf map: covered graph ID minus Base() to flat node
// index. Read-only; the persistence writer serializes it directly.
func (ix *Index) LeafOf() []int32 { return ix.leafOf }

// EmbeddingTable returns the encoded embedding table of a view-backed index,
// or nil when the embeddings live decoded on the heap (see Embeddings).
func (ix *Index) EmbeddingTable() *ged.Table { return ix.embTab }

// Bytes approximates the index memory footprint: vantage orderings, the
// NB-Tree (Fig. 6(l)), and the filter embeddings — encoded table or decoded
// vectors, whichever form this index carries.
func (ix *Index) Bytes() int64 {
	b := ix.vo.Bytes() + ix.flat.Bytes()
	if ix.embTab != nil {
		return b + ix.embTab.Bytes()
	}
	for _, e := range ix.embs {
		b += e.Bytes()
	}
	return b
}

// GridSlot returns the position of the smallest indexed threshold ≥ theta,
// or len(grid) when theta exceeds every indexed threshold.
func (ix *Index) GridSlot(theta float64) int {
	return sort.SearchFloat64s(ix.grid, theta)
}

// QueryStats describes the work one TopK call performed. PQPops counts the
// frontier visits of the best-first search — the tree nodes its per-pick
// frontier enumerations touch — at every shard count.
type QueryStats struct {
	PQPops         int
	VerifiedLeaves int
	CandidateScans int
	// ExactDistances counts threshold tests resolved by a full distance
	// computation (or an exact cached value); PrunedDistances counts tests
	// the bounded kernel resolved from a cheaper bound — a cascade stage or
	// a memoized interval — without completing the exact solve. Their sum is
	// the number of candidate threshold tests issued.
	ExactDistances  int
	PrunedDistances int
}

// ChooseGridFromLog picks up to gridSize thresholds from a log of past
// query thresholds by sampling quantiles of the logged distribution —
// §7.1's scheme 1: "the thresholds to index can be sampled from that
// distribution". Duplicate quantile values collapse, so the result may be
// shorter than gridSize.
func ChooseGridFromLog(log []float64, gridSize int) []float64 {
	if gridSize <= 0 || len(log) == 0 {
		return nil
	}
	sorted := append([]float64(nil), log...)
	sort.Float64s(sorted)
	grid := make([]float64, 0, gridSize)
	for i := 1; i <= gridSize; i++ {
		q := float64(i) / float64(gridSize+1)
		v := sorted[int(q*float64(len(sorted)-1))]
		if len(grid) == 0 || v > grid[len(grid)-1] {
			grid = append(grid, v)
		}
	}
	if max := sorted[len(sorted)-1]; len(grid) == 0 || grid[len(grid)-1] < max {
		grid = append(grid, max)
	}
	return grid
}

// ChooseGrid picks gridSize thresholds for the π̂-vector from a sampled
// distance distribution with the default worker count and no cancellation.
// See ChooseGridContext.
func ChooseGrid(db *graph.Database, m metric.Metric, gridSize, samplePairs int, rng *rand.Rand) []float64 {
	grid, _ := ChooseGridContext(context.Background(), db, m, gridSize, samplePairs, 0, rng)
	return grid
}

// ChooseGridContext picks gridSize thresholds for the π̂-vector from a
// sampled distance distribution, placing thresholds at equally spaced
// quantiles so that steep regions of the cumulative distribution get
// proportionally more thresholds (§7.1, scheme 2).
//
// The pairs are drawn from rng sequentially — the RNG stream is identical
// for any worker count — and only the distance evaluations fan out, each
// writing its pre-assigned slot, so the grid is deterministic in
// (db, samplePairs, rng seed) alone. A cancelled context returns ctx.Err().
func ChooseGridContext(ctx context.Context, db *graph.Database, m metric.Metric, gridSize, samplePairs, workers int, rng *rand.Rand) ([]float64, error) {
	if gridSize <= 0 || db.Len() < 2 {
		return nil, ctx.Err()
	}
	type pair struct{ a, b graph.ID }
	pairs := make([]pair, 0, samplePairs)
	for i := 0; i < samplePairs; i++ {
		a := graph.ID(rng.Intn(db.Len()))
		b := graph.ID(rng.Intn(db.Len()))
		if a == b {
			continue
		}
		pairs = append(pairs, pair{a, b})
	}
	if len(pairs) == 0 {
		return nil, ctx.Err()
	}
	ds := make([]float64, len(pairs))
	if err := pool.Ranges(ctx, len(pairs), workers, 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ds[i] = m.Distance(pairs[i].a, pairs[i].b)
		}
	}); err != nil {
		return nil, err
	}
	sort.Float64s(ds)
	grid := make([]float64, 0, gridSize)
	for i := 1; i <= gridSize; i++ {
		q := float64(i) / float64(gridSize+1)
		v := ds[int(q*float64(len(ds)-1))]
		if len(grid) == 0 || v > grid[len(grid)-1] {
			grid = append(grid, v)
		}
	}
	// Always index past the sampled maximum so every realistic θ is covered.
	if max := ds[len(ds)-1]; len(grid) == 0 || grid[len(grid)-1] < max {
		grid = append(grid, max)
	}
	return grid, nil
}

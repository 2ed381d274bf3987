package shard

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"

	"graphrep/internal/container"
	"graphrep/internal/ged"
	"graphrep/internal/graph"
	"graphrep/internal/metric"
	"graphrep/internal/nbindex"
	"graphrep/internal/nbtree"
	"graphrep/internal/vantage"
)

// Format v4 (NBIDX004): the index in the zero-copy framing of
// internal/container, readable in place from a byte slice — typically a
// memory mapping — so opening an index costs O(header + directory), not
// O(data). The directory's aux field carries the shard: global sections
// carry shard 0, per-shard sections the 0-based shard number (global and
// per-shard kinds are disjoint, so the (kind, shard) key is unique). The gob
// generations before it (NBIDX001–003) are no longer read: an index is a
// derived cache, rebuilt from the database when unusable.
const (
	// Global sections.
	secManifest = 1 // u64 shardCount, then per shard u64 base, u64 count
	secGrid     = 2 // f64 ascending θ grid

	// Per-shard vantage ordering.
	secVPs     = 10 // i32 vantage point IDs
	secDist    = 11 // f64 numVPs×count row-major: d(vp, g)
	secSortedD = 12 // f64 numVPs×count: each row ascending
	secByDist  = 13 // i32 numVPs×count: IDs in SortedD order

	// Per-shard NB-Tree in flattened (parallel-array) form.
	secTreeMeta    = 20 // u64 ×5: numNodes, exactDists, prunedDists, nodes, leaves
	secCentroid    = 21 // i32 per node
	secParent      = 22 // i32 per node, −1 at the root
	secFirstChild  = 23 // i32 per node, −1 at leaves
	secNextSibling = 24 // i32 per node, −1 at chain ends
	secSize        = 25 // i32 per node
	secLeaf        = 26 // u8 per node, 0 or 1
	secRadius      = 27 // f64 per node
	secDiameter    = 28 // f64 per node

	secLeafOf = 30 // i32 per graph: leaf node index of base+i

	// Per-shard filter embeddings, offset-tabled like the container itself.
	secEmbOffsets = 40 // u32 per graph plus terminator, into EmbBlob
	secEmbBlob    = 41 // encoded embedding records, concatenated in ID order
)

var v4Magic = [8]byte{'N', 'B', 'I', 'D', 'X', '0', '0', '4'}

// Encode persists the set in the v4 zero-copy layout. Output bytes are a
// pure function of the set's contents — sections are emitted in a fixed
// order, offsets are derived deterministically, and padding is zero — so they
// are identical for any build worker count and for either bounded-kernel
// setting.
func (s *Set) Encode(w io.Writer) error {
	var sections []container.Section
	add := func(kind, shard uint32, length uint64, write func(io.Writer) error) {
		sections = append(sections, container.Section{Kind: kind, Aux: shard, Len: length, Write: write})
	}

	manifest := make([]uint64, 0, 1+2*len(s.parts))
	manifest = append(manifest, uint64(len(s.parts)))
	for _, part := range s.parts {
		manifest = append(manifest, uint64(part.Base()), uint64(part.Count()))
	}
	add(secManifest, 0, uint64(8*len(manifest)), container.WriteLE(manifest))
	add(secGrid, 0, uint64(8*len(s.grid)), container.WriteLE(s.grid))

	// Embedding tables are assembled up front: heap-built indexes encode
	// their vectors once here, view-backed indexes pass their blob through.
	tabs := make([]*ged.Table, len(s.parts))
	for p, part := range s.parts {
		tab := part.EmbeddingTable()
		if tab == nil {
			var err error
			if tab, err = ged.NewTableFromEmbeddings(part.Embeddings()); err != nil {
				return fmt.Errorf("shard: shard %d: %w", p, err)
			}
		}
		if tab.Len() != part.Count() {
			return fmt.Errorf("shard: shard %d has %d embeddings for %d graphs", p, tab.Len(), part.Count())
		}
		tabs[p] = tab
	}

	for p, part := range s.parts {
		sh := uint32(p)
		vo, f, tab := part.VO(), part.Flat(), tabs[p]
		count, nv, nn := part.Count(), vo.NumVPs(), f.Len()

		add(secVPs, sh, uint64(4*nv), container.WriteLE(vo.VPs()))
		matrix := func(kind uint32, stride uint64, row func(v int) any) {
			add(kind, sh, stride*uint64(nv)*uint64(count), func(w io.Writer) error {
				for v := 0; v < nv; v++ {
					if err := binary.Write(w, binary.LittleEndian, row(v)); err != nil {
						return err
					}
				}
				return nil
			})
		}
		matrix(secDist, 8, func(v int) any { return vo.DistRow(v) })
		matrix(secSortedD, 8, func(v int) any { return vo.SortedRow(v) })
		matrix(secByDist, 4, func(v int) any { return vo.ByDistRow(v) })

		st := f.Stats()
		meta := []uint64{uint64(nn), uint64(st.ExactDistances), uint64(st.PrunedDistances), uint64(st.Nodes), uint64(st.Leaves)}
		add(secTreeMeta, sh, uint64(8*len(meta)), container.WriteLE(meta))
		add(secCentroid, sh, uint64(4*nn), container.WriteLE(f.Centroids))
		add(secParent, sh, uint64(4*nn), container.WriteLE(f.Parents))
		add(secFirstChild, sh, uint64(4*nn), container.WriteLE(f.FirstChild))
		add(secNextSibling, sh, uint64(4*nn), container.WriteLE(f.NextSibling))
		add(secSize, sh, uint64(4*nn), container.WriteLE(f.Sizes))
		add(secLeaf, sh, uint64(nn), func(w io.Writer) error { _, err := w.Write(f.Leaves); return err })
		add(secRadius, sh, uint64(8*nn), container.WriteLE(f.Radii))
		add(secDiameter, sh, uint64(8*nn), container.WriteLE(f.Diameters))

		add(secLeafOf, sh, uint64(4*count), container.WriteLE(part.LeafOf()))
		add(secEmbOffsets, sh, uint64(4*len(tab.Offsets())), container.WriteLE(tab.Offsets()))
		add(secEmbBlob, sh, uint64(len(tab.Blob())), func(w io.Writer) error { _, err := w.Write(tab.Blob()); return err })
	}

	return container.Write(w, v4Magic, sections)
}

// ReadBytesContext loads a v4 container directly from a byte slice —
// typically a memory mapping, in which case every array the set serves
// queries from stays a view over the mapping and the load cost is independent
// of the index size. The caller must keep data alive (and the mapping open)
// for the lifetime of the returned set.
//
// Validation is the load path's contract: structural integrity (bounds,
// alignment, overlaps, cross-section consistency, everything scans index by
// value) is checked here, so corrupt or truncated files fail with an error —
// never a panic, and never an out-of-bounds read later at query time.
func ReadBytesContext(ctx context.Context, data []byte, db *graph.Database, m metric.Metric) (*Set, error) {
	if len(data) >= 8 {
		switch string(data[:8]) {
		case "NBIDX001", "NBIDX002", "NBIDX003":
			return nil, fmt.Errorf("shard: index format %s is no longer read; rebuild the index from the database", data[:8])
		}
	}
	d, err := container.Parse(data, v4Magic)
	if err != nil {
		return nil, err
	}
	manifest, err := container.View[uint64](d, secManifest, 0)
	if err != nil {
		return nil, err
	}
	if len(manifest) == 0 {
		return nil, fmt.Errorf("shard: v4 manifest is empty")
	}
	shardCount := manifest[0]
	if shardCount == 0 || shardCount > uint64(db.Len()) || uint64(len(manifest)) != 1+2*shardCount {
		return nil, fmt.Errorf("shard: v4 manifest declares %d shards with %d entries for %d graphs",
			shardCount, len(manifest), db.Len())
	}
	gridView, err := container.View[float64](d, secGrid, 0)
	if err != nil {
		return nil, err
	}
	if len(gridView) == 0 || len(gridView) > 1<<20 {
		return nil, fmt.Errorf("shard: implausible grid length %d", len(gridView))
	}
	// The grid is tiny and shared across every shard and session; copying it
	// here means only bulk arrays reference the mapping.
	grid := append([]float64(nil), gridView...)

	s := &Set{db: db, m: m, grid: grid, parts: make([]*nbindex.Index, shardCount)}
	next := graph.ID(0)
	for p := range s.parts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		base, count := manifest[1+2*p], manifest[2+2*p]
		// base is compared in uint64 (no graph.ID truncation) and count is
		// bounded by the remaining range, so base+count cannot overflow.
		if base != uint64(next) || count == 0 || count > uint64(db.Len())-base {
			return nil, fmt.Errorf("shard: v4 shard %d declares [%d, %d), want contiguous from %d",
				p, base, base+count, next)
		}
		part, err := readPartV4(d, uint32(p), graph.ID(base), int(count), db, m, grid)
		if err != nil {
			return nil, fmt.Errorf("shard: shard %d: %w", p, err)
		}
		s.parts[p] = part
		next += graph.ID(count)
	}
	if int(next) != db.Len() {
		return nil, fmt.Errorf("shard: set covers %d graphs, database has %d", next, db.Len())
	}
	return s, nil
}

// readPartV4 assembles one shard's index from its sections using the
// deferred component constructors (vantage.FromViewsDeferred,
// nbtree.NewFlatDeferred, ged.NewTableDeferred,
// nbindex.PartFromViewsDeferred): only O(1)-per-shard shape checks — plus
// the cross-section length couplings the components cannot see — run here,
// so the open stays independent of index size. The O(count) content scans
// run once at the part's first use (nbindex.Index.EnsureValid, called by
// session creation and Insert), which is where corrupt content surfaces as
// an error.
func readPartV4(d *container.Dir, sh uint32, base graph.ID, count int, db *graph.Database, m metric.Metric, grid []float64) (*nbindex.Index, error) {
	vps, err := container.View[graph.ID](d, secVPs, sh)
	if err != nil {
		return nil, err
	}
	dist, err := container.View[float64](d, secDist, sh)
	if err != nil {
		return nil, err
	}
	sortedD, err := container.View[float64](d, secSortedD, sh)
	if err != nil {
		return nil, err
	}
	byDist, err := container.View[graph.ID](d, secByDist, sh)
	if err != nil {
		return nil, err
	}
	vo, err := vantage.FromViewsDeferred(vps, base, count, dist, sortedD, byDist)
	if err != nil {
		return nil, err
	}

	meta, err := container.View[uint64](d, secTreeMeta, sh)
	if err != nil {
		return nil, err
	}
	if len(meta) != 5 {
		return nil, fmt.Errorf("nbtree: tree meta has %d entries, want 5", len(meta))
	}
	numNodes := meta[0]
	if numNodes == 0 || numNodes > uint64(2*count) {
		return nil, fmt.Errorf("nbtree: implausible node count %d for %d graphs", numNodes, count)
	}
	centroids, err := container.View[graph.ID](d, secCentroid, sh)
	if err != nil {
		return nil, err
	}
	parents, err := container.View[int32](d, secParent, sh)
	if err != nil {
		return nil, err
	}
	firstChild, err := container.View[int32](d, secFirstChild, sh)
	if err != nil {
		return nil, err
	}
	nextSibling, err := container.View[int32](d, secNextSibling, sh)
	if err != nil {
		return nil, err
	}
	sizes, err := container.View[int32](d, secSize, sh)
	if err != nil {
		return nil, err
	}
	leaves, err := d.Section(secLeaf, sh)
	if err != nil {
		return nil, err
	}
	radii, err := container.View[float64](d, secRadius, sh)
	if err != nil {
		return nil, err
	}
	diameters, err := container.View[float64](d, secDiameter, sh)
	if err != nil {
		return nil, err
	}
	if uint64(len(centroids)) != numNodes || uint64(len(leaves)) != numNodes {
		return nil, fmt.Errorf("nbtree: tree sections cover %d/%d nodes, meta declares %d",
			len(centroids), len(leaves), numNodes)
	}
	if meta[3] != numNodes || meta[4] > numNodes {
		return nil, fmt.Errorf("nbtree: tree meta declares %d nodes / %d leaves for %d stored nodes",
			meta[3], meta[4], numNodes)
	}
	// The claimed leaf count (meta[4]) is carried in the stats and verified
	// against the actual flags by the deferred Flat.Validate.
	flat, err := nbtree.NewFlatDeferred(centroids, parents, firstChild, nextSibling, sizes, leaves, radii, diameters,
		nbtree.BuildStats{ExactDistances: int64(meta[1]), PrunedDistances: int64(meta[2]), Leaves: int(meta[4])})
	if err != nil {
		return nil, err
	}

	leafOf, err := container.View[int32](d, secLeafOf, sh)
	if err != nil {
		return nil, err
	}
	embOffs, err := container.View[uint32](d, secEmbOffsets, sh)
	if err != nil {
		return nil, err
	}
	embBlob, err := d.Section(secEmbBlob, sh)
	if err != nil {
		return nil, err
	}
	if len(embOffs) != count+1 {
		return nil, fmt.Errorf("ged: embedding table has %d offsets for %d graphs", len(embOffs), count)
	}
	tab, err := ged.NewTableDeferred(embOffs, embBlob)
	if err != nil {
		return nil, err
	}
	return nbindex.PartFromViewsDeferred(db, m, vo, flat, grid, leafOf, tab)
}

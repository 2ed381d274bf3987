package shard

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"graphrep/internal/ged"
	"graphrep/internal/graph"
	"graphrep/internal/metric"
	"graphrep/internal/mmapfile"
	"graphrep/internal/nbindex"
	"graphrep/internal/nbtree"
	"graphrep/internal/vantage"
)

// Format v4 (NBIDX004): the zero-copy container. Unlike v1–v3, which
// interleave length-prefixed gob streams and must be decoded section by
// section, v4 is a flat offset-tabled layout readable in place from a byte
// slice — typically a memory mapping — so opening an index costs O(header +
// directory), not O(data).
//
//	header     magic "NBIDX004" | u64 sectionCount | u64 fileSize
//	directory  sectionCount × { u32 kind | u32 shard | u64 off | u64 len }
//	sections   raw little-endian arrays, each 8-byte aligned, zero-padded
//
// Every array is fixed-stride, so a section becomes a typed slice via
// mmapfile.View without copying. Global sections carry shard 0; per-shard
// sections carry the 0-based shard number (global and per-shard kinds are
// disjoint, so the (kind, shard) key is unique).
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

const (
	v4HeaderLen   = 24
	v4DirEntryLen = 24
)

// v4section is one directory entry during encoding, paired with the function
// that writes its body.
type v4section struct {
	kind, shard uint32
	length      uint64
	write       func(w io.Writer) error
}

func pad8(n uint64) uint64 { return (n + 7) &^ 7 }

// writeLE returns a section body writer emitting v in little-endian — the
// single choke point for array sections, so the writer never touches unsafe.
func writeLE(v any) func(io.Writer) error {
	return func(w io.Writer) error { return binary.Write(w, binary.LittleEndian, v) }
}

// EncodeV4 persists the set in the v4 zero-copy layout. Like the legacy
// encoder, output bytes are a pure function of the set's contents: sections
// are emitted in a fixed order, offsets are derived deterministically, and
// padding is zero.
func (s *Set) EncodeV4(w io.Writer) error {
	var sections []v4section
	add := func(kind, shard uint32, length uint64, write func(io.Writer) error) {
		sections = append(sections, v4section{kind: kind, shard: shard, length: length, write: write})
	}

	manifest := make([]uint64, 0, 1+2*len(s.parts))
	manifest = append(manifest, uint64(len(s.parts)))
	for _, part := range s.parts {
		manifest = append(manifest, uint64(part.Base()), uint64(part.Count()))
	}
	add(secManifest, 0, uint64(8*len(manifest)), writeLE(manifest))
	add(secGrid, 0, uint64(8*len(s.grid)), writeLE(s.grid))

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

		add(secVPs, sh, uint64(4*nv), writeLE(vo.VPs()))
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
		add(secTreeMeta, sh, uint64(8*len(meta)), writeLE(meta))
		add(secCentroid, sh, uint64(4*nn), writeLE(f.Centroids))
		add(secParent, sh, uint64(4*nn), writeLE(f.Parents))
		add(secFirstChild, sh, uint64(4*nn), writeLE(f.FirstChild))
		add(secNextSibling, sh, uint64(4*nn), writeLE(f.NextSibling))
		add(secSize, sh, uint64(4*nn), writeLE(f.Sizes))
		add(secLeaf, sh, uint64(nn), func(w io.Writer) error { _, err := w.Write(f.Leaves); return err })
		add(secRadius, sh, uint64(8*nn), writeLE(f.Radii))
		add(secDiameter, sh, uint64(8*nn), writeLE(f.Diameters))

		add(secLeafOf, sh, uint64(4*count), writeLE(part.LeafOf()))
		add(secEmbOffsets, sh, uint64(4*len(tab.Offsets())), writeLE(tab.Offsets()))
		add(secEmbBlob, sh, uint64(len(tab.Blob())), func(w io.Writer) error { _, err := w.Write(tab.Blob()); return err })
	}

	// Assign aligned offsets, then emit header, directory, and bodies.
	off := uint64(v4HeaderLen + v4DirEntryLen*len(sections))
	offs := make([]uint64, len(sections))
	for i, sec := range sections {
		off = pad8(off)
		offs[i] = off
		off += sec.length
	}
	fileSize := pad8(off)

	var hdr [v4HeaderLen]byte
	copy(hdr[:8], v4Magic[:])
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(sections)))
	binary.LittleEndian.PutUint64(hdr[16:], fileSize)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var ent [v4DirEntryLen]byte
	for i, sec := range sections {
		binary.LittleEndian.PutUint32(ent[0:], sec.kind)
		binary.LittleEndian.PutUint32(ent[4:], sec.shard)
		binary.LittleEndian.PutUint64(ent[8:], offs[i])
		binary.LittleEndian.PutUint64(ent[16:], sec.length)
		if _, err := w.Write(ent[:]); err != nil {
			return err
		}
	}
	var zeros [8]byte
	pos := uint64(v4HeaderLen + v4DirEntryLen*len(sections))
	for i, sec := range sections {
		if p := offs[i] - pos; p > 0 {
			if _, err := w.Write(zeros[:p]); err != nil {
				return err
			}
		}
		if err := sec.write(w); err != nil {
			return fmt.Errorf("shard: write section kind %d shard %d: %w", sec.kind, sec.shard, err)
		}
		pos = offs[i] + sec.length
	}
	if p := fileSize - pos; p > 0 {
		if _, err := w.Write(zeros[:p]); err != nil {
			return err
		}
	}
	return nil
}

// v4dir is the parsed directory: section lookup by (kind, shard).
type v4dir struct {
	data []byte
	secs map[[2]uint32][]byte
}

// section returns the named section's bytes, or an error naming it.
func (d *v4dir) section(kind, shard uint32) ([]byte, error) {
	b, ok := d.secs[[2]uint32{kind, shard}]
	if !ok {
		return nil, fmt.Errorf("shard: v4 index is missing section kind %d shard %d", kind, shard)
	}
	return b, nil
}

// parseV4 validates the header and directory of a v4 container: magic, file
// size, per-entry alignment and bounds (overflow-safe), no duplicate (kind,
// shard) keys, and no overlapping sections. Section bodies are NOT examined —
// that is each constructor's job — but after parseV4 every section slice is
// guaranteed to lie inside data.
func parseV4(data []byte) (*v4dir, error) {
	if len(data) < v4HeaderLen {
		return nil, fmt.Errorf("shard: v4 index of %d bytes is shorter than the header", len(data))
	}
	if [8]byte(data[:8]) != v4Magic {
		return nil, fmt.Errorf("shard: bad magic %q", data[:8])
	}
	count := binary.LittleEndian.Uint64(data[8:])
	fileSize := binary.LittleEndian.Uint64(data[16:])
	if fileSize != uint64(len(data)) {
		return nil, fmt.Errorf("shard: v4 header declares %d bytes, file has %d", fileSize, len(data))
	}
	if count == 0 || count > uint64(len(data)-v4HeaderLen)/v4DirEntryLen {
		return nil, fmt.Errorf("shard: implausible v4 section count %d for %d bytes", count, len(data))
	}
	dirEnd := uint64(v4HeaderLen) + count*v4DirEntryLen
	d := &v4dir{data: data, secs: make(map[[2]uint32][]byte, count)}
	type span struct{ off, end uint64 }
	spans := make([]span, 0, count)
	for i := uint64(0); i < count; i++ {
		ent := data[v4HeaderLen+i*v4DirEntryLen:]
		kind := binary.LittleEndian.Uint32(ent[0:])
		shard := binary.LittleEndian.Uint32(ent[4:])
		off := binary.LittleEndian.Uint64(ent[8:])
		length := binary.LittleEndian.Uint64(ent[16:])
		if off%8 != 0 {
			return nil, fmt.Errorf("shard: v4 section %d (kind %d shard %d) at unaligned offset %d", i, kind, shard, off)
		}
		if off < dirEnd || off > fileSize || length > fileSize-off {
			return nil, fmt.Errorf("shard: v4 section %d (kind %d shard %d) spans [%d, %d+%d) outside the file",
				i, kind, shard, off, off, length)
		}
		key := [2]uint32{kind, shard}
		if _, dup := d.secs[key]; dup {
			return nil, fmt.Errorf("shard: v4 index has duplicate section kind %d shard %d", kind, shard)
		}
		d.secs[key] = data[off : off+length : off+length]
		spans = append(spans, span{off: off, end: off + length})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].off < spans[j].off })
	for i := 1; i < len(spans); i++ {
		if spans[i].off < spans[i-1].end {
			return nil, fmt.Errorf("shard: v4 sections overlap at offset %d", spans[i].off)
		}
	}
	return d, nil
}

// v4view builds a typed view over one section, naming the section on error.
func v4view[T mmapfile.Scalar](d *v4dir, kind, shard uint32) ([]T, error) {
	b, err := d.section(kind, shard)
	if err != nil {
		return nil, err
	}
	v, err := mmapfile.View[T](b)
	if err != nil {
		return nil, fmt.Errorf("shard: v4 section kind %d shard %d: %w", kind, shard, err)
	}
	return v, nil
}

// ReadBytes loads a v4 container from data with no cancellation. See
// ReadBytesContext.
func ReadBytes(data []byte, db *graph.Database, m metric.Metric) (*Set, error) {
	return ReadBytesContext(context.Background(), data, db, m)
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
	d, err := parseV4(data)
	if err != nil {
		return nil, err
	}
	manifest, err := v4view[uint64](d, secManifest, 0)
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
	gridView, err := v4view[float64](d, secGrid, 0)
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
func readPartV4(d *v4dir, sh uint32, base graph.ID, count int, db *graph.Database, m metric.Metric, grid []float64) (*nbindex.Index, error) {
	vps, err := v4view[graph.ID](d, secVPs, sh)
	if err != nil {
		return nil, err
	}
	dist, err := v4view[float64](d, secDist, sh)
	if err != nil {
		return nil, err
	}
	sortedD, err := v4view[float64](d, secSortedD, sh)
	if err != nil {
		return nil, err
	}
	byDist, err := v4view[graph.ID](d, secByDist, sh)
	if err != nil {
		return nil, err
	}
	vo, err := vantage.FromViewsDeferred(vps, base, count, dist, sortedD, byDist)
	if err != nil {
		return nil, err
	}

	meta, err := v4view[uint64](d, secTreeMeta, sh)
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
	centroids, err := v4view[graph.ID](d, secCentroid, sh)
	if err != nil {
		return nil, err
	}
	parents, err := v4view[int32](d, secParent, sh)
	if err != nil {
		return nil, err
	}
	firstChild, err := v4view[int32](d, secFirstChild, sh)
	if err != nil {
		return nil, err
	}
	nextSibling, err := v4view[int32](d, secNextSibling, sh)
	if err != nil {
		return nil, err
	}
	sizes, err := v4view[int32](d, secSize, sh)
	if err != nil {
		return nil, err
	}
	leaves, err := d.section(secLeaf, sh)
	if err != nil {
		return nil, err
	}
	radii, err := v4view[float64](d, secRadius, sh)
	if err != nil {
		return nil, err
	}
	diameters, err := v4view[float64](d, secDiameter, sh)
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

	leafOf, err := v4view[int32](d, secLeafOf, sh)
	if err != nil {
		return nil, err
	}
	embOffs, err := v4view[uint32](d, secEmbOffsets, sh)
	if err != nil {
		return nil, err
	}
	embBlob, err := d.section(secEmbBlob, sh)
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

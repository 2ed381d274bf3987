package vantage

import (
	"fmt"

	"graphrep/internal/graph"
)

// FromViewsDeferred assembles an Ordering from persisted arrays — typically
// zero-copy views over index sections. dist is the row-major len(vps)×count
// distance matrix; sortedD and byDist are the count-long sorted view of
// vantage space 0. Rows are sliced out with capacity clipped to the row, so
// an Insert-time append on any row reallocates instead of growing into its
// neighbor (or through a mapping). It checks only the shape invariants
// (non-empty, array lengths) in O(1) and defers the content scan to
// Validate, keeping a mapped open independent of index size. The Ordering
// must not serve lookups until Validate has passed.
func FromViewsDeferred(vps []graph.ID, base graph.ID, count int, dist, sortedD []float64, byDist []graph.ID) (*Ordering, error) {
	if len(vps) == 0 {
		return nil, fmt.Errorf("vantage: no vantage points")
	}
	if count <= 0 {
		return nil, fmt.Errorf("vantage: count %d", count)
	}
	if base < 0 {
		return nil, fmt.Errorf("vantage: base %d", base)
	}
	if len(dist) != len(vps)*count || len(sortedD) != count || len(byDist) != count {
		return nil, fmt.Errorf("vantage: %d distances and a sorted view of %d/%d entries, want %d (%d VPs × %d graphs) and %d",
			len(dist), len(sortedD), len(byDist), len(vps)*count, len(vps), count, count)
	}
	o := &Ordering{
		vps:     vps,
		base:    base,
		dist:    make([][]float64, len(vps)),
		byDist:  byDist[:count:count],
		sortedD: sortedD[:count:count],
	}
	for v := range vps {
		lo, hi := v*count, (v+1)*count
		o.dist[v] = dist[lo:hi:hi]
	}
	return o, nil
}

// Validate runs the O(count) content scan a deferred construction skipped:
// byDist — the only array whose entries are used as array indices — must
// stay inside [base, base+count). Distance values are used only as
// comparands, so corrupt values can skew answers but never fault; deeper
// consistency is the compat tests' job, not the load path's.
func (o *Ordering) Validate() error {
	base, count := o.base, len(o.byDist)
	for _, id := range o.byDist {
		if id < base || int(id-base) >= count {
			return fmt.Errorf("vantage: ordering entry %d outside covered range [%d, %d)", id, base, int(base)+count)
		}
	}
	return nil
}

// DistRow returns the distance row of vantage point v: d(vps[v], g) indexed
// by g−Base(). Read-only; the persistence writer serializes rows directly.
func (o *Ordering) DistRow(v int) []float64 { return o.dist[v] }

// SortedRow returns the ascending distances of vantage space 0. Read-only.
func (o *Ordering) SortedRow() []float64 { return o.sortedD }

// ByDistRow returns the covered graph IDs in vantage-space-0 order (matching
// SortedRow). Read-only.
func (o *Ordering) ByDistRow() []graph.ID { return o.byDist }

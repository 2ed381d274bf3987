package experiments

import (
	"fmt"
	"io"
	"time"

	"graphrep/internal/metric"
)

// RunFig6kConstruction reproduces Fig. 6(k): NB-Index construction time
// against dataset size, next to the cost of precomputing the full distance
// matrix. The paper's shape: construction is orders of magnitude cheaper
// than the matrix because VP-based pruning computes exact distances for only
// a small minority of pivot/graph pairs.
func RunFig6kConstruction(w io.Writer, s Scale) error {
	fmt.Fprintln(w, "== Fig. 6(k): index construction time vs dataset size (dud) ==")
	fmt.Fprintf(w, "%8s | %12s %12s | %14s %14s | %10s\n",
		"n", "index ms", "matrix ms", "index dists", "matrix dists", "pruned")
	for _, n := range s.SweepN {
		fx, err := NewFixture("dud", n, s, 1200)
		if err != nil {
			return err
		}
		before := fx.Count.Count()
		start := time.Now()
		ix, err := fx.buildIndex(s.NumVPs, 4, fx.Grid, 1201)
		if err != nil {
			return err
		}
		indexDur := time.Since(start)
		indexDists := fx.Count.Count() - before

		// Fresh metric stack so matrix construction cannot reuse the
		// index's cached distances.
		mcount := metric.NewCounter(fx.Base)
		start = time.Now()
		metric.NewMatrix(fx.DB, mcount, 4)
		matrixDur := time.Since(start)

		st := ix.Part(0).Flat().Stats()
		prunedFrac := 0.0
		if tot := st.ExactDistances + st.PrunedDistances; tot > 0 {
			prunedFrac = float64(st.PrunedDistances) / float64(tot)
		}
		fmt.Fprintf(w, "%8d | %12.1f %12.1f | %14d %14d | %9.1f%%\n",
			n, ms(indexDur), ms(matrixDur), indexDists, mcount.Count(), prunedFrac*100)
	}
	return nil
}

// RunFig6lFootprint reproduces Fig. 6(l): the index memory footprint grows
// linearly with dataset size (VO storage O(|V|·|D|) plus the NB-Tree plus
// query-time π̂-vectors), versus the quadratic distance matrix.
func RunFig6lFootprint(w io.Writer, s Scale) error {
	fmt.Fprintln(w, "== Fig. 6(l): index memory footprint vs dataset size (dud) ==")
	fmt.Fprintf(w, "%8s | %12s %12s %12s | %14s\n", "n", "VO KiB", "tree KiB", "π̂ KiB", "matrix KiB")
	for _, n := range s.SweepN {
		fx, err := NewFixture("dud", n, s, 1300)
		if err != nil {
			return err
		}
		ix, err := fx.NBIndex(s)
		if err != nil {
			return err
		}
		sess, err := ix.NewSession(fx.Rel)
		if err != nil {
			return err
		}
		matrixBytes := int64(n) * int64(n-1) / 2 * 8
		fmt.Fprintf(w, "%8d | %12.1f %12.1f %12.1f | %14.1f\n",
			n,
			float64(ix.Part(0).VO().Bytes())/1024,
			float64(ix.Part(0).Flat().Bytes())/1024,
			float64(sess.PiHatBytes())/1024,
			float64(matrixBytes)/1024)
	}
	return nil
}

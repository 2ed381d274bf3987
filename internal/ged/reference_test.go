package ged

import (
	"graphrep/internal/assignment"
	"graphrep/internal/graph"
)

// The reference star distance: the merge-based fill the integer kernel
// replaced, over float64 rows, solved by the general float assignment.Solve.
// It shares nothing with the production path but the graph decomposition
// (graph.Stars), so agreement is evidence for the postings fill, the int32
// cells and the integer solver alike.

// refStars is one graph's stars in packed form: star i's spokes are
// keys[off[i]:off[i+1]], each spoke packed as edge label high, leaf label
// low, so every run is sorted.
type refStars struct {
	keys    []uint64
	off     []int32
	centers []uint32
}

func packStars(stars []graph.Star) refStars {
	p := refStars{off: make([]int32, len(stars)+1), centers: make([]uint32, len(stars))}
	for i := range stars {
		p.centers[i] = uint32(stars[i].Center)
		for _, sp := range stars[i].Spokes {
			p.keys = append(p.keys, uint64(sp.EdgeLabel)<<32|uint64(sp.LeafLabel))
		}
		p.off[i+1] = int32(len(p.keys))
	}
	return p
}

// packedPairCost is the ground cost between two real stars: the discrete
// metric on center labels plus the multiset symmetric difference of the
// sorted spoke-key runs.
func packedPairCost(centerA uint32, ka []uint64, centerB uint32, kb []uint64) float64 {
	c := 0.0
	if centerA != centerB {
		c = 1
	}
	i, j, common := 0, 0, 0
	for i < len(ka) && j < len(kb) {
		x, y := ka[i], kb[j]
		if x == y {
			common++
			i++
			j++
		} else if x < y {
			i++
		} else {
			j++
		}
	}
	return c + float64(len(ka)+len(kb)-2*common)
}

// referenceCost fills the padded n×n ground-cost matrix cell by cell.
func referenceCost(g1, g2 *graph.Graph) [][]float64 {
	p1, p2 := packStars(g1.Stars()), packStars(g2.Stars())
	n1, n2 := len(p1.centers), len(p2.centers)
	n := max(n1, n2)
	cost := make([][]float64, n)
	for i := range cost {
		cost[i] = make([]float64, n)
		for j := range cost[i] {
			switch {
			case i < n1 && j < n2:
				cost[i][j] = packedPairCost(p1.centers[i], p1.keys[p1.off[i]:p1.off[i+1]], p2.centers[j], p2.keys[p2.off[j]:p2.off[j+1]])
			case i < n1:
				cost[i][j] = 1 + float64(p1.off[i+1]-p1.off[i])
			case j < n2:
				cost[i][j] = 1 + float64(p2.off[j+1]-p2.off[j])
			}
		}
	}
	return cost
}

// referenceDistance is the star distance through referenceCost and the
// float solver.
func referenceDistance(g1, g2 *graph.Graph) float64 {
	_, total := assignment.Solve(referenceCost(g1, g2))
	return total
}

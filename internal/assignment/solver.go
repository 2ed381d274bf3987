package assignment

import (
	"math"
	"sync"
)

// Solver carries the scratch arenas (dual potentials, column assignments,
// augmenting-path bookkeeping) for the float Hungarian solve so repeated calls
// on same-sized matrices reuse them. A Solver is not safe for concurrent use;
// keep one per goroutine, or call the pooled package-level Solve.
type Solver struct {
	u, v, minv []float64
	p, way     []int
	used       []bool
}

// NewSolver returns an empty Solver. Scratch grows on first use and is
// retained for subsequent calls.
func NewSolver() *Solver { return &Solver{} }

var solverPool = sync.Pool{New: func() any { return &Solver{} }}

const inf = math.MaxFloat64

// grow sizes the scratch arenas for an n×n matrix and resets the state that
// persists across rows (duals and column assignments). minv/used are reset
// per augmented row.
func (s *Solver) grow(n int) {
	if cap(s.u) < n+1 {
		s.u = make([]float64, n+1)
		s.v = make([]float64, n+1)
		s.minv = make([]float64, n+1)
		s.p = make([]int, n+1)
		s.way = make([]int, n+1)
		s.used = make([]bool, n+1)
	} else {
		s.u = s.u[:n+1]
		s.v = s.v[:n+1]
		s.minv = s.minv[:n+1]
		s.p = s.p[:n+1]
		s.way = s.way[:n+1]
		s.used = s.used[:n+1]
	}
	for j := 0; j <= n; j++ {
		s.u[j], s.v[j], s.p[j] = 0, 0, 0
	}
}

func checkSquare(cost [][]float64) int {
	n := len(cost)
	for _, row := range cost {
		if len(row) != n {
			panic("assignment: cost matrix is not square")
		}
	}
	return n
}

// augmentRow grows the matching by one row via the shortest augmenting path
// in reduced costs, updating the duals along the alternating tree.
func (s *Solver) augmentRow(cost [][]float64, n, i int) {
	u, v, p, way, minv, used := s.u, s.v, s.p, s.way, s.minv, s.used
	p[0] = i
	j0 := 0
	for j := 0; j <= n; j++ {
		minv[j] = inf
		used[j] = false
	}
	for {
		used[j0] = true
		i0 := p[j0]
		delta := inf
		j1 := 0
		for j := 1; j <= n; j++ {
			if used[j] {
				continue
			}
			cur := cost[i0-1][j-1] - u[i0] - v[j]
			if cur < minv[j] {
				minv[j] = cur
				way[j] = j0
			}
			if minv[j] < delta {
				delta = minv[j]
				j1 = j
			}
		}
		for j := 0; j <= n; j++ {
			if used[j] {
				u[p[j]] += delta
				v[j] -= delta
			} else {
				minv[j] -= delta
			}
		}
		j0 = j1
		if p[j0] == 0 {
			break
		}
	}
	for j0 != 0 {
		j1 := way[j0]
		p[j0] = p[j1]
		j0 = j1
	}
}

// Solve returns a minimum-cost assignment for the square cost matrix, as a
// slice perm where row i is assigned to column perm[i], along with the total
// cost. It panics if the matrix is not square; an empty matrix yields an
// empty assignment with cost 0. Costs may be fractional or +Inf; the
// package-level Solve is a pooled wrapper around this method.
func (s *Solver) Solve(cost [][]float64) (perm []int, total float64) {
	n := checkSquare(cost)
	if n == 0 {
		return nil, 0
	}
	s.grow(n)
	for i := 1; i <= n; i++ {
		s.augmentRow(cost, n, i)
	}
	perm = make([]int, n)
	for j := 1; j <= n; j++ {
		perm[s.p[j]-1] = j - 1
	}
	for i, j := range perm {
		total += cost[i][j]
	}
	return perm, total
}

// Package assignment solves the linear assignment problem: given an n×n cost
// matrix, find a permutation minimizing the total cost. It underlies both the
// bipartite graph-edit-distance upper bound (Riesen & Bunke) and the
// star-matching metric distance (Zeng et al.) in internal/ged.
//
// Both solvers implement the O(n³) Jonker-style shortest-augmenting-path
// variant of the Hungarian (Kuhn–Munkres) algorithm on reusable scratch:
//
//   - Solver (and the pooled Solve) runs on [][]float64 and returns the
//     permutation; its callers' costs are fractional or +Inf.
//   - IntSolver runs on a flat row-major []int32 matrix with int64 duals and
//     serves the star kernel: row minima, a warm-started exact total, a cold
//     partial solve with a dual early exit, and a greedy-plus-polish upper
//     bound.
package assignment

// Solve returns a minimum-cost assignment for the square cost matrix, as a
// slice perm where row i is assigned to column perm[i], along with the total
// cost. Solve panics if the matrix is not square. An empty matrix yields an
// empty assignment with cost 0.
//
// It borrows a pooled Solver, so the only allocation in steady state is the
// returned perm slice.
func Solve(cost [][]float64) (perm []int, total float64) {
	s := solverPool.Get().(*Solver)
	perm, total = s.Solve(cost)
	solverPool.Put(s)
	return perm, total
}

package assignment

import (
	"math"
	"math/bits"
)

// IntSolver is the integer form of the shortest-augmenting-path solver, for
// cost matrices of small non-negative integers — the star kernel's ground
// costs. The matrix is one flat row-major []int32 of n×n cells (row i is
// cost[i*n:(i+1)*n]); duals, path lengths and totals run in int64. Any cell
// ≤ math.MaxInt32 with n ≤ math.MaxInt32 keeps every dual within
// n·math.MaxInt32 < 2^62, so no intermediate can overflow, and every result
// is exact.
//
// Each row is added by one Dijkstra search over the columns in reduced
// costs, in the lazy form of Crouse ("On implementing 2D rectangular
// assignment algorithms", 2016): path lengths accumulate in dist and the
// duals move once per row, on the scanned columns only, instead of after
// every step; unscanned columns sit in a compacted list; and among equally
// short candidates a free column wins, which ends the search early on the
// heavy ties small integer costs produce.
//
// Thresholds are integers: a caller holding a real-valued τ passes ⌊τ⌋, since
// an integer x satisfies x ≤ τ ⇔ x ≤ ⌊τ⌋ and x > τ ⇔ x > ⌊τ⌋.
//
// An IntSolver is not safe for concurrent use. Its scratch grows on first use
// and is reused, so steady-state calls allocate nothing.
type IntSolver struct {
	u, v, dist       []int64
	row4col, col4row []int32  // the matching; -1 marks a free row or column
	path             []int32  // path[j] = row that reached column j
	remaining        []int32  // columns not yet scanned by the current search
	scanned          []int32  // columns scanned by the current search, in order
	asg              []int32  // the greedy assignment GreedyWithMins builds
	taken            []int64  // greedy's taken columns: MaxInt64 once taken
	slack            []int64  // the polish's reduced cost of each row's cell
	loose            []uint64 // the polish's rows of positive slack, as bits
}

// grow sizes the scratch for an n×n matrix, zeroes the duals and empties the
// matching.
func (s *IntSolver) grow(n int) {
	if cap(s.u) < n {
		s.u = make([]int64, n)
		s.v = make([]int64, n)
		s.dist = make([]int64, n)
		s.row4col = make([]int32, n)
		s.col4row = make([]int32, n)
		s.path = make([]int32, n)
		s.remaining = make([]int32, n)
		s.scanned = make([]int32, 0, n)
	}
	s.u, s.v, s.dist = s.u[:n], s.v[:n], s.dist[:n]
	s.row4col, s.col4row, s.path = s.row4col[:n], s.col4row[:n], s.path[:n]
	s.remaining = s.remaining[:n]
	clear(s.u)
	clear(s.v)
	for j := range s.row4col {
		s.row4col[j] = -1
		s.col4row[j] = -1
	}
}

// augment adds the free row cur to the matching along a shortest augmenting
// path in reduced costs, then moves the duals so every matched cell stays
// tight. The step is correct for any partial matching that satisfies
// complementary slackness under feasible duals, whichever rows built it,
// which is what lets TotalWarm pre-match rows before augmenting.
func (s *IntSolver) augment(cost []int32, n, cur int) {
	u, v, dist := s.u, s.v[:n], s.dist[:n]
	row4col, col4row, path := s.row4col[:n], s.col4row, s.path[:n]
	rem := s.remaining[:n]
	for k := range rem {
		rem[k] = int32(k)
		dist[k] = math.MaxInt64
	}
	scanned := s.scanned[:0]
	var minVal int64
	i, sink := cur, int32(-1)
	for sink < 0 {
		row := cost[i*n : (i+1)*n : (i+1)*n]
		base := minVal - u[i]
		lowest, index := int64(math.MaxInt64), 0
		for k, j := range rem {
			if r := base + int64(row[j]) - v[j]; r < dist[j] {
				path[j] = int32(i)
				dist[j] = r
			}
			if d := dist[j]; d < lowest || d == lowest && row4col[j] < 0 {
				lowest, index = d, k
			}
		}
		minVal = lowest
		j := rem[index]
		scanned = append(scanned, j)
		if row4col[j] < 0 {
			sink = j
		} else {
			i = int(row4col[j])
		}
		last := len(rem) - 1
		rem[index] = rem[last]
		rem = rem[:last]
	}
	u[cur] += minVal
	for _, j := range scanned {
		if j != sink {
			u[row4col[j]] += minVal - dist[j]
		}
		v[j] -= minVal - dist[j]
	}
	for j := sink; ; {
		r := path[j]
		row4col[j] = r
		j, col4row[r] = col4row[r], j
		if int(r) == cur {
			break
		}
	}
	s.scanned = scanned
}

// total sums the matched cells.
func (s *IntSolver) total(cost []int32, n int) int64 {
	var total int64
	for i, j := range s.col4row[:n] {
		total += int64(cost[i*n+int(j)])
	}
	return total
}

// TotalWarm returns the minimum assignment cost from a Jonker–Volgenant-style
// warm start: Reduce, then TotalReduced. The optimum is the one a cold solve
// reaches; the minimizing assignment may differ on ties.
//
// rowMin[i] must equal the minimum of row i, and cells must be non-negative.
// Violating either breaks dual feasibility and with it optimality.
func (s *IntSolver) TotalWarm(cost []int32, n int, rowMin []int32) int64 {
	s.Reduce(cost, n, rowMin)
	return s.TotalReduced(cost, n)
}

// Reduce sets the warm start's duals and empties the matching. Row reduction
// sets u[i] = rowMin[i]; column reduction then sets
// v[j] = min_i (cost[i][j] − u[i]), which keeps the duals feasible and makes
// every column carry at least one zero reduced cost. It returns the dual
// objective Σu + Σv: a lower bound on the optimum, and at least the row
// minima's sum. rowMin must be RowMins' output for the matrix.
func (s *IntSolver) Reduce(cost []int32, n int, rowMin []int32) (bound int64) {
	if n == 0 {
		return 0
	}
	s.grow(n)
	u, v := s.u, s.v
	for i := range u {
		u[i] = int64(rowMin[i])
		v[i] = math.MaxInt64
		bound += u[i]
	}
	for i := 0; i < n; i++ {
		row := cost[i*n : (i+1)*n : (i+1)*n]
		ui := u[i]
		vr := v[:len(row)]
		for j, c := range row {
			vr[j] = min(vr[j], int64(c)-ui)
		}
	}
	for _, vj := range v {
		bound += vj
	}
	return bound
}

// TotalReduced finishes the solve Reduce started and returns the optimum.
// Each row claims the first free column of zero reduced cost — a match that
// satisfies complementary slackness outright — and only the rows that find
// none run the augmentation. Only PolishAtMost, which leaves the solve's
// state alone, may run on the solver between the two calls.
func (s *IntSolver) TotalReduced(cost []int32, n int) int64 {
	if n == 0 {
		return 0
	}
	u, v, row4col, col4row := s.u, s.v, s.row4col, s.col4row
	for i := 0; i < n; i++ {
		row := cost[i*n : (i+1)*n : (i+1)*n]
		ui := u[i]
		for j, c := range row {
			if row4col[j] < 0 && int64(c)-ui == v[j] {
				row4col[j], col4row[i] = int32(i), int32(j)
				break
			}
		}
	}
	for i := 0; i < n; i++ {
		if col4row[i] < 0 {
			s.augment(cost, n, i)
		}
	}
	return s.total(cost, n)
}

// GreedyWithMins builds the greedy assignment — each row, in order, takes
// its cheapest free column, ties to the lowest index — and returns its cost,
// an upper bound on the optimum. It also stores each row's minimum in rowMin
// and returns their sum, the lower bound RowMins computes: while a column at
// a row's minimum is free, the first such column is the pick, so most rows
// need only the minimum and a short scan for it. The assignment stays in the
// solver for PolishAtMost.
func (s *IntSolver) GreedyWithMins(cost []int32, n int, rowMin []int32) (greedy, rowSum int64) {
	if n == 0 {
		return 0, 0
	}
	if cap(s.asg) < n {
		s.asg = make([]int32, n)
		s.taken = make([]int64, n)
		s.slack = make([]int64, n)
		s.loose = make([]uint64, (n+63)/64)
	}
	asg, taken := s.asg[:n], s.taken[:n]
	clear(taken)
	for i := 0; i < n; i++ {
		row := cost[i*n : (i+1)*n : (i+1)*n]
		m, bj := minInt32(row), -1
		rowMin[i] = m
		rowSum += int64(m)
		for j, c := range row {
			if c == m && taken[j] == 0 {
				bj = j
				break
			}
		}
		if bj < 0 {
			bj = cheapestFree(row, taken)
		}
		taken[bj] = math.MaxInt64
		asg[i] = int32(bj)
		greedy += int64(row[bj])
	}
	return greedy, rowSum
}

// cheapestFree returns the cheapest column of row not yet taken, ties to the
// lowest index. A cell's key packs its value above its column index, and
// OR-ing in taken[j] (MaxInt64 once column j is taken) forces a taken
// column's key to the top, so the minimum key is the pick — found without a
// data-dependent branch, two accumulators keeping the dependency chains
// short.
func cheapestFree(row []int32, taken []int64) int {
	taken = taken[:len(row)]
	k0, k1 := int64(math.MaxInt64), int64(math.MaxInt64)
	j := 0
	for ; j+1 < len(row); j += 2 {
		k0 = min(k0, int64(row[j])<<32|int64(j)|taken[j])
		k1 = min(k1, int64(row[j+1])<<32|int64(j+1)|taken[j+1])
	}
	if j < len(row) {
		k0 = min(k0, int64(row[j])<<32|int64(j)|taken[j])
	}
	return int(min(k0, k1) & math.MaxUint32)
}

// PolishAtMost lowers the cost total of the assignment GreedyWithMins built
// by at most two 2-swap passes — exchange the columns of rows i < j, in
// order, on strict improvement — and returns the running cost the moment it
// reaches ≤ tau, or the final cost: an upper bound on the optimum. Greedy's
// mistakes are mostly pairwise — an early row taking a later row's best
// column — so the first two passes close most of the gap; later passes
// decided well under 1% of greedy successes on the reference workload while
// every failure paid for them.
//
// The passes read reduced costs under the duals Reduce set, which must have
// run on the same matrix after the greedy build: a swap changes the cost by
// exactly what it changes the reduced cost, so the swaps taken are those of
// the plain costs, and a row on a cell of zero reduced cost (most rows) can
// only gain from a swap with a row that is not. Pairs of two such rows are
// skipped without a read, as is a pair whose first moved-to cell alone
// reaches the pair's current reduced cost. The solve Reduce started
// survives.
func (s *IntSolver) PolishAtMost(cost []int32, n int, tau, total int64) int64 {
	asg, slack, u, v := s.asg[:n], s.slack[:n], s.u[:n], s.v[:n]
	loose := s.loose[:(n+63)/64]
	clear(loose)
	for i, c := range asg {
		if slack[i] = int64(cost[i*n+int(c)]) - u[i] - v[c]; slack[i] > 0 {
			loose[i>>6] |= 1 << (i & 63)
		}
	}
	mark := func(i int) {
		if slack[i] > 0 {
			loose[i>>6] |= 1 << (i & 63)
		} else {
			loose[i>>6] &^= 1 << (i & 63)
		}
	}
	for pass := 0; pass < 2; pass++ {
		improved := false
		for i := 0; i < n; i++ {
			ri := cost[i*n : (i+1)*n : (i+1)*n]
			ui, si, ci := u[i], slack[i], asg[i]
			for j := i + 1; j < n; j++ {
				if si == 0 {
					if j = nextLoose(loose, j); j >= n {
						break
					}
				}
				cj := asg[j]
				before := si + slack[j]
				x := int64(ri[cj]) - ui - v[cj]
				if x >= before {
					continue
				}
				y := int64(cost[j*n+int(ci)]) - u[j] - v[ci]
				if x+y < before {
					asg[i], asg[j] = cj, ci
					slack[i], slack[j] = x, y
					ci, si = cj, x
					mark(i)
					mark(j)
					total -= before - (x + y)
					if total <= tau {
						return total
					}
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	return total
}

// nextLoose returns the first row ≥ j whose bit is set, or math.MaxInt when
// there is none.
func nextLoose(loose []uint64, j int) int {
	w := j >> 6
	if w >= len(loose) {
		return math.MaxInt
	}
	x := loose[w] &^ (1<<(j&63) - 1)
	for x == 0 {
		if w++; w == len(loose) {
			return math.MaxInt
		}
		x = loose[w]
	}
	return w<<6 | bits.TrailingZeros64(x)
}

// RowMins stores the minimum of each row of the flat n×n matrix in rowMin
// and returns their sum: the row-reduction duals, and a lower bound on the
// optimum (every row is assigned somewhere).
func RowMins(cost []int32, n int, rowMin []int32) (rowSum int64) {
	for i := 0; i < n; i++ {
		m := minInt32(cost[i*n : (i+1)*n : (i+1)*n])
		rowMin[i] = m
		rowSum += int64(m)
	}
	return rowSum
}

// minInt32 returns the minimum of a non-empty row. Four independent
// accumulators keep the loop-carried dependency short.
func minInt32(row []int32) int32 {
	m0, m1, m2, m3 := row[0], row[0], row[0], row[0]
	j := 1
	for ; j+3 < len(row); j += 4 {
		m0 = min(m0, row[j])
		m1 = min(m1, row[j+1])
		m2 = min(m2, row[j+2])
		m3 = min(m3, row[j+3])
	}
	for ; j < len(row); j++ {
		m0 = min(m0, row[j])
	}
	return min(m0, m1, m2, m3)
}

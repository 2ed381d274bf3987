package assignment

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolverMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s := NewSolver()
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(8)
		cost := randomCost(rng, n)
		wantPerm, wantTotal := Solve(cost)
		gotPerm, gotTotal := s.Solve(cost)
		if gotTotal != wantTotal {
			t.Fatalf("trial %d: Solver total %v != Solve total %v", trial, gotTotal, wantTotal)
		}
		if len(gotPerm) != len(wantPerm) {
			t.Fatalf("trial %d: perm lengths differ", trial)
		}
	}
}

// integralCost draws an n×n matrix of integers in [0, modulus) — the star
// kernel's cost domain — as the flat row-major []int32 IntSolver takes and
// as [][]float64 rows for the float reference solve.
func integralCost(rng *rand.Rand, n, modulus int) ([]int32, [][]float64) {
	flat := make([]int32, n*n)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, n)
		for j := range rows[i] {
			c := rng.Intn(modulus)
			flat[i*n+j] = int32(c)
			rows[i][j] = float64(c)
		}
	}
	return flat, rows
}

// intOptimum is the float solver's optimum of an integral matrix as an int64.
func intOptimum(rows [][]float64) int64 {
	_, opt := Solve(rows)
	return int64(opt)
}

// upperBound is the cascade's greedy tier in one call: the greedy build with
// the row minima, then — unless the row bound already exceeds tau or the
// greedy total is ≤ tau — the reduction and the polish. The polish runs even
// where the reduced bound would let the cascade skip it, so that its every
// outcome is checked.
func upperBound(s *IntSolver, cost []int32, n int, tau int64, rowMin []int32) (ub, rowSum int64) {
	greedy, rowSum := s.GreedyWithMins(cost, n, rowMin)
	if rowSum > tau || greedy <= tau {
		return greedy, rowSum
	}
	s.Reduce(cost, n, rowMin)
	return s.PolishAtMost(cost, n, tau, greedy), rowSum
}

// greedyTotal is the complete greedy assignment's cost.
func greedyTotal(s *IntSolver, cost []int32, n int, rowMin []int32) int64 {
	greedy, _ := s.GreedyWithMins(cost, n, rowMin)
	return greedy
}

// greedyRef is the plain greedy assignment over float rows: each row in turn
// takes its cheapest unused column, ties to the lowest index.
func greedyRef(cost [][]float64) (asg []int, total float64) {
	n := len(cost)
	asg = make([]int, n)
	used := make([]bool, n)
	for i := 0; i < n; i++ {
		best, bestJ := math.MaxFloat64, -1
		for j := 0; j < n; j++ {
			if !used[j] && cost[i][j] < best {
				best, bestJ = cost[i][j], j
			}
		}
		used[bestJ] = true
		asg[i] = bestJ
		total += best
	}
	return asg, total
}

// upperBoundRef is greedy plus at most two 2-swap polish passes with the
// early exit at tau, written out over float rows: the upper bound the
// integer greedy build and polish must reproduce.
func upperBoundRef(cost [][]float64, tau float64) float64 {
	asg, total := greedyRef(cost)
	if total <= tau {
		return total
	}
	n := len(cost)
	for pass := 0; pass < 2; pass++ {
		improved := false
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				ci, cj := asg[i], asg[j]
				if after, before := cost[i][cj]+cost[j][ci], cost[i][ci]+cost[j][cj]; after < before {
					asg[i], asg[j] = cj, ci
					total -= before - after
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

// The dual early exit decides exactly the optimum's comparison with tau:
// over every row, the solve aborts iff the optimum exceeds tau, an abort
// returns a lower bound above tau, and a completed solve returns the optimum
// itself — for tau right at the optimum too.
func TestAtMostMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var s IntSolver
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		flat, rows := integralCost(r, n, 30)
		opt := intOptimum(rows)
		for _, tau := range []int64{opt - 1, opt, opt + 1, 0, opt / 2, opt * 2, -1} {
			total, aborted := s.TotalAtMostEarly(flat, n, tau, nil, n)
			if aborted != (opt > tau) {
				t.Logf("n=%d tau=%d opt=%d: aborted=%v", n, tau, opt, aborted)
				return false
			}
			if aborted && (total <= tau || total > opt) {
				t.Logf("n=%d tau=%d opt=%d: abort bound %d", n, tau, opt, total)
				return false
			}
			if !aborted && total != opt {
				t.Logf("n=%d tau=%d: completed total %d != optimum %d", n, tau, total, opt)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// With the rows taken in any order and the exit gated to a prefix of them,
// the early solve still aborts only above tau with a bound no higher than
// the optimum, and otherwise completes to the optimum itself.
func TestAtMostEarlyRowOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var s IntSolver
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(12)
		flat, rows := integralCost(rng, n, 1+rng.Intn(30))
		opt := intOptimum(rows)
		order := make([]int32, n)
		for i, r := range rng.Perm(n) {
			order[i] = int32(r)
		}
		for _, tau := range []int64{-1, 0, opt / 2, opt - 1, opt} {
			total, aborted := s.TotalAtMostEarly(flat, n, tau, order, n/2)
			if aborted && (total <= tau || total > opt) || !aborted && total != opt {
				t.Fatalf("trial %d n=%d tau=%d opt=%d: got %d, aborted %v", trial, n, tau, opt, total, aborted)
			}
		}
	}
}

func TestAtMostEmpty(t *testing.T) {
	var s IntSolver
	for _, tau := range []int64{0, -1} {
		if total, aborted := s.TotalAtMostEarly(nil, 0, tau, nil, 1); total != 0 || aborted {
			t.Errorf("TotalAtMostEarly(nil, tau=%d) = %v, %v, want 0, false", tau, total, aborted)
		}
	}
}

// The dual early exit must actually fire on a clearly-over-threshold matrix;
// otherwise the bounded path silently degrades to a full solve.
func TestAtMostAborts(t *testing.T) {
	n := 16
	cost := make([]int32, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			cost[i*n+j] = int32(10 + (i+j)%5)
		}
	}
	var s IntSolver
	total, aborted := s.TotalAtMostEarly(cost, n, 1, nil, n)
	if !aborted {
		t.Fatal("dual early exit did not fire for tau far below the optimum (≥ 160)")
	}
	if total <= 1 {
		t.Errorf("abort bound %d does not exceed tau", total)
	}
	if total, aborted := s.TotalAtMostEarly(cost, n, 1, nil, 0); aborted || total < 160 {
		t.Errorf("an empty abort window returned %d, %v; want the completed optimum", total, aborted)
	}
}

// The greedy build's total must be exactly the plain greedy assignment's cost.
func TestGreedyTotalMatchesGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var s IntSolver
	rowMin := make([]int32, 10)
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(10)
		flat, rows := integralCost(rng, n, 100)
		_, want := greedyRef(rows)
		if got := greedyTotal(&s, flat, n, rowMin); float64(got) != want {
			t.Fatalf("trial %d: greedy total %v != reference greedy %v", trial, got, want)
		}
	}
}

// The polished upper bound sandwiches between the exact optimum and the
// plain greedy total: it is a feasible assignment's cost (≥ optimum) that
// the swap polish never makes worse than greedy alone.
func TestUpperBoundSandwich(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var s IntSolver
	rowMin := make([]int32, 12)
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(12)
		flat, rows := integralCost(rng, n, 30)
		opt := intOptimum(rows)
		_, greedy := greedyRef(rows)
		for _, tau := range []int64{math.MinInt64, -1, 0, opt - 1, opt, math.MaxInt64} {
			ub, rowSum := upperBound(&s, flat, n, tau, rowMin)
			if rowSum > tau {
				continue // the row bound decides; no upper bound is built
			}
			if ub < opt {
				t.Fatalf("trial %d tau=%d: upper bound %d below optimum %d", trial, tau, ub, opt)
			}
			if float64(ub) > greedy {
				t.Fatalf("trial %d tau=%d: upper bound %d above greedy %v", trial, tau, ub, greedy)
			}
		}
	}
}

// TotalWarm's row+column-reduced warm start must be a pure speedup: whatever
// partial matching the zero-reduced-cost pre-match builds, the optimum equals
// the cold solve's and the float reference's. Tight moduli force heavy cost
// ties — the regime where the pre-match claims most rows and tie-broken
// assignments diverge from the cold solve's.
func TestTotalWarmMatchesTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var cold, warm IntSolver
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		modulus := 1 + r.Intn(30)
		flat, rows := integralCost(r, n, modulus)
		rowMin := make([]int32, n)
		for i := range rowMin {
			rowMin[i] = math.MaxInt32
			for _, c := range flat[i*n : (i+1)*n] {
				rowMin[i] = min(rowMin[i], c)
			}
		}
		want, _ := cold.TotalAtMostEarly(flat, n, math.MaxInt64, nil, n)
		if got := warm.TotalWarm(flat, n, rowMin); got != want || got != intOptimum(rows) {
			t.Logf("seed=%d n=%d mod=%d: TotalWarm %v, cold %v, float %v", seed, n, modulus, got, want, intOptimum(rows))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestTotalWarmEmpty(t *testing.T) {
	var s IntSolver
	if got := s.TotalWarm(nil, 0, nil); got != 0 {
		t.Errorf("TotalWarm(nil) = %v, want 0", got)
	}
}

// The greedy tier must agree with the plain greedy-plus-polish bound: rowMin
// holds the exact per-row minima, rowSum is the assignment-relaxed lower
// bound (≤ optimum), and whenever the row bound does not already decide, ub
// is a feasible assignment's cost (≥ optimum) equal to the plain bound at
// the same tau — the greedy's row-minimum shortcut and the polish's skipped
// pairs change nothing.
func TestUpperBoundAtMostWithMinsAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	var s IntSolver
	rowMin := make([]int32, 80)
	for trial := 0; trial < 300; trial++ {
		// Small moduli tie most cells, so most rows sit on a zero reduced
		// cost and the polish skips most pairs; every tenth matrix spans more
		// than one word of the polish's row bitmap.
		n := 1 + rng.Intn(12)
		if trial%10 == 0 {
			n = 65 + rng.Intn(15)
		}
		flat, rows := integralCost(rng, n, 1+rng.Intn(30))
		opt := intOptimum(rows)
		for _, tau := range []int64{-1, 0, opt / 2, opt - 1, opt, opt + 1, 2 * opt, math.MinInt64} {
			ub, rowSum := upperBound(&s, flat, n, tau, rowMin)
			var wantSum int64
			for i := 0; i < n; i++ {
				m := flat[i*n]
				for _, v := range flat[i*n+1 : (i+1)*n] {
					m = min(m, v)
				}
				if rowMin[i] != m {
					t.Fatalf("trial %d n=%d: rowMin[%d] = %v, want row minimum %v", trial, n, i, rowMin[i], m)
				}
				wantSum += int64(m)
			}
			if rowSum != wantSum {
				t.Fatalf("trial %d tau=%v: rowSum %v != Σ row minima %v", trial, tau, rowSum, wantSum)
			}
			if rowSum > opt {
				t.Fatalf("trial %d: rowSum %v above optimum %v — not a lower bound", trial, rowSum, opt)
			}
			if rowSum > tau {
				continue // the row bound decides; no upper bound is built
			}
			if ub < opt {
				t.Fatalf("trial %d tau=%v: ub %v below optimum %v — not a feasible assignment's cost", trial, tau, ub, opt)
			}
			if want := upperBoundRef(rows, float64(tau)); float64(ub) != want {
				t.Fatalf("trial %d tau=%v: ub %v != plain upper bound %v", trial, tau, ub, want)
			}
		}
	}
}

func TestUpperBoundAtMostWithMinsEmpty(t *testing.T) {
	var s IntSolver
	if rowSum := RowMins(nil, 0, nil); rowSum != 0 {
		t.Errorf("RowMins(nil) = %v, want 0", rowSum)
	}
	if greedy, rowSum := s.GreedyWithMins(nil, 0, nil); greedy != 0 || rowSum != 0 {
		t.Errorf("GreedyWithMins(nil) = %v, %v, want 0, 0", greedy, rowSum)
	}
}

// Solvers reused across sizes (large, then small, then large) must not leak
// state between calls.
func TestSolverReuseAcrossSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s := NewSolver()
	var is IntSolver
	for _, n := range []int{12, 3, 12, 1, 7, 12} {
		cost := randomCost(rng, n)
		_, want := Solve(cost)
		if _, got := s.Solve(cost); got != want {
			t.Fatalf("n=%d: reused Solver total %v != fresh Solve %v", n, got, want)
		}
		flat, rows := integralCost(rng, n, 30)
		if got, _ := is.TotalAtMostEarly(flat, n, math.MaxInt64, nil, n); got != intOptimum(rows) {
			t.Fatalf("n=%d: reused IntSolver total %v != fresh Solve %v", n, got, intOptimum(rows))
		}
	}
}

func TestSolverAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(37))
	const n = 24
	flat, rows := integralCost(rng, n, 100)
	s := NewSolver()
	s.Solve(rows) // warm the arenas
	if allocs := testing.AllocsPerRun(50, func() { s.Solve(rows) }); allocs != 1 {
		t.Errorf("Solver.Solve allocates %v per op after warmup, want 1 (the permutation)", allocs)
	}
	var is IntSolver
	rowMin := make([]int32, n)
	greedy, _ := is.GreedyWithMins(flat, n, rowMin) // warm the arenas
	is.Reduce(flat, n, rowMin)
	if allocs := testing.AllocsPerRun(50, func() { is.GreedyWithMins(flat, n, rowMin) }); allocs != 0 {
		t.Errorf("IntSolver.GreedyWithMins allocates %v per op after warmup, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() { is.PolishAtMost(flat, n, -1, greedy) }); allocs != 0 {
		t.Errorf("IntSolver.PolishAtMost allocates %v per op after warmup, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() { is.TotalWarm(flat, n, rowMin) }); allocs != 0 {
		t.Errorf("IntSolver.TotalWarm allocates %v per op after warmup, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() { is.TotalAtMostEarly(flat, n, 1e9, nil, n) }); allocs != 0 {
		t.Errorf("IntSolver.TotalAtMostEarly allocates %v per op after warmup, want 0", allocs)
	}
}

func BenchmarkSolverTotal32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	flat, _ := integralCost(rng, 32, 100)
	rowMin := make([]int32, 32)
	var s IntSolver
	RowMins(flat, 32, rowMin)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.TotalWarm(flat, 32, rowMin)
	}
}

func BenchmarkAtMost32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	flat, rows := integralCost(rng, 32, 100)
	var s IntSolver
	opt := intOptimum(rows)
	b.Run("prune", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.TotalAtMostEarly(flat, 32, opt/4, nil, 32)
		}
	})
	b.Run("exact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.TotalAtMostEarly(flat, 32, opt, nil, 32)
		}
	})
}

// The greedy assignment gives any set of rows distinct columns, so its cost
// over a window of rows bounds the window's optimum — the partial dual
// objective of the cold solve — from above: at that cost the early exit never
// fires. The cascade relies on this to skip the cold solve.
func TestGreedyCostBoundsWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	var s, cold IntSolver
	rowMin := make([]int32, 16)
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(14)
		flat, _ := integralCost(rng, n, 1+rng.Intn(30))
		greedy, _ := s.GreedyWithMins(flat, n, rowMin)
		if trial%2 == 0 {
			s.Reduce(flat, n, rowMin)
			s.PolishAtMost(flat, n, -1, greedy)
		}
		order := make([]int32, n)
		for i, r := range rng.Perm(n) {
			order[i] = int32(r)
		}
		for k := 1; k <= n; k++ {
			w := s.GreedyCost(flat, n, order[:k])
			if _, aborted := cold.TotalAtMostEarly(flat, n, w, order, k); aborted {
				t.Fatalf("trial %d n=%d k=%d: window aborted at its greedy cost %d", trial, n, k, w)
			}
		}
	}
}

package ged

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"graphrep/internal/dataset"
	"graphrep/internal/graph"
)

// The differential oracle: on seeded pairs from the three generator shapes,
// the integer kernel's exact Distance equals the reference (merge fill +
// float assignment.Solve), and DistanceAtMostTiers under every tier policy
// returns the reference verdict with an interval that sandwiches the
// reference distance — at thresholds on, between and around the integer
// boundaries, plus 0, −1 and +Inf.
func TestStarKernelMatchesReference(t *testing.T) {
	pairs := 2000
	if raceEnabled {
		pairs = 400 // race instrumentation slows the solve ~10×
	}
	for _, name := range []string{"dud", "dblp", "amazon"} {
		t.Run(name, func(t *testing.T) {
			db, err := dataset.ByName(name, 300, 5)
			if err != nil {
				t.Fatal(err)
			}
			sigs := make([]*StarSig, db.Len())
			for i := range sigs {
				sigs[i] = NewStarSig(db.Graph(graph.ID(i)))
			}
			rng := rand.New(rand.NewSource(9))
			for p := 0; p < pairs; p++ {
				i, j := rng.Intn(len(sigs)), rng.Intn(len(sigs))
				want := referenceDistance(db.Graph(graph.ID(i)), db.Graph(graph.ID(j)))
				a, b := sigs[i], sigs[j]
				if got := a.Distance(b); got != want {
					t.Fatalf("pair (%d,%d): Distance %v, reference %v", i, j, got, want)
				}
				emblo := a.Embedding().LowerBound(b.Embedding())
				for _, tau := range []float64{want - 1, want - 0.5, want, want + 0.5, want + 1, 0, -1, math.Inf(1)} {
					for policy := 0; policy < 4; policy++ {
						tryGreedy, tryDual := policy&1 != 0, policy&2 != 0
						dec := a.DistanceAtMostTiers(b, tau, emblo, tryGreedy, tryDual)
						if err := checkDecision(dec, want, tau, tryGreedy, tryDual); err != "" {
							t.Fatalf("pair (%d,%d) tau=%v greedy=%v dual=%v: %s (%+v, reference %v)",
								i, j, tau, tryGreedy, tryDual, err, dec, want)
						}
					}
				}
			}
		})
	}
}

// checkDecision returns what is wrong with dec as the cascade's answer for a
// pair at reference distance d, or "" when nothing is.
func checkDecision(dec Decision, d, tau float64, tryGreedy, tryDual bool) string {
	switch {
	case dec.Leq != (d <= tau):
		return "verdict differs from the reference"
	case dec.Lo > d || dec.Hi < d:
		return "interval excludes the reference distance"
	case !dec.Leq && dec.Lo <= tau:
		return "false verdict without a lower bound above tau"
	case dec.Leq && dec.Hi > tau:
		return "true verdict without an upper bound at or below tau"
	case dec.Exact() && dec.Lo != d:
		return "exact interval is not the reference distance"
	case !tryGreedy && dec.Stage == StageGreedy && !math.IsInf(tau, 1):
		// At tau = +Inf the unset upper bound (+Inf) already satisfies
		// Hi ≤ tau, so the cascade answers at the greedy stage with no greedy
		// work whatever the policy — kept as is, since stage attribution
		// must not move in this kernel.
		return "disabled greedy tier decided"
	case !tryDual && (dec.Stage == StageDual || dec.DualArmed):
		return "disabled dual tier armed"
	}
	return ""
}

// FuzzStarKernel: two random labelled graphs, integer distance == reference
// distance, in both argument orders. The seed corpus under
// testdata/fuzz/FuzzStarKernel covers empty-ish, single-label, dense and
// lopsided shapes; sizes, label alphabets and density all come from the
// input.
func FuzzStarKernel(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, n1, n2, vlabels, elabels, density uint8) {
		r := rand.New(rand.NewSource(seed))
		g1 := kernelFuzzGraph(r, int(n1)%24, 1+int(vlabels)%6, 1+int(elabels)%4, int(density)%8)
		g2 := kernelFuzzGraph(r, int(n2)%24, 1+int(vlabels)%6, 1+int(elabels)%4, int(density)%8)
		want := referenceDistance(g1, g2)
		a, b := NewStarSig(g1), NewStarSig(g2)
		if got := a.Distance(b); got != want {
			t.Fatalf("Distance %v, reference %v", got, want)
		}
		if got := b.Distance(a); got != want {
			t.Fatalf("reversed Distance %v, reference %v", got, want)
		}
		if got := StarDistance(g1, g2); got != want {
			t.Fatalf("StarDistance %v, reference %v", got, want)
		}
	})
}

// kernelFuzzGraph builds an n-vertex graph (n may be 0) with the given label
// alphabets; each vertex pair is an edge with probability density/8.
func kernelFuzzGraph(r *rand.Rand, n, vlabels, elabels, density int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddVertex(graph.Label(r.Intn(vlabels)))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Intn(8) < density {
				b.AddEdge(u, v, graph.Label(r.Intn(elabels)))
			}
		}
	}
	return b.MustBuild(0)
}

// Integer width at the bound: a degree-MaxStarDegree star costs exactly
// math.MaxInt32 against another, and a total of such cells — beyond int32 —
// stays exact in the int64 solver. The matrices are small, so the test
// drives the fill with synthetic signatures (no real graph of that degree
// fits in memory); a high-degree star graph checks the same path against the
// reference at a size that does.
func TestStarKernelDegreeBound(t *testing.T) {
	if got := 1 + 2*int64(MaxStarDegree); got != math.MaxInt32 {
		t.Fatalf("1 + 2·MaxStarDegree = %d, want math.MaxInt32", got)
	}
	// Two stars per side, every center label distinct and no spoke shared:
	// every cell is 1 + deg + deg.
	sig := func(center uint32) *StarSig {
		return &StarSig{
			deg:        []int32{MaxStarDegree, MaxStarDegree},
			centerKeys: []uint32{center, center + 1},
			centerOff:  []int32{0, 1, 2},
			centerIDs:  []int32{0, 1},
			spokeOff:   []int32{0},
		}
	}
	a, b := sig(10), sig(20)
	want := 2 * float64(math.MaxInt32)
	if got := a.Distance(b); got != want {
		t.Fatalf("Distance at the degree bound = %v, want %v", got, want)
	}
	for _, tau := range []float64{want - 1, want, want + 1, 0} {
		for policy := 0; policy < 4; policy++ {
			tryGreedy, tryDual := policy&1 != 0, policy&2 != 0
			dec := a.DistanceAtMostTiers(b, tau, 0, tryGreedy, tryDual)
			if err := checkDecision(dec, want, tau, tryGreedy, tryDual); err != "" {
				t.Fatalf("tau=%v greedy=%v dual=%v: %s (%+v)", tau, tryGreedy, tryDual, err, dec)
			}
		}
	}

	star := func(leaves int, leafLabel graph.Label) *graph.Graph {
		bld := graph.NewBuilder(leaves + 1)
		bld.AddVertex(1)
		for i := 0; i < leaves; i++ {
			bld.AddEdge(0, bld.AddVertex(leafLabel), 0)
		}
		return bld.MustBuild(0)
	}
	const leaves = 400
	g1, g2 := star(leaves, 2), star(leaves, 3)
	// Centers match and share no spoke (2·leaves); each leaf pair differs in
	// its center only (1 each).
	if got, ref := StarDistance(g1, g2), referenceDistance(g1, g2); got != 3*leaves || got != ref {
		t.Fatalf("high-degree star distance %v, reference %v, want %d", got, ref, 3*leaves)
	}
}

// A StarSig holds only its degrees, the two postings lists and the
// embedding: on dud n=1000 it retains less than the star slices plus packed
// runs it replaced (3216 B per signature, measured the same way), and
// building one costs a fixed number of allocations whatever the graph's
// order — no per-star spoke slices, no closure-sort swappers.
func TestStarSigFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	db, err := dataset.DUDLike(1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sigs := make([]*StarSig, db.Len())
	for i := range sigs {
		sigs[i] = NewStarSig(db.Graph(graph.ID(i)))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := float64(after.HeapAlloc-before.HeapAlloc) / float64(len(sigs))
	runtime.KeepAlive(sigs)
	if per > 3216 {
		t.Errorf("retained %.0f B per StarSig on dud n=1000, want ≤ 3216", per)
	}
	small := mkGraph(t, []graph.Label{1, 2, 1}, [][3]int{{0, 1, 0}, {1, 2, 1}})
	large := db.Graph(0)
	for i := 1; i < db.Len(); i++ {
		if g := db.Graph(graph.ID(i)); g.Order() > large.Order() {
			large = g
		}
	}
	smallAllocs := testing.AllocsPerRun(20, func() { NewStarSig(small) })
	largeAllocs := testing.AllocsPerRun(20, func() { NewStarSig(large) })
	if smallAllocs != largeAllocs {
		t.Errorf("NewStarSig allocations grow with the graph: %v at order %d, %v at order %d",
			smallAllocs, small.Order(), largeAllocs, large.Order())
	}
}

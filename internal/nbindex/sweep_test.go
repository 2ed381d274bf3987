package nbindex_test

import (
	"math"
	"sort"
	"testing"

	"graphrep/internal/nbindex"
)

func TestSweepThetaCurve(t *testing.T) {
	db, m := clusteredDB(t, 5, 12, 80)
	grid := []float64{2, 4, 8, 16, 64}
	set := buildSet(t, db, m, grid, 81)
	sess := newSession(t, set, func(f []float64) bool { return f[0] > 0.25 })
	points, err := sess.SweepTheta(8, 6) // grid plus one extra threshold
	if err != nil {
		t.Fatalf("SweepTheta: %v", err)
	}
	if len(points) != len(grid)+1 {
		t.Fatalf("sweep has %d points, want %d", len(points), len(grid)+1)
	}
	// Thetas ascending and unique; power monotone non-decreasing in θ
	// (greedy coverage can only grow with radius).
	for i := 1; i < len(points); i++ {
		if points[i].Theta <= points[i-1].Theta {
			t.Errorf("thetas not ascending: %v", points)
		}
		if points[i].Power < points[i-1].Power-1e-12 {
			t.Errorf("power decreased with θ: %v -> %v", points[i-1], points[i])
		}
	}
	for _, p := range points {
		if p.Power < 0 || p.Power > 1 || p.AnswerSize < 0 {
			t.Errorf("malformed point %+v", p)
		}
		if p.AnswerSize > 0 && math.Abs(p.CR) < 1e-12 && p.Power > 0 {
			t.Errorf("CR zero with positive power: %+v", p)
		}
	}
}

func TestSweepThetaErrors(t *testing.T) {
	db, m := clusteredDB(t, 2, 5, 82)
	set := buildSet(t, db, m, []float64{4}, 83)
	sess := newSession(t, set, func([]float64) bool { return true })
	if _, err := sess.SweepTheta(0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := sess.SweepTheta(3, -5); err == nil {
		t.Error("negative extra theta accepted")
	}
}

func TestSuggestTheta(t *testing.T) {
	// Synthetic curve with an obvious knee at θ=4 (power saturates there).
	points := []nbindex.ThetaPoint{
		{Theta: 1, Power: 0.1},
		{Theta: 2, Power: 0.35},
		{Theta: 4, Power: 0.8},
		{Theta: 8, Power: 0.85},
		{Theta: 16, Power: 0.9},
	}
	best, err := nbindex.SuggestTheta(points)
	if err != nil {
		t.Fatal(err)
	}
	if best.Theta != 4 {
		t.Errorf("knee at θ=%v, want 4", best.Theta)
	}
	if _, err := nbindex.SuggestTheta(nil); err == nil {
		t.Error("empty sweep accepted")
	}
	// Degenerate flat-zero curve returns the first point.
	flat := []nbindex.ThetaPoint{{Theta: 0, Power: 0}, {Theta: 1, Power: 0}}
	if got, err := nbindex.SuggestTheta(flat); err != nil || got.Theta != 0 {
		t.Errorf("flat curve: %+v, %v", got, err)
	}
}

func TestSweepMatchesIndividualQueries(t *testing.T) {
	db, m := clusteredDB(t, 4, 8, 84)
	grid := []float64{2, 8, 32}
	set := buildSet(t, db, m, grid, 85)
	rel := func(f []float64) bool { return f[0] > 0.3 }
	sess := newSession(t, set, rel)
	points, err := sess.SweepTheta(5)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(points, func(i, j int) bool { return points[i].Theta < points[j].Theta })
	for _, p := range points {
		res, err := newSession(t, set, rel).TopK(p.Theta, 5)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Power-p.Power) > 1e-12 || len(res.Answer) != p.AnswerSize {
			t.Errorf("θ=%v: sweep %+v vs fresh query π=%v |A|=%d", p.Theta, p, res.Power, len(res.Answer))
		}
	}
}

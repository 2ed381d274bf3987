package nbindex

import "fmt"

// ThetaPoint is one row of a threshold sweep: the answer quality obtained at
// one θ.
type ThetaPoint struct {
	Theta float64
	// Power is π_θ(A) for the greedy answer at this θ.
	Power float64
	// CR is the compression ratio |N_θ(A)|/|A|.
	CR float64
	// AnswerSize is |A| (may be under k when coverage saturates).
	AnswerSize int
}

// SuggestTheta picks the knee of a sweep curve: the threshold after which
// additional radius buys little additional coverage. It maximizes the
// distance between the normalized coverage curve and the diagonal — the
// standard knee heuristic. Returns the suggested point and the full curve.
func SuggestTheta(points []ThetaPoint) (ThetaPoint, error) {
	if len(points) == 0 {
		return ThetaPoint{}, fmt.Errorf("nbindex: empty sweep")
	}
	maxTheta := points[len(points)-1].Theta
	maxPower := 0.0
	for _, p := range points {
		if p.Power > maxPower {
			maxPower = p.Power
		}
	}
	if maxTheta == 0 || maxPower == 0 {
		return points[0], nil
	}
	best, bestGap := points[0], -1.0
	for _, p := range points {
		gap := p.Power/maxPower - p.Theta/maxTheta
		if gap > bestGap {
			best, bestGap = p, gap
		}
	}
	return best, nil
}

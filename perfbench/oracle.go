package main

import (
	"fmt"
	"slices"
	"sync"

	"graphrep"
	"graphrep/internal/server"
)

// answer is the part of a /query response the oracle pins.
type answer struct {
	ids               []int32
	covered, relevant int
}

func fromResult(r *graphrep.Result) answer {
	a := answer{covered: r.Covered, relevant: r.Relevant}
	for _, id := range r.Answer {
		a.ids = append(a.ids, int32(id))
	}
	return a
}

func fromResponse(r server.QueryResponse) answer {
	return answer{ids: r.Answer, covered: r.Covered, relevant: r.Relevant}
}

func (a answer) equal(b answer) bool {
	return slices.Equal(a.ids, b.ids) && a.covered == b.covered && a.relevant == b.relevant
}

func (a answer) String() string {
	return fmt.Sprintf("answer %v covered %d relevant %d", a.ids, a.covered, a.relevant)
}

// readGrid returns the index θ grid through the public sweep API: a sweep
// on a one-percent relevance spec answers one query per grid point, each
// cheap, and reports the grid thresholds.
func readGrid(db *graphrep.Database, e *graphrep.Engine) ([]float64, error) {
	spec := thresholdSpecs(db, []float64{0.01})[0]
	rel, err := relevance(spec)
	if err != nil {
		return nil, err
	}
	s, err := e.NewSession(rel)
	if err != nil {
		return nil, err
	}
	points, err := s.SweepTheta(1)
	if err != nil {
		return nil, err
	}
	grid := make([]float64, len(points))
	for i, p := range points {
		grid[i] = p.Theta
	}
	if len(grid) == 0 {
		return nil, fmt.Errorf("perfbench: empty θ grid")
	}
	return grid, nil
}

// exactAnswers computes the oracle for every query with
// TopKRepresentativeExact, the quadratic greedy that bypasses the index. It
// runs on its own engine, so the serving engines' caches stay untouched;
// the engine memoizes distances across queries of one spec, and specs run on
// two goroutines.
func exactAnswers(e *graphrep.Engine, in *inputs, qs []query) (map[query]answer, error) {
	bySpec := map[int][]query{}
	for _, q := range qs {
		bySpec[q.spec] = append(bySpec[q.spec], q)
	}
	specs := make([]int, 0, len(bySpec))
	for s := range bySpec {
		specs = append(specs, s)
	}
	slices.Sort(specs)
	var mu sync.Mutex
	out := make(map[query]answer, len(qs))
	err := parallel(len(specs), 2, func(i int) error {
		rel, err := relevance(in.specs[specs[i]])
		if err != nil {
			return err
		}
		for _, q := range bySpec[specs[i]] {
			res, err := e.TopKRepresentativeExact(graphrep.Query{Relevance: rel, Theta: in.grid[q.theta], K: q.k})
			if err != nil {
				return err
			}
			mu.Lock()
			out[q] = fromResult(res)
			mu.Unlock()
		}
		return nil
	})
	return out, err
}

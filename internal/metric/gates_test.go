package metric

import (
	"testing"

	"graphrep/internal/ged"
	"graphrep/internal/graph"
)

// pairDB assembles a two-graph database from searched graphs carrying
// placeholder IDs, re-built at positions 0 and 1.
func pairDB(t *testing.T, a, b *graph.Graph) *graph.Database {
	t.Helper()
	graphs := make([]*graph.Graph, 0, 2)
	for i, g := range []*graph.Graph{a, b} {
		gg, err := g.Clone(graph.ID(i)).Build(graph.ID(i))
		if err != nil {
			t.Fatalf("re-ID graph %d: %v", i, err)
		}
		graphs = append(graphs, gg)
	}
	db, err := graph.NewDatabase(graphs)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// The greedy tier runs on every decision that gets past the lower-bound
// tiers, however rarely it lands: a pair that always decides at the exact
// stage, driven well past 4,096 decisions, still runs greedy on each one and
// never flips its verdict.
func TestGreedyTierRunsOnEveryDecision(t *testing.T) {
	const decisions = 4096 + 256
	a, b, tau := findStagePair(t, ged.StageExact)
	star := Star(pairDB(t, a, b))
	want := within(star, 0, 1, tau)
	for i := 1; i < decisions; i++ {
		if got := within(star, 0, 1, tau); got != want {
			t.Fatalf("verdict flipped at decision %d: %v -> %v", i, want, got)
		}
	}
	s := star.PruneStats()
	if s.Greedy != 0 {
		t.Fatalf("fixture landed %d greedy successes, want 0 (%+v)", s.Greedy, s)
	}
	if s.GreedyTried != s.Greedy+s.BoundedExact || s.GreedyTried != decisions {
		t.Errorf("greedy ran on %d decisions (%d greedy + %d exact), want all %d",
			s.GreedyTried, s.Greedy, s.BoundedExact, int64(decisions))
	}
}

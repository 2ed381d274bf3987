package main

import (
	"encoding/json"
	"os"
	"testing"

	"graphrep"
)

// unusedSeed was never run while the workloads were tuned; the shape tests
// use it to show the workloads do not depend on the tuning seeds.
const unusedSeed = 9001

// TestBenchmarkJSONMatchesTables checks that BENCHMARK.json names exactly
// the workloads, end-to-end metrics and per-layer metrics this program
// reports, with the same units and directions.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(spec.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(e2eMetrics))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != e2eMetrics[i].name || m.Unit != e2eMetrics[i].unit || m.Better != e2eMetrics[i].better {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, program %+v", i, m, e2eMetrics[i])
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		want := layerMetrics[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, program %s %s %s", i, m, want.name, want.unit, want.better)
		}
	}
}

// TestUnusedSeedShape runs every workload briefly on a seed unused while
// tuning and checks the shape the workload was chosen for: the op mix, the
// integrity guards (zero warm solves, empty caches at every cold op) and
// answers that pass the oracle.
func TestUnusedSeedShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	out := t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			b, res, err := runBench(w, unusedSeed, 2, false, out, readEnvironment(unusedSeed))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || len(b.rec.breaches) != 0 {
				t.Fatalf("correct=%v failed=%d failures=%v breaches=%v", res.Correct, res.Failed, b.rec.failures, b.rec.breaches)
			}
			if got, want := len(b.in.specs), len(w.specFracs); got != want {
				t.Errorf("%d specs, want %d", got, want)
			}
			for i, spec := range b.in.specs {
				rel, err := relevance(spec)
				if err != nil {
					t.Fatal(err)
				}
				n := 0
				for id := 0; id < corpusN; id++ {
					if rel(b.in.corpus.Features(graphrep.ID(id))) {
						n++
					}
				}
				if want := int(w.specFracs[i]*corpusN + 0.5); n != want {
					t.Errorf("spec %d selects %d graphs, want %d", i, n, want)
				}
			}
			if len(b.in.grid) < 5 {
				t.Errorf("θ grid %v has fewer than 5 points", b.in.grid)
			}
			if got, want := len(b.all), len(b.in.specs)*len(b.in.grid)*len(kValues); got != want {
				t.Errorf("%d combos, want %d", got, want)
			}
			if len(b.rec.queryMs) == 0 || len(b.rec.insertMs) == 0 {
				t.Errorf("%d queries and %d inserts timed; want both", len(b.rec.queryMs), len(b.rec.insertMs))
			}
			if !w.writer && len(b.rec.insertMs) != w.epilogueInserts {
				t.Errorf("%d epilogue inserts, want %d", len(b.rec.insertMs), w.epilogueInserts)
			}
			for _, m := range e2eMetrics {
				if v := res.Metrics[m.name].Value; v <= 0 {
					t.Errorf("%s = %v, want > 0", m.name, v)
				}
			}
		})
	}
}

// TestColdExploreCountsRepeat runs the traced cold-explore replay twice on
// one seed: every count marked exact (the exact-gate candidates) must
// repeat bit for bit.
func TestColdExploreCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two traced replays")
	}
	w, _ := findWorkload("cold-explore")
	var runs [2]result
	for i := range runs {
		_, res, err := runBench(w, unusedSeed, 1, true, t.TempDir(), readEnvironment(unusedSeed))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("run %d not correct", i)
		}
		runs[i] = res
	}
	for _, m := range layerMetrics {
		if !m.exact {
			continue
		}
		a, b := runs[0].Metrics[m.name].Value, runs[1].Metrics[m.name].Value
		if a != b {
			t.Errorf("%s: %v then %v", m.name, a, b)
		}
	}
}

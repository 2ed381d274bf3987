package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"graphrep"
	"graphrep/internal/server"
)

// corpusN and corpusSeed fix every workload's corpus: the dud generator at
// the ROADMAP's profiling size and seed. The corpus is the benchmark's fixed
// dataset; the run seed drives the traffic sent to it (the op sequences and
// the sample of held-out graphs inserted). Corpora drawn from different generator seeds
// differ in family structure enough to move query cost by a third between
// seeds, which would swamp any bound.
const (
	corpusN    = 1000
	corpusSeed = 1
)

// heldOutPool graphs from the corpus generator under heldOutSeed are the
// insert pool; a run inserts a seeded random sample of it. Sampling across
// the pool's ~200 families keeps each run's inserts alike in shape, where a
// whole generated set per seed moved insert-mix latency by a quarter.
const (
	heldOutPool = 4000
	heldOutSeed = corpusSeed + 1_000_003
)

// kValues are the answer sizes every query mix draws from.
var kValues = []int{5, 10, 20}

// inputs are everything a run derives from its seed before it measures.
type inputs struct {
	corpusPath string
	corpus     *graphrep.Database // the generated corpus, on the heap
	grid       []float64          // the index θ grid, read through a sweep
	specs      []server.RelevanceSpec
	heldOut    []server.InsertRequest
}

// query is one /query a client sends: indices into inputs.specs and
// inputs.grid, plus k.
type query struct {
	spec, theta, k int
}

func (q query) request(in *inputs) server.QueryRequest {
	return server.QueryRequest{Relevance: in.specs[q.spec], Theta: in.grid[q.theta], K: q.k}
}

// genCorpus generates the dud corpus and saves it as a GRDB001 file.
func genCorpus(dir string) (*inputs, error) {
	db, err := graphrep.GenerateDataset("dud", corpusN, corpusSeed)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := graphrep.SaveDatabase(&buf, db); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "corpus.grdb")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return &inputs{corpusPath: path, corpus: db}, nil
}

// specDims are the feature-dimension pairs the relevance specs score, in
// order: spec i scores the mean of specDims[i]. They are fixed, like the
// corpus: which generator families a spec selects sets its query cost, and
// seeded dimensions moved cold-explore's median by a third between seeds.
var specDims = [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}, {0, 5}, {1, 6}, {2, 7}, {3, 8}, {4, 9}}

// thresholdSpecs returns one "threshold" relevance spec per fraction, spec i
// over specDims[i], with τ set so that the spec selects round(frac·n) graphs
// of the corpus.
func thresholdSpecs(db *graphrep.Database, fracs []float64) []server.RelevanceSpec {
	specs := make([]server.RelevanceSpec, 0, len(fracs))
	for i, frac := range fracs {
		dims := specDims[i%len(specDims)]
		score := graphrep.DimensionScore(dims)
		scores := make([]float64, db.Len())
		for i := range scores {
			scores[i] = score(db.Features(graphrep.ID(i)))
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
		want := int(frac*float64(db.Len()) + 0.5)
		if want < 1 {
			want = 1
		}
		specs = append(specs, server.RelevanceSpec{Kind: "threshold", Dims: dims, Tau: scores[want-1]})
	}
	return specs
}

// relevance compiles a spec the way internal/server does for the kinds the
// benchmark sends, so the oracle filters exactly the graphs the server does.
func relevance(spec server.RelevanceSpec) (graphrep.Relevance, error) {
	if spec.Kind != "threshold" {
		return nil, fmt.Errorf("perfbench: unsupported relevance kind %q", spec.Kind)
	}
	score := graphrep.DimensionScore(spec.Dims)
	tau := spec.Tau
	return func(f []float64) bool { return score(f) >= tau }, nil
}

// heldOutGraphs returns m insert payloads: a sample of the held-out pool in
// an order drawn from seed.
func heldOutGraphs(seed int64, m int) ([]server.InsertRequest, error) {
	if m > heldOutPool {
		return nil, fmt.Errorf("perfbench: %d inserts exceed the held-out pool of %d", m, heldOutPool)
	}
	db, err := graphrep.GenerateDataset("dud", heldOutPool, heldOutSeed)
	if err != nil {
		return nil, err
	}
	reqs := make([]server.InsertRequest, m)
	for i, id := range rand.New(rand.NewSource(seed)).Perm(heldOutPool)[:m] {
		g := db.Graph(graphrep.ID(id))
		req := server.InsertRequest{Features: append([]float64(nil), g.Features()...)}
		for _, l := range g.VertexLabels() {
			req.Labels = append(req.Labels, uint32(l))
		}
		for _, e := range g.Edges() {
			req.Edges = append(req.Edges, [3]int{e.U, e.V, int(e.Label)})
		}
		reqs[i] = req
	}
	return reqs, nil
}

// buildGraph turns an insert payload into the graph the server builds from
// it, for the direct (twin) insert path of the traced run.
func buildGraph(req server.InsertRequest, id graphrep.ID) (*graphrep.Graph, error) {
	b := graphrep.NewBuilder(len(req.Labels))
	for _, l := range req.Labels {
		b.AddVertex(graphrep.Label(l))
	}
	for _, e := range req.Edges {
		b.AddEdge(e[0], e[1], graphrep.Label(e[2]))
	}
	b.SetFeatures(req.Features)
	return b.Build(id)
}

// combos lists every (spec, θ, k) query over the given specs and the grid.
func combos(nspecs, ngrid int) []query {
	var out []query
	for s := 0; s < nspecs; s++ {
		for t := 0; t < ngrid; t++ {
			for _, k := range kValues {
				out = append(out, query{spec: s, theta: t, k: k})
			}
		}
	}
	return out
}

// opSequence is a client's endless query sequence. Each cycle covers every
// combo once, in a seeded order stratified so that any prefix is balanced:
// the ops interleave the specs round-robin (in a fresh seeded spec order
// each round), and each spec walks a fresh seeded permutation of the θ grid
// per k, so a prefix of len(specs)·len(grid) ops puts every spec at every
// grid point close to once.
type opSequence struct {
	nspecs, ngrid int
	rng           *rand.Rand
	buf           []query
}

func newOpSequence(nspecs, ngrid int, seed int64) *opSequence {
	return &opSequence{nspecs: nspecs, ngrid: ngrid, rng: rand.New(rand.NewSource(seed))}
}

func (s *opSequence) next() query {
	if len(s.buf) == 0 {
		s.buf = s.cycle()
	}
	q := s.buf[0]
	s.buf = s.buf[1:]
	return q
}

func (s *opSequence) cycle() []query {
	perSpec := make([][]query, s.nspecs)
	for sp := range perSpec {
		shift := s.rng.Intn(len(kValues))
		for round := range kValues {
			for _, theta := range s.rng.Perm(s.ngrid) {
				k := kValues[(round+theta+shift)%len(kValues)]
				perSpec[sp] = append(perSpec[sp], query{spec: sp, theta: theta, k: k})
			}
		}
	}
	var out []query
	for i := 0; i < len(kValues)*s.ngrid; i++ {
		for _, sp := range s.rng.Perm(s.nspecs) {
			out = append(out, perSpec[sp][i])
		}
	}
	return out
}

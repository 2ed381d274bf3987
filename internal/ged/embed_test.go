package ged

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"graphrep/internal/graph"
)

// The embedding tier's admissibility property: LowerBound never exceeds the
// exact star distance, is symmetric, and is zero on identical graphs. This is
// the invariant that lets the cascade prune on it without ever changing a
// Within verdict.
func TestEmbeddingLowerBoundAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g1, g2 := randGraph(r, 12), randGraph(r, 12)
		e1, e2 := NewEmbedding(g1), NewEmbedding(g2)
		d := StarDistance(g1, g2)
		lb := e1.LowerBound(e2)
		if lb > d {
			t.Logf("seed=%d: LowerBound %v > distance %v", seed, lb, d)
			return false
		}
		if back := e2.LowerBound(e1); back != lb {
			t.Logf("seed=%d: asymmetric bound %v vs %v", seed, lb, back)
			return false
		}
		if self := e1.LowerBound(e1); self != 0 {
			t.Logf("seed=%d: self bound %v != 0", seed, self)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// The embedding bound must subsume the two cascade tiers it retired: on every
// pair it is at least the size/padding bound and at least the center-label
// histogram bound, both re-derived here directly from the star decompositions
// (not from the Embedding internals). This is the justification for removing
// the standalone tiers — proven dead on the reference workload — without
// loosening the cascade.
func TestEmbeddingSubsumesRetiredTiers(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for i := 0; i < 500; i++ {
		g1, g2 := randGraph(rng, 12), randGraph(rng, 12)
		lb := NewEmbedding(g1).LowerBound(NewEmbedding(g2))

		s1, s2 := g1.Stars(), g2.Stars()
		// Size/padding bound: |n1-n2| padding stars each pay 1+degree against
		// a distinct star of the larger graph; the cheapest total is the sum
		// of the smallest padding costs.
		big := s1
		if len(s2) > len(s1) {
			big = s2
		}
		diff := len(s1) - len(s2)
		if diff < 0 {
			diff = -diff
		}
		pads := make([]int, len(big))
		for j := range big {
			pads[j] = 1 + big[j].Degree()
		}
		for a := 0; a < len(pads); a++ { // selection sort: tiny n
			for b := a + 1; b < len(pads); b++ {
				if pads[b] < pads[a] {
					pads[a], pads[b] = pads[b], pads[a]
				}
			}
		}
		sizeLB := 0
		for j := 0; j < diff; j++ {
			sizeLB += pads[j]
		}
		if lb < float64(sizeLB) {
			t.Fatalf("pair %d: embedding bound %v below size bound %d", i, lb, sizeLB)
		}
		// Center-label histogram bound: at most Σ min(cnt1, cnt2) matched
		// pairs agree on their center, every other pair pays ≥ 1.
		h1 := map[graph.Label]int{}
		for _, s := range s1 {
			h1[s.Center]++
		}
		common := 0
		for _, s := range s2 {
			if h1[s.Center] > 0 {
				h1[s.Center]--
				common++
			}
		}
		n := len(s1)
		if len(s2) > n {
			n = len(s2)
		}
		if histLB := n - common; lb < float64(histLB) {
			t.Fatalf("pair %d: embedding bound %v below histogram bound %d", i, lb, histLB)
		}
	}
}

// Embeddings persist as the records of a Table, so the codec must
// round-trip exactly: a table decodes every record (At) to an embedding that
// re-encodes to the same bytes and proves the same bounds. Byte-stability is
// what keeps index files identical across save/load/save cycles.
func TestEmbeddingEncodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	embs := make([]*Embedding, 200)
	for i := range embs {
		embs[i] = NewEmbedding(randGraph(rng, 14))
	}
	built, err := NewTableFromEmbeddings(embs)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := NewTable(built.Offsets(), built.Blob())
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != len(embs) {
		t.Fatalf("table has %d records, want %d", tab.Len(), len(embs))
	}
	for i, e := range embs {
		dec := tab.At(i)
		var again bytes.Buffer
		if err := dec.Encode(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), tab.Record(i)) {
			t.Fatalf("graph %d: re-encoded bytes differ", i)
		}
		if dec.Stars() != e.Stars() || dec.Dims() != e.Dims() || tab.Stars(i) != e.Stars() {
			t.Fatalf("graph %d: decoded shape differs", i)
		}
		o := NewEmbedding(randGraph(rng, 14))
		if got, want := dec.LowerBound(o), e.LowerBound(o); got != want {
			t.Fatalf("graph %d: decoded bound %v != original %v", i, got, want)
		}
	}
}

// A Table must reject corrupt records at validation instead of allocating
// absurd buffers or mis-framing the blob when At decodes them.
func TestDecodeEmbeddingRejectsCorrupt(t *testing.T) {
	e := NewEmbedding(mkGraph(t, []graph.Label{1, 2}, [][3]int{{0, 1, 0}}))
	var buf bytes.Buffer
	if err := e.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	for _, tc := range []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)-3] }},
		{"empty", func(b []byte) []byte { return nil }},
		{"absurd star count", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0], c[1], c[2], c[3] = 0xff, 0xff, 0xff, 0x7f
			return c
		}},
		{"centers exceed stars", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[4], c[5] = 0xff, 0x00 // nc = 255 > n = 2
			return c
		}},
	} {
		rec := tc.mutate(blob)
		// One record spanning the whole blob, so the frame checks pass and
		// only the record validation can reject it.
		if _, err := NewTable([]uint32{0, uint32(len(rec))}, rec); err == nil {
			t.Errorf("%s: table accepted a corrupt record", tc.name)
		}
	}
}

// FuzzWithinMatchesDistance fuzzes the bounded kernel's core contract on
// arbitrary graph pairs: at every adversarial threshold — the exact distance,
// the ±1 integer boundaries, and fractional offsets — DistanceAtMost must
// agree with the exact distance comparison, and the embedding bound must stay
// admissible. The corpus drives both graph shapes from raw bytes, so the
// fuzzer explores degenerate shapes (empty, single-vertex, dense) that the
// random-pair property tests sample only rarely.
func FuzzWithinMatchesDistance(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(7))
	f.Add(int64(42), uint8(1), uint8(1))
	f.Add(int64(-9), uint8(0), uint8(12))
	f.Add(int64(1<<40), uint8(13), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, n1, n2 uint8) {
		r := rand.New(rand.NewSource(seed))
		a := NewStarSig(fuzzGraph(r, int(n1)%14))
		b := NewStarSig(fuzzGraph(r, int(n2)%14))
		d := a.Distance(b)
		if lb := a.Embedding().LowerBound(b.Embedding()); lb > d {
			t.Fatalf("embedding bound %v > distance %v", lb, d)
		}
		for _, tau := range []float64{d, d - 1, d + 1, d - 0.5, d + 0.5, 0, -1, d / 3, 2 * d} {
			dec := a.DistanceAtMost(b, tau)
			if dec.Leq != (d <= tau) {
				t.Fatalf("tau=%v d=%v: Leq=%v stage=%v", tau, d, dec.Leq, dec.Stage)
			}
			if dec.Lo > d || dec.Hi < d {
				t.Fatalf("tau=%v d=%v: proven interval [%v,%v] excludes the distance", tau, d, dec.Lo, dec.Hi)
			}
		}
	})
}

// fuzzGraph derives a graph of up to maxN vertices from the fuzzed RNG; zero
// vertices are bumped to one (the builder requires a vertex) except when
// maxN is 0, which exercises the empty-graph path via a single vertex too.
func fuzzGraph(r *rand.Rand, maxN int) *graph.Graph {
	n := maxN
	if n < 1 {
		n = 1
	}
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddVertex(graph.Label(r.Intn(3)))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Intn(3) == 0 {
				b.AddEdge(u, v, graph.Label(r.Intn(2)))
			}
		}
	}
	g, err := b.Build(0)
	if err != nil {
		panic(err)
	}
	return g
}

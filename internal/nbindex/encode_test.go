package nbindex_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"graphrep/internal/graph"
	"graphrep/internal/metric"
	"graphrep/internal/nbindex"
	"graphrep/internal/shard"
)

// reloadV1 round-trips set's one part through the single-index (v1) Encode
// and Read, returning the reloaded part and the set the v1 stream reloads
// as, whose sessions answer through the reloaded part.
func reloadV1(t *testing.T, set *shard.Set, db *graph.Database, m metric.Metric) (*nbindex.Index, *shard.Set) {
	t.Helper()
	var buf bytes.Buffer
	if err := set.Part(0).Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	ix, err := nbindex.Read(bytes.NewReader(buf.Bytes()), db, m)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	loaded, err := shard.Read(bytes.NewReader(buf.Bytes()), db, m)
	if err != nil {
		t.Fatalf("shard.Read: %v", err)
	}
	return ix, loaded
}

func TestIndexEncodeRoundTrip(t *testing.T) {
	db, m := clusteredDB(t, 4, 10, 50)
	grid := []float64{2, 4, 8, 16, 64}
	set := buildSet(t, db, m, grid, 51)
	got, loaded := reloadV1(t, set, db, m)
	if !reflect.DeepEqual(got.Grid(), set.Part(0).Grid()) {
		t.Errorf("grid differs: %v vs %v", got.Grid(), set.Part(0).Grid())
	}
	// Queries through the reloaded index must match the original exactly.
	relevance := func(f []float64) bool { return f[0] > 0.3 }
	for _, theta := range []float64{3, 6.5, 20} {
		want, err := newSession(t, set, relevance).TopK(theta, 6)
		if err != nil {
			t.Fatal(err)
		}
		have, err := newSession(t, loaded, relevance).TopK(theta, 6)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Answer, have.Answer) || want.Power != have.Power {
			t.Fatalf("θ=%v: reloaded index answers differently: %v vs %v", theta, have.Answer, want.Answer)
		}
	}
}

func TestIndexReadRejectsCorruptInput(t *testing.T) {
	db, m := clusteredDB(t, 2, 6, 52)
	ix := buildIndex(t, db, m, []float64{4}, 53)
	var buf bytes.Buffer
	if err := ix.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte("XXXXXXXX"), full[8:]...),
		"truncated":   full[:len(full)/2],
		"header only": full[:16],
	}
	for name, data := range cases {
		if _, err := nbindex.Read(bytes.NewReader(data), db, m); err == nil {
			t.Errorf("%s: Read succeeded", name)
		}
	}

	// Mismatched database size.
	other, om := clusteredDB(t, 2, 3, 54)
	if _, err := nbindex.Read(bytes.NewReader(full), other, om); err == nil {
		t.Error("Read accepted index for a different database size")
	}
}

// Randomized cross-check: for many random clustered databases, serialized
// and live indexes answer identically at a random θ.
func TestEncodeRoundTripRandomized(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(60 + seed))
		db, m := clusteredDB(t, 2+rng.Intn(4), 4+rng.Intn(8), 61+seed)
		set := buildSet(t, db, m, []float64{2, 8, 32}, 62+seed)
		_, loaded := reloadV1(t, set, db, m)
		theta := rng.Float64() * 20
		all := func([]float64) bool { return true }
		a, err := newSession(t, set, all).TopK(theta, 5)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newSession(t, loaded, all).TopK(theta, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Answer, b.Answer) {
			t.Fatalf("seed %d: answers differ: %v vs %v", seed, a.Answer, b.Answer)
		}
	}
}

// BenchmarkTopK measures session initialization plus one query.
func BenchmarkTopK(b *testing.B) {
	db, m := clusteredDB(nil, 8, 20, 70)
	set := buildSet(nil, db, m, []float64{2, 4, 8, 16, 64}, 71)
	rel := func(f []float64) bool { return f[0] > 0.25 }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := newSession(b, set, rel).TopK(4, 10); err != nil {
			b.Fatal(err)
		}
	}
}

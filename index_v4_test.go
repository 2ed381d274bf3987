package graphrep_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"graphrep"
)

// The v4 (zero-copy mmap) persistence contract, as tests:
//
//   - a v4 index opened from a mapped file answers byte-identically —
//     answers and sweep curves — to the engine that built it, and re-saves
//     to the bytes on disk, for every shard count × worker count
//     combination (the mapped engine's QueryStats equal a heap-form set's
//     in internal/shard's TestMappedStatsEqualHeap);
//   - one shared mapping serves any number of concurrent query goroutines
//     (the -race build is the real assertion);
//   - DisableMmap (and platforms without mmap) read the file instead, with
//     identical results;
//   - the committed v4 golden blob loads, answers identically to a fresh
//     build, and re-saves to the same bytes a fresh engine writes;
//   - the gob generations before v4 fail with an error naming the format.

// saveV4 persists engine's index to a file under dir and returns its path.
func saveV4(t *testing.T, engine *graphrep.Engine, dir string, tag string) string {
	t.Helper()
	path := filepath.Join(dir, tag+".nbx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.SaveIndex(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestV4MmapEqualsBuilt is the acceptance matrix of the mapped read path:
// the index opened from a v4 memory mapping must produce byte-identical
// answers and sweep curves to the engine that built it, and re-save to the
// exact bytes it was opened from, for shard counts 1, 2, 4 and session
// workers 1 and GOMAXPROCS.
func TestV4MmapEqualsBuilt(t *testing.T) {
	db, err := graphrep.GenerateDataset("dud", 150, 5)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, shards := range []int{1, 2, 4} {
		engine, err := graphrep.Open(db, graphrep.Options{Seed: 5, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		v4path := saveV4(t, engine, dir, fmt.Sprintf("s%d", shards))
		wantAnswers, _, wantPoints := collectAnswers(t, engine, 5)
		disk, err := os.ReadFile(v4path)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			fromV4, err := graphrep.OpenWithIndexFile(db, v4path, graphrep.Options{Workers: workers})
			if err != nil {
				t.Fatalf("shards=%d workers=%d: v4 open: %v", shards, workers, err)
			}
			if fromV4.Shards() != shards {
				t.Fatalf("v4-mmapped engine has %d shards, want %d", fromV4.Shards(), shards)
			}
			answers, _, points := collectAnswers(t, fromV4, 5)
			if !reflect.DeepEqual(answers, wantAnswers) {
				t.Errorf("shards=%d workers=%d: v4-mmapped answers differ from the built engine:\n got %+v\nwant %+v",
					shards, workers, answers, wantAnswers)
			}
			if !reflect.DeepEqual(points, wantPoints) {
				t.Errorf("shards=%d workers=%d: v4-mmapped sweep curve differs from the built engine", shards, workers)
			}
			// A v4-mmapped engine re-saves to the exact bytes on disk.
			var again bytes.Buffer
			if err := fromV4.SaveIndex(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), disk) {
				t.Errorf("shards=%d workers=%d: v4-mmapped re-save differs from the file it was opened from",
					shards, workers)
			}
			if err := fromV4.Close(); err != nil {
				t.Errorf("shards=%d workers=%d: close: %v", shards, workers, err)
			}
		}
	}
}

// TestV4ConcurrentQueriesSharedMapping runs many query goroutines — separate
// sessions and a shared session — against one mapped index. Under -race this
// is the data-race acceptance test for the zero-copy read path, including
// the lazily-decoded embedding table.
func TestV4ConcurrentQueriesSharedMapping(t *testing.T) {
	db, err := graphrep.GenerateDataset("dud", 120, 7)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := graphrep.Open(db, graphrep.Options{Seed: 7, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	v4path := saveV4(t, engine, dir, "conc")
	wantAnswers, _, wantPoints := collectAnswers(t, engine, 5)

	mapped, err := graphrep.OpenWithIndexFile(db, v4path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	rel := graphrep.FirstQuartileRelevance(db, nil)
	shared, err := mapped.NewSession(rel)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := shared
			if g%2 == 0 {
				var err error
				if sess, err = mapped.NewSession(rel); err != nil {
					errs <- err
					return
				}
			}
			for i, theta := range equalityThetas {
				res, err := sess.TopK(theta, 5)
				if err != nil {
					errs <- err
					return
				}
				got := answer{Answer: res.Answer, Gains: res.Gains,
					Covered: res.Covered, Relevant: res.Relevant, Power: res.Power}
				if !reflect.DeepEqual(got, wantAnswers[i]) {
					errs <- fmt.Errorf("goroutine %d theta=%v: answer differs from built engine", g, theta)
					return
				}
			}
			points, err := sess.SweepTheta(5)
			if err != nil {
				errs <- err
				return
			}
			if !reflect.DeepEqual(points, wantPoints) {
				errs <- fmt.Errorf("goroutine %d: sweep curve differs from built engine", g)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestOpenWithIndexFileDisableMmap checks the read fallback: with mapping
// disabled the same file produces identical answers, and Close stays safe
// (idempotent, and a no-op for heap-backed engines).
func TestOpenWithIndexFileDisableMmap(t *testing.T) {
	db, err := graphrep.GenerateDataset("dud", 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := graphrep.Open(db, graphrep.Options{Seed: 3, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	v4path := saveV4(t, engine, dir, "fallback")
	// Baseline: the mapped open. (Not the builder — its warm distance cache
	// legitimately shifts the pruned/exact stats split.)
	mapped, err := graphrep.OpenWithIndexFile(db, v4path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	wantAnswers, wantStats, _ := collectAnswers(t, mapped, 4)

	noMmap, err := graphrep.OpenWithIndexFile(db, v4path, graphrep.Options{DisableMmap: true})
	if err != nil {
		t.Fatal(err)
	}
	answers, stats, _ := collectAnswers(t, noMmap, 4)
	if !reflect.DeepEqual(answers, wantAnswers) || !reflect.DeepEqual(stats, wantStats) {
		t.Error("DisableMmap engine answers or stats differ from the mapped engine")
	}
	if err := noMmap.Close(); err != nil {
		t.Fatal(err)
	}
	if err := noMmap.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestIndexCompatMatrix loads the committed v4 golden blob — written over
// the dud-120 seed-7 database with two shards — and checks the compatibility
// contract: it loads with its shard layout, answers exactly like a fresh
// build, and re-saves to the same bytes a fresh 2-shard engine writes.
func TestIndexCompatMatrix(t *testing.T) {
	db, err := graphrep.GenerateDataset("dud", 120, 7)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := graphrep.Open(db, graphrep.Options{Seed: 7, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var freshSave bytes.Buffer
	if err := fresh.SaveIndex(&freshSave); err != nil {
		t.Fatal(err)
	}
	wantAnswers, _, wantPoints := collectAnswers(t, fresh, 5)
	for _, tc := range []struct {
		file   string
		shards int
	}{
		{"index_v4_dud120_seed7.nbx", 2},
	} {
		blob, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := graphrep.OpenWithIndex(db, bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("%s no longer loads: %v", tc.file, err)
		}
		if loaded.Shards() != tc.shards {
			t.Fatalf("%s loaded as %d shards, want %d", tc.file, loaded.Shards(), tc.shards)
		}
		answers, _, points := collectAnswers(t, loaded, 5)
		if !reflect.DeepEqual(answers, wantAnswers) {
			t.Errorf("%s answers differ from a fresh build:\n got %+v\nwant %+v", tc.file, answers, wantAnswers)
		}
		if !reflect.DeepEqual(points, wantPoints) {
			t.Errorf("%s sweep curve differs from a fresh build", tc.file)
		}
		var resave bytes.Buffer
		if err := loaded.SaveIndex(&resave); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resave.Bytes(), freshSave.Bytes()) {
			t.Errorf("%s re-saved bytes differ from a fresh %d-shard v4 save", tc.file, tc.shards)
		}
	}
}

// TestLegacyIndexNamedError checks that index files of the gob generations
// (NBIDX001–003) fail through both open paths with an error naming the
// format as no longer read, not as a generic bad magic. The bytes follow the
// v3 layout's opening fields: magic, grid length, grid, shard count.
func TestLegacyIndexNamedError(t *testing.T) {
	db, err := graphrep.GenerateDataset("dud", 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, magic := range []string{"NBIDX001", "NBIDX002", "NBIDX003"} {
		blob := legacyIndexBytes(magic)
		path := filepath.Join(dir, magic+".nbx")
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		_, streamErr := graphrep.OpenWithIndex(db, bytes.NewReader(blob))
		_, fileErr := graphrep.OpenWithIndexFile(db, path)
		for _, err := range []error{streamErr, fileErr} {
			if err == nil || !strings.Contains(err.Error(), magic) || !strings.Contains(err.Error(), "no longer read") {
				t.Errorf("%s: open error %v, want one naming the format as no longer read", magic, err)
			}
		}
	}
}

// legacyIndexBytes returns the opening fields of a gob-generation index file
// with the given magic: a one-entry θ grid and a one-shard count.
func legacyIndexBytes(magic string) []byte {
	var b bytes.Buffer
	b.WriteString(magic)
	binary.Write(&b, binary.LittleEndian, int64(1))
	binary.Write(&b, binary.LittleEndian, float64(4))
	binary.Write(&b, binary.LittleEndian, int64(1))
	return b.Bytes()
}

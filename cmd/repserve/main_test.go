package main

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"graphrep"
	"graphrep/internal/container"
)

// TestOpenEngineRebuildsLegacyIndex points repserve at an index file of the
// v3 gob generation, which is no longer read: openEngine must rebuild the
// index and replace the file with a current one that later starts load.
func TestOpenEngineRebuildsLegacyIndex(t *testing.T) {
	db, err := graphrep.GenerateDataset("dud", 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The opening fields of a v3 file: magic, grid length, grid, shard count.
	var v3 bytes.Buffer
	v3.WriteString("NBIDX003")
	binary.Write(&v3, binary.LittleEndian, int64(1))
	binary.Write(&v3, binary.LittleEndian, float64(4))
	binary.Write(&v3, binary.LittleEndian, int64(1))
	dir := t.TempDir()
	path := filepath.Join(dir, "index.nbx")
	if err := os.WriteFile(path, v3.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	engine, err := openEngine(db, path, 1, 1, 2)
	if err != nil {
		t.Fatalf("openEngine over a v3 index: %v", err)
	}
	if engine.Shards() != 2 {
		t.Fatalf("rebuilt engine has %d shards, want 2", engine.Shards())
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, []byte("NBIDX004")) {
		t.Fatalf("index file starts %q after the rebuild, want NBIDX004", got[:min(8, len(got))])
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("index directory holds %d entries, want only the index", len(entries))
	}
	reopened, err := openEngine(db, path, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Shards() != 2 {
		t.Fatalf("reopened engine has %d shards, want the stored 2", reopened.Shards())
	}
}

// TestOpenEngineRebuildsCorruptIndex flips bytes inside a section of a saved
// v4 index. The mapped open checks only the header and directory, so the
// corruption must be caught by the content validation openEngine runs before
// serving: it rebuilds, replaces the file with the same bytes a clean build
// writes, and the engine it returns answers queries.
func TestOpenEngineRebuildsCorruptIndex(t *testing.T) {
	db, err := graphrep.GenerateDataset("dud", 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.nbx")
	if _, err := openEngine(db, path, 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Overwrite the first record header of the embedding blob (section kind
	// 41, shard 0) with an implausible star count.
	corrupt := append([]byte(nil), clean...)
	dir, err := container.Parse(corrupt, [8]byte([]byte("NBIDX004")))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := dir.Section(41, 0)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(blob, 0x7fffffff)
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}

	engine, err := openEngine(db, path, 1, 1, 1)
	if err != nil {
		t.Fatalf("openEngine over a corrupt index: %v", err)
	}
	defer engine.Close()
	sess, err := engine.NewSession(graphrep.FirstQuartileRelevance(db, nil))
	if err != nil {
		t.Fatalf("session over the served index: %v", err)
	}
	if _, err := sess.TopK(10, 3); err != nil {
		t.Fatalf("query over the served index: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, clean) {
		t.Fatal("index file after the rebuild differs from the clean build")
	}
}

package main

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"graphrep"
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

package mmapfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func writeTemp(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "img.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOpenMatchesReadAll(t *testing.T) {
	payload := []byte("the quick brown fox jumps over the lazy dog")
	path := writeTemp(t, payload)

	mapped, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	heap, err := OpenReadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	defer heap.Close()

	if !bytes.Equal(mapped.Bytes(), payload) {
		t.Fatalf("mapped bytes differ: %q", mapped.Bytes())
	}
	if !bytes.Equal(heap.Bytes(), payload) {
		t.Fatalf("heap bytes differ: %q", heap.Bytes())
	}
	if heap.Mapped() {
		t.Fatal("OpenReadAll reported a mapping")
	}
}

func TestOpenEmptyFile(t *testing.T) {
	path := writeTemp(t, nil)
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Bytes()) != 0 {
		t.Fatalf("empty file has %d bytes", len(f.Bytes()))
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenMissingFile(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("Open of a missing file succeeded")
	}
}

func TestCloseIdempotent(t *testing.T) {
	f, err := Open(writeTemp(t, []byte("x")))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	var nilFile *File
	if err := nilFile.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
}

func TestViewFloat64(t *testing.T) {
	want := []float64{0, 1.5, -3.25, math.Pi, math.Inf(1)}
	b := make([]byte, 8*len(want))
	for i, v := range want {
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(v))
	}
	got, err := View[float64](b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if cap(got) != len(got) {
		t.Fatalf("cap %d != len %d: appends would write through", cap(got), len(got))
	}
}

func TestViewInt32(t *testing.T) {
	want := []int32{-1, 0, 1, 1 << 30}
	b := make([]byte, 4*len(want))
	for i, v := range want {
		binary.LittleEndian.PutUint32(b[i*4:], uint32(v))
	}
	got, err := View[int32](b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestViewRejectsRaggedLength(t *testing.T) {
	if _, err := View[float64](make([]byte, 12)); err == nil {
		t.Fatal("View accepted 12 bytes as float64s")
	}
	if _, err := View[int32](make([]byte, 7)); err == nil {
		t.Fatal("View accepted 7 bytes as int32s")
	}
}

func TestViewMisalignedFallsBackToCopy(t *testing.T) {
	raw := make([]byte, 8*3+4)
	for i := range raw {
		raw[i] = byte(i)
	}
	b := raw[4:] // guaranteed 4 mod 8 alignment relative to an 8-aligned base
	got, err := View[uint64](b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if want := binary.LittleEndian.Uint64(b[i*8:]); got[i] != want {
			t.Fatalf("got[%d] = %#x, want %#x", i, got[i], want)
		}
	}
}

func TestViewEmpty(t *testing.T) {
	got, err := View[uint32](nil)
	if err != nil || got != nil {
		t.Fatalf("View(nil) = %v, %v", got, err)
	}
}

func TestViewAppendDoesNotWriteThrough(t *testing.T) {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b[0:], 7)
	binary.LittleEndian.PutUint64(b[8:], 9)
	v, err := View[uint64](b)
	if err != nil {
		t.Fatal(err)
	}
	_ = append(v, 42)
	if binary.LittleEndian.Uint64(b[8:]) != 9 {
		t.Fatal("append wrote through the view into the backing bytes")
	}
}

func TestDisableMmapEnv(t *testing.T) {
	path := writeTemp(t, []byte("payload"))
	t.Setenv("GRAPHREP_DISABLE_MMAP", "1")
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Mapped() {
		t.Fatal("GRAPHREP_DISABLE_MMAP=1 still produced a mapping")
	}
	if !bytes.Equal(f.Bytes(), []byte("payload")) {
		t.Fatalf("Bytes() = %q, want %q", f.Bytes(), "payload")
	}
}

// TestWriteAtomicKeepsOldMapping rewrites a mapped file: the old mapping
// still reads the old bytes, and a fresh open reads the new ones.
func TestWriteAtomicKeepsOldMapping(t *testing.T) {
	path := writeTemp(t, []byte("old contents"))
	old, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	err = WriteAtomic(path, func(w io.Writer) error {
		_, err := w.Write([]byte("new"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(old.Bytes(), []byte("old contents")) {
		t.Fatalf("old image reads %q after the rewrite", old.Bytes())
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("new")) {
		t.Fatalf("rewritten file reads %q, want %q", got, "new")
	}
}

// TestWriteAtomicFailureLeavesOriginal fails a write halfway: the original
// file is intact and no temporary file is left behind.
func TestWriteAtomicFailureLeavesOriginal(t *testing.T) {
	path := writeTemp(t, []byte("original"))
	boom := errors.New("boom")
	err := WriteAtomic(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("partial")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteAtomic returned %v, want the write's error", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("original")) {
		t.Fatalf("original file reads %q after a failed write", got)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after a failed write, want only the original", len(entries))
	}
}

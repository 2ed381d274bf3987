// Package mmapfile opens read-only byte images of files, memory-mapping them
// where the platform supports it (linux, darwin) and falling back to a plain
// read elsewhere, and replaces such files atomically (WriteAtomic), so a
// rewrite never changes the bytes under a live mapping. It is the only
// package in the tree allowed to use unsafe or the raw mmap syscalls — the
// unsafeconfine analyzer (cmd/replint) enforces the confinement — so every
// zero-copy view the v4 index format serves is funneled through the small,
// auditable surface here.
//
// The contract every caller inherits: the bytes of a File are immutable for
// the File's lifetime, and every view derived from them (View, or plain
// subslices) dies with the File. Closing a mapped File unmaps the pages;
// touching a view afterwards faults. Views are handed out with cap == len, so
// an append through one reallocates onto the heap instead of writing through
// to the mapping.
package mmapfile

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// File is a read-only byte image of a file: a memory mapping when the
// platform provides one, a heap copy otherwise.
type File struct {
	data   []byte
	mapped bool
}

// Open returns the file's byte image, memory-mapped when the platform
// supports it (the build selects the implementation). The mapping is
// read-only and shared, so concurrent opens of one file share page cache.
// Setting GRAPHREP_DISABLE_MMAP to any non-empty value forces the heap-copy
// path, letting CI exercise the ReadFile fallback on platforms that do have
// mmap.
func Open(path string) (*File, error) {
	if os.Getenv("GRAPHREP_DISABLE_MMAP") != "" {
		return OpenReadAll(path)
	}
	return platformOpen(path)
}

// OpenReadAll returns the file's byte image as a heap copy, never a mapping —
// the GRAPHREP_DISABLE_MMAP path, and the fallback for platforms without mmap.
func OpenReadAll(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("mmapfile: %w", err)
	}
	return &File{data: data}, nil
}

// Bytes returns the byte image. The slice is read-only and valid only until
// Close; it is handed out with cap == len so appends reallocate.
func (f *File) Bytes() []byte {
	return f.data[:len(f.data):len(f.data)]
}

// Mapped reports whether the image is a live memory mapping (as opposed to a
// heap copy).
func (f *File) Mapped() bool { return f.mapped }

// Close releases the image: mapped pages are unmapped (views into them must
// not be touched afterwards), heap copies are just dropped. Close is
// idempotent and nil-safe.
func (f *File) Close() error {
	if f == nil || f.data == nil {
		return nil
	}
	data, mapped := f.data, f.mapped
	f.data, f.mapped = nil, false
	if !mapped {
		return nil
	}
	return munmap(data)
}

// WriteAtomic replaces the file at path with the bytes write emits: they go
// to a temporary file in the same directory, which is fsynced and then
// renamed over path. Readers see the old file or the new one, never a torn
// mix, and a process that has the old file mapped keeps reading the old
// bytes — truncating a mapped file in place would fault its readers instead.
// On any error the temporary file is removed and path is left untouched. The
// new file is created with mode 0644.
func WriteAtomic(path string, write func(w io.Writer) error) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("mmapfile: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	if err = f.Chmod(0o644); err != nil {
		return fmt.Errorf("mmapfile: %w", err)
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("mmapfile: %w", err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("mmapfile: %w", err)
	}
	if err = os.Rename(tmp, path); err != nil {
		return fmt.Errorf("mmapfile: %w", err)
	}
	return nil
}

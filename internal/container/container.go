// Package container owns the binary framing shared by the repository's
// zero-copy file formats — the NBIDX004 index and the GRDB001 corpus. A
// container is a flat offset-tabled layout readable in place from a byte
// slice, typically a memory mapping, so opening one costs O(header +
// directory), not O(data):
//
//	header     8-byte magic | u64 sectionCount | u64 fileSize
//	directory  sectionCount × { u32 kind | u32 aux | u64 off | u64 len }
//	sections   raw little-endian arrays, each 8-byte aligned, zero-padded
//
// A section is named by its (kind, aux) pair: each format assigns the kinds,
// and aux qualifies them (the index stores a shard number there; the corpus
// writes 0). Every array is fixed-stride, so a section becomes a typed slice
// via View without copying. What the sections mean, and how they must agree
// with each other, is each format's own validation; this package guarantees
// only that every section it hands out lies inside the container.
package container

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"strings"

	"graphrep/internal/mmapfile"
)

const (
	// HeaderLen is the byte length of the container header.
	HeaderLen = 24
	// DirEntryLen is the byte length of one directory entry.
	DirEntryLen = 24
)

// Section is one directory entry during encoding, paired with the function
// that writes its body. Write must emit exactly Len bytes.
type Section struct {
	Kind, Aux uint32
	Len       uint64
	Write     func(w io.Writer) error
}

// WriteLE returns a section body writer emitting v in little-endian — the
// single choke point for array sections, so writers never touch unsafe.
func WriteLE(v any) func(io.Writer) error {
	return func(w io.Writer) error { return binary.Write(w, binary.LittleEndian, v) }
}

func pad8(n uint64) uint64 { return (n + 7) &^ 7 }

// name renders a magic for error messages, without trailing NULs.
func name(magic [8]byte) string { return strings.TrimRight(string(magic[:]), "\x00") }

// Write emits a container: header, directory, then the section bodies in the
// given order, each at the next 8-aligned offset. Output bytes are a pure
// function of magic and the section bodies: offsets are derived from the
// lengths alone and all padding is zero.
func Write(w io.Writer, magic [8]byte, sections []Section) error {
	dirEnd := uint64(HeaderLen + DirEntryLen*len(sections))
	off := dirEnd
	offs := make([]uint64, len(sections))
	for i, sec := range sections {
		off = pad8(off)
		offs[i] = off
		off += sec.Len
	}
	fileSize := pad8(off)

	var hdr [HeaderLen]byte
	copy(hdr[:8], magic[:])
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(sections)))
	binary.LittleEndian.PutUint64(hdr[16:], fileSize)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var ent [DirEntryLen]byte
	for i, sec := range sections {
		binary.LittleEndian.PutUint32(ent[0:], sec.Kind)
		binary.LittleEndian.PutUint32(ent[4:], sec.Aux)
		binary.LittleEndian.PutUint64(ent[8:], offs[i])
		binary.LittleEndian.PutUint64(ent[16:], sec.Len)
		if _, err := w.Write(ent[:]); err != nil {
			return err
		}
	}
	var zeros [8]byte
	pos := dirEnd
	for i, sec := range sections {
		if p := offs[i] - pos; p > 0 {
			if _, err := w.Write(zeros[:p]); err != nil {
				return err
			}
		}
		if err := sec.Write(w); err != nil {
			return fmt.Errorf("container: %s: write section kind %d aux %d: %w", name(magic), sec.Kind, sec.Aux, err)
		}
		pos = offs[i] + sec.Len
	}
	if p := fileSize - pos; p > 0 {
		if _, err := w.Write(zeros[:p]); err != nil {
			return err
		}
	}
	return nil
}

// Dir is a parsed directory: section lookup by (kind, aux).
type Dir struct {
	name string
	secs map[[2]uint32][]byte
}

// Parse validates the header and directory of a container: magic, file
// size, per-entry alignment and bounds (overflow-safe), no duplicate (kind,
// aux) keys, and no overlapping sections. Section bodies are NOT examined —
// that is each format's job — but every section Parse hands out lies inside
// data and aliases it.
func Parse(data []byte, magic [8]byte) (*Dir, error) {
	nm := name(magic)
	if len(data) < HeaderLen {
		return nil, fmt.Errorf("container: %s file of %d bytes is shorter than the header", nm, len(data))
	}
	if [8]byte(data[:8]) != magic {
		return nil, fmt.Errorf("container: bad magic %q, want %s", data[:8], nm)
	}
	count := binary.LittleEndian.Uint64(data[8:])
	fileSize := binary.LittleEndian.Uint64(data[16:])
	if fileSize != uint64(len(data)) {
		return nil, fmt.Errorf("container: %s header declares %d bytes, file has %d", nm, fileSize, len(data))
	}
	if count == 0 || count > uint64(len(data)-HeaderLen)/DirEntryLen {
		return nil, fmt.Errorf("container: implausible %s section count %d for %d bytes", nm, count, len(data))
	}
	dirEnd := uint64(HeaderLen) + count*DirEntryLen
	d := &Dir{name: nm, secs: make(map[[2]uint32][]byte, count)}
	type span struct{ off, end uint64 }
	spans := make([]span, 0, count)
	for i := uint64(0); i < count; i++ {
		ent := data[HeaderLen+i*DirEntryLen:]
		kind := binary.LittleEndian.Uint32(ent[0:])
		aux := binary.LittleEndian.Uint32(ent[4:])
		off := binary.LittleEndian.Uint64(ent[8:])
		length := binary.LittleEndian.Uint64(ent[16:])
		if off%8 != 0 {
			return nil, fmt.Errorf("container: %s section %d (kind %d aux %d) at unaligned offset %d", nm, i, kind, aux, off)
		}
		if off < dirEnd || off > fileSize || length > fileSize-off {
			return nil, fmt.Errorf("container: %s section %d (kind %d aux %d) spans [%d, %d+%d) outside the file",
				nm, i, kind, aux, off, off, length)
		}
		key := [2]uint32{kind, aux}
		if _, dup := d.secs[key]; dup {
			return nil, fmt.Errorf("container: %s has duplicate section kind %d aux %d", nm, kind, aux)
		}
		d.secs[key] = data[off : off+length : off+length]
		spans = append(spans, span{off: off, end: off + length})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].off < spans[j].off })
	for i := 1; i < len(spans); i++ {
		if spans[i].off < spans[i-1].end {
			return nil, fmt.Errorf("container: %s sections overlap at offset %d", nm, spans[i].off)
		}
	}
	return d, nil
}

// Section returns the bytes of section (kind, aux), or an error naming it.
func (d *Dir) Section(kind, aux uint32) ([]byte, error) {
	b, ok := d.secs[[2]uint32{kind, aux}]
	if !ok {
		return nil, fmt.Errorf("container: %s is missing section kind %d aux %d", d.name, kind, aux)
	}
	return b, nil
}

// View returns section (kind, aux) as a typed slice — zero-copy where
// mmapfile.View can alias it — naming the section on error.
func View[T mmapfile.Scalar](d *Dir, kind, aux uint32) ([]T, error) {
	b, err := d.Section(kind, aux)
	if err != nil {
		return nil, err
	}
	v, err := mmapfile.View[T](b)
	if err != nil {
		return nil, fmt.Errorf("container: %s section kind %d aux %d: %w", d.name, kind, aux, err)
	}
	return v, nil
}

package ged

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Table is a column of per-graph filter embeddings in their encoded form: an
// offset array (one entry per graph plus a terminator) into a shared byte
// blob of records, exactly the two sections the v4 index container stores.
// Records stay encoded — typically as zero-copy views over a mapping — and
// are decoded on demand with At; the structure itself is immutable and safe
// for concurrent readers.
type Table struct {
	offs []uint32
	blob []byte
}

// NewTable wraps an offset array and record blob after validating every
// record boundary: offsets start at zero, never decrease, end exactly at the
// blob's end, and each record's header-implied length matches its offset
// span. At can therefore decode any record without reading outside its span.
// The slices are retained, not copied. It is NewTableDeferred followed
// immediately by Validate.
func NewTable(offs []uint32, blob []byte) (*Table, error) {
	t, err := NewTableDeferred(offs, blob)
	if err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// NewTableDeferred is NewTable minus the per-record scan: it checks only the
// O(1) frame invariants (a first offset of zero, a last offset at the blob's
// end) and defers Validate to the caller, keeping a mapped open independent
// of index size. No record may be read — not even Stars — until Validate
// has passed.
func NewTableDeferred(offs []uint32, blob []byte) (*Table, error) {
	if len(offs) == 0 {
		return nil, fmt.Errorf("ged: embedding table has no offsets")
	}
	if offs[0] != 0 {
		return nil, fmt.Errorf("ged: embedding table starts at offset %d, want 0", offs[0])
	}
	if int64(offs[len(offs)-1]) != int64(len(blob)) {
		return nil, fmt.Errorf("ged: embedding table ends at offset %d, blob has %d bytes", offs[len(offs)-1], len(blob))
	}
	return &Table{offs: offs, blob: blob}, nil
}

// Validate runs the O(n) record scan a deferred construction skipped:
// offsets never decrease, and each record's header-implied length matches
// its offset span, so every later access stays inside the blob.
func (t *Table) Validate() error {
	offs, blob := t.offs, t.blob
	for i := 0; i+1 < len(offs); i++ {
		if offs[i+1] < offs[i] {
			return fmt.Errorf("ged: embedding table offset %d decreases (%d after %d)", i+1, offs[i+1], offs[i])
		}
		if err := validateEmbeddingRecord(blob[offs[i]:offs[i+1]]); err != nil {
			return fmt.Errorf("ged: embedding record %d: %w", i, err)
		}
	}
	return nil
}

// NewTableFromEmbeddings encodes a slice of embeddings into table form — the
// save path for indexes whose embeddings live on the heap. The encoding is a
// pure function of the graphs, so the resulting bytes are identical to a
// table loaded from disk for the same database.
func NewTableFromEmbeddings(embs []*Embedding) (*Table, error) {
	offs := make([]uint32, len(embs)+1)
	var buf bytes.Buffer
	for i, e := range embs {
		if e == nil {
			return nil, fmt.Errorf("ged: embedding %d is nil", i)
		}
		if err := e.Encode(&buf); err != nil {
			return nil, fmt.Errorf("ged: encode embedding %d: %w", i, err)
		}
		if buf.Len() != int(uint32(buf.Len())) {
			return nil, fmt.Errorf("ged: embedding table exceeds 4 GiB at record %d", i)
		}
		offs[i+1] = uint32(buf.Len())
	}
	return &Table{offs: offs, blob: buf.Bytes()}, nil
}

// recordLen returns the byte length Encode produces for a record with n
// stars, nc center dimensions, and ns spoke dimensions.
func recordLen(n, nc, ns int) int {
	return 12 + 4*n + 8*nc + 12*ns
}

// validateEmbeddingRecord checks that rec is exactly one well-formed encoded
// embedding: plausible header counts and a length that matches them.
func validateEmbeddingRecord(rec []byte) error {
	if len(rec) < 12 {
		return fmt.Errorf("record of %d bytes is shorter than the header", len(rec))
	}
	n := int(binary.LittleEndian.Uint32(rec[0:]))
	nc := int(binary.LittleEndian.Uint32(rec[4:]))
	ns := int(binary.LittleEndian.Uint32(rec[8:]))
	const implausible = 1 << 28
	if n > implausible || ns > implausible || nc > n {
		return fmt.Errorf("implausible header (n=%d nc=%d ns=%d)", n, nc, ns)
	}
	if want := recordLen(n, nc, ns); len(rec) != want {
		return fmt.Errorf("record of %d bytes, header implies %d", len(rec), want)
	}
	return nil
}

// decodeEmbeddingBytes decodes one validated record written by
// Embedding.Encode; bounds are guaranteed by NewTable's validation.
func decodeEmbeddingBytes(rec []byte) *Embedding {
	n := int(binary.LittleEndian.Uint32(rec[0:]))
	nc := int(binary.LittleEndian.Uint32(rec[4:]))
	ns := int(binary.LittleEndian.Uint32(rec[8:]))
	e := &Embedding{padPrefix: make([]float64, n+1)}
	p := 12
	for i := 0; i < n; i++ {
		e.padPrefix[i+1] = e.padPrefix[i] + float64(binary.LittleEndian.Uint32(rec[p:]))
		p += 4
	}
	if nc > 0 {
		e.centers = make([]embDim, nc)
		for i := range e.centers {
			e.centers[i] = embDim{
				key:   uint64(binary.LittleEndian.Uint32(rec[p:])),
				count: int32(binary.LittleEndian.Uint32(rec[p+4:])),
			}
			p += 8
		}
	}
	if ns > 0 {
		e.spokes = make([]embDim, ns)
		for i := range e.spokes {
			e.spokes[i] = embDim{
				key:   binary.LittleEndian.Uint64(rec[p:]),
				count: int32(binary.LittleEndian.Uint32(rec[p+8:])),
			}
			p += 12
		}
	}
	return e
}

// Len returns the number of records.
func (t *Table) Len() int { return len(t.offs) - 1 }

// Stars returns the star (vertex) count of record i without decoding it —
// what load-time cross-checks against the database need.
func (t *Table) Stars(i int) int {
	return int(binary.LittleEndian.Uint32(t.blob[t.offs[i]:]))
}

// At decodes record i into a fresh Embedding.
func (t *Table) At(i int) *Embedding {
	return decodeEmbeddingBytes(t.blob[t.offs[i]:t.offs[i+1]])
}

// Record returns the encoded bytes of record i. Read-only.
func (t *Table) Record(i int) []byte { return t.blob[t.offs[i]:t.offs[i+1]] }

// Offsets returns the offset array (len = Len()+1). Read-only; the
// persistence writer serializes it directly.
func (t *Table) Offsets() []uint32 { return t.offs }

// Blob returns the shared record blob. Read-only.
func (t *Table) Blob() []byte { return t.blob }

// Bytes approximates the table's memory footprint.
func (t *Table) Bytes() int64 { return int64(len(t.blob)) + int64(len(t.offs))*4 }

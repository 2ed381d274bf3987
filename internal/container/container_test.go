package container

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"reflect"
	"testing"
)

var testMagic = [8]byte{'T', 'E', 'S', 'T', '0', '0', '1', 0}

// testContainer writes three sections of awkward lengths, so the writer
// must pad between them and after the last: a u64 array, a 5-byte blob at
// aux 3, and a u32 array sharing the blob's kind at aux 4.
func testContainer(t testing.TB) []byte {
	t.Helper()
	blob := []byte{1, 2, 3, 4, 5}
	var buf bytes.Buffer
	err := Write(&buf, testMagic, []Section{
		{Kind: 1, Len: 16, Write: WriteLE([]uint64{7, 9})},
		{Kind: 2, Aux: 3, Len: 5, Write: func(w io.Writer) error { _, err := w.Write(blob); return err }},
		{Kind: 2, Aux: 4, Len: 12, Write: WriteLE([]uint32{10, 20, 30})},
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestWriteParseRoundTrip(t *testing.T) {
	data := testContainer(t)
	if len(data)%8 != 0 {
		t.Fatalf("container of %d bytes is not padded to 8", len(data))
	}
	if again := testContainer(t); !bytes.Equal(again, data) {
		t.Fatal("two writes of the same sections differ")
	}
	d, err := Parse(data, testMagic)
	if err != nil {
		t.Fatal(err)
	}
	u64, err := View[uint64](d, 1, 0)
	if err != nil || !reflect.DeepEqual(u64, []uint64{7, 9}) {
		t.Fatalf("section (1, 0) = %v, %v", u64, err)
	}
	blob, err := d.Section(2, 3)
	if err != nil || !bytes.Equal(blob, []byte{1, 2, 3, 4, 5}) {
		t.Fatalf("section (2, 3) = %v, %v", blob, err)
	}
	u32, err := View[uint32](d, 2, 4)
	if err != nil || !reflect.DeepEqual(u32, []uint32{10, 20, 30}) {
		t.Fatalf("section (2, 4) = %v, %v", u32, err)
	}
	if _, err := d.Section(1, 1); err == nil {
		t.Error("lookup of an absent (kind, aux) succeeded")
	}
	if _, err := View[uint64](d, 2, 3); err == nil {
		t.Error("5-byte section viewed as uint64s")
	}
	// Every section starts 8-aligned, and the padding between is zero.
	for i := 0; i < 3; i++ {
		ent := data[HeaderLen+i*DirEntryLen:]
		if off := binary.LittleEndian.Uint64(ent[8:]); off%8 != 0 {
			t.Errorf("section %d at unaligned offset %d", i, off)
		}
	}
	blobEnd := binary.LittleEndian.Uint64(data[HeaderLen+DirEntryLen+8:]) + 5
	for _, b := range data[blobEnd : blobEnd+3] {
		if b != 0 {
			t.Fatalf("padding after the blob is %v, want zeros", data[blobEnd:blobEnd+3])
		}
	}
}

// TestParseRejectsCorruptLayout walks a catalogue of malformed containers
// through Parse: every one must fail, with no panic.
func TestParseRejectsCorruptLayout(t *testing.T) {
	valid := testContainer(t)
	entry := func(i int) []byte { return valid[HeaderLen+i*DirEntryLen:] }
	off1 := binary.LittleEndian.Uint64(entry(1)[8:])
	for _, tc := range []struct {
		name   string
		mutate func(b []byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"short header", func(b []byte) []byte { return b[:10] }},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-16] }},
		{"oversized count", func(b []byte) []byte { b[8] = 0xFF; return b }},
		{"zero count", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:], 0)
			return b
		}},
		{"unaligned section", func(b []byte) []byte { b[HeaderLen+8] = 1; return b }},
		{"dup kind", func(b []byte) []byte {
			copy(b[HeaderLen+DirEntryLen:], b[HeaderLen:HeaderLen+DirEntryLen])
			return b
		}},
		{"overlap", func(b []byte) []byte {
			// Section 2 starts inside section 1.
			binary.LittleEndian.PutUint64(b[HeaderLen+2*DirEntryLen+8:], off1)
			return b
		}},
		{"span past the end", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[HeaderLen+2*DirEntryLen+16:], uint64(len(b)))
			return b
		}},
		{"length overflows", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[HeaderLen+16:], ^uint64(0)-7)
			return b
		}},
		{"inside the directory", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[HeaderLen+8:], HeaderLen)
			return b
		}},
	} {
		b := tc.mutate(append([]byte(nil), valid...))
		if _, err := Parse(b, testMagic); err == nil {
			t.Errorf("%s: corrupt container parsed cleanly", tc.name)
		}
	}
}

// FuzzParse is the hostile-input contract of the framing: Parse either
// rejects the bytes or returns a directory whose every section lies inside
// the input, 8-aligned, and disjoint from the header, the directory and the
// other sections. Seeds are the committed golden containers of both formats.
func FuzzParse(f *testing.F) {
	for _, path := range []string{
		"../../testdata/index_nbidx005_dud120_seed7.nbx",
		"../graph/testdata/golden.grdb",
	} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add(testContainer(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		d, err := Parse(data, [8]byte(data[:8]))
		if err != nil {
			return
		}
		// Re-read the directory independently and hold every entry to the
		// contract Parse promised.
		count := int(binary.LittleEndian.Uint64(data[8:]))
		dirEnd := uint64(HeaderLen + DirEntryLen*count)
		covered := make([]bool, len(data))
		for i := 0; i < count; i++ {
			ent := data[HeaderLen+i*DirEntryLen:]
			kind, aux := binary.LittleEndian.Uint32(ent[0:]), binary.LittleEndian.Uint32(ent[4:])
			off, length := binary.LittleEndian.Uint64(ent[8:]), binary.LittleEndian.Uint64(ent[16:])
			if off%8 != 0 || off < dirEnd || off > uint64(len(data)) || length > uint64(len(data))-off {
				t.Fatalf("entry %d (kind %d aux %d) spans [%d, %d+%d) in %d bytes", i, kind, aux, off, off, length, len(data))
			}
			sec, err := d.Section(kind, aux)
			if err != nil {
				t.Fatalf("entry %d: %v", i, err)
			}
			if uint64(len(sec)) != length || (length > 0 && &sec[0] != &data[off]) {
				t.Fatalf("entry %d: section does not alias data[%d:%d]", i, off, off+length)
			}
			for j := off; j < off+length; j++ {
				if covered[j] {
					t.Fatalf("entry %d overlaps another section at byte %d", i, j)
				}
				covered[j] = true
			}
		}
	})
}

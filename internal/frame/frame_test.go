package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"

	"toppriv/internal/corpus"
)

// sealed returns payload framed: header reserved, then sealed.
func sealed(payload []byte) []byte {
	f := append(make([]byte, Header), payload...)
	Seal(f)
	return f
}

// file is magic followed by a frame per payload.
func file(magic string, payloads ...[]byte) []byte {
	out := []byte(magic)
	for _, p := range payloads {
		out = append(out, sealed(p)...)
	}
	return out
}

func TestSealOpenRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 300, 1 << 16} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i*31 + n)
		}
		f := sealed(payload)
		if got := binary.LittleEndian.Uint32(f[:4]); got != uint32(n) {
			t.Fatalf("%d-byte payload: length field %d", n, got)
		}
		// Bytes after the frame are not its own: Open reads its length.
		got, size, err := Open(append(f, 0xAA, 0xBB), uint32(n))
		if err != nil {
			t.Fatalf("%d-byte payload: %v", n, err)
		}
		if size != Header+n || !bytes.Equal(got, payload) {
			t.Fatalf("%d-byte payload: size %d, payload equal %v", n, size, bytes.Equal(got, payload))
		}
		// The bound is inclusive; one byte under it refuses the frame.
		if n > 0 {
			if _, _, err := Open(f, uint32(n-1)); !errors.Is(err, ErrTorn) {
				t.Fatalf("%d-byte payload under a bound of %d: err = %v, want ErrTorn", n, n-1, err)
			}
		}
	}
}

func TestOpenCorruption(t *testing.T) {
	payload := []byte("the quick brown fox")
	f := sealed(payload)
	max := uint32(1 << 20)
	cases := []struct {
		name string
		b    []byte
		want error
	}{
		// 19 → 17: a length that still fits, so the frame is all there
		// and fails its checksum.
		{"length byte flipped", flip(f, 0, 0x02), ErrChecksum},
		{"checksum byte flipped", flip(f, 5, 0x10), ErrChecksum},
		{"payload byte flipped", flip(f, Header+3, 0x01), ErrChecksum},
		{"cut in the payload", f[:len(f)-1], ErrTorn},
		{"cut in the header", f[:Header-1], ErrTorn},
		{"empty", nil, ErrTorn},
		// A length past the bound is corruption of the length, never an
		// allocation request, and reads as a cut.
		{"length over the bound", withLength(f, len(payload), max+1), ErrTorn},
		{"length past the input", withLength(f, 0, uint32(len(payload)+1)), ErrTorn},
	}
	for _, tc := range cases {
		if _, _, err := Open(tc.b, max); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// flip returns a copy of b with b[i] xor-ed by mask.
func flip(b []byte, i int, mask byte) []byte {
	c := append([]byte(nil), b...)
	c[i] ^= mask
	return c
}

// withLength returns a copy of f whose length field says n, with extra
// zero bytes after it.
func withLength(f []byte, extra int, n uint32) []byte {
	c := append(append([]byte(nil), f...), make([]byte, extra)...)
	binary.LittleEndian.PutUint32(c[:4], n)
	return c
}

func TestWalk(t *testing.T) {
	payloads := [][]byte{[]byte("one"), {}, []byte("three!")}
	data := file("MAGIC1\n", payloads...)
	var offs []int64
	var got [][]byte
	end, err := Walk(data, "MAGIC1\n", 64, func(off int64, p []byte) error {
		offs = append(offs, off)
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil || end != int64(len(data)) {
		t.Fatalf("Walk = %d, %v; want %d, nil", end, err, len(data))
	}
	wantOff := int64(len("MAGIC1\n"))
	for i, p := range payloads {
		if offs[i] != wantOff || !bytes.Equal(got[i], p) {
			t.Fatalf("frame %d: offset %d payload %q, want %d %q", i, offs[i], got[i], wantOff, p)
		}
		wantOff += int64(Header + len(p))
	}

	// A torn tail — a frame cut by EOF, or one whose length is past the
	// bound — ends the walk at the last whole frame.
	whole := int64(len(data))
	torn := append(append([]byte(nil), data...), sealed([]byte("cut short"))[:10]...)
	if end, err := Walk(torn, "MAGIC1\n", 64, func(int64, []byte) error { return nil }); err != nil || end != whole {
		t.Errorf("torn tail: Walk = %d, %v; want %d, nil", end, err, whole)
	}
	over := append(append([]byte(nil), data...), sealed(make([]byte, 65))...)
	if end, err := Walk(over, "MAGIC1\n", 64, func(int64, []byte) error { return nil }); err != nil || end != whole {
		t.Errorf("frame over the bound: Walk = %d, %v; want %d, nil", end, err, whole)
	}

	// A whole frame that fails its checksum is an error, not an end.
	rot := flip(data, len("MAGIC1\n")+Header+len("one")+Header-1, 0x01)
	if _, err := Walk(rot, "MAGIC1\n", 64, func(int64, []byte) error { return nil }); !errors.Is(err, ErrChecksum) {
		t.Errorf("checksum failure: err = %v, want ErrChecksum", err)
	}
	if _, err := Walk(data, "MAGIC2\n", 64, func(int64, []byte) error { return nil }); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic: err = %v", err)
	}
	if _, err := Walk(nil, "MAGIC1\n", 64, func(int64, []byte) error { return nil }); err == nil {
		t.Error("empty file accepted")
	}
	stop := errors.New("stop")
	calls := 0
	if _, err := Walk(data, "MAGIC1\n", 64, func(int64, []byte) error { calls++; return stop }); err != stop || calls != 1 {
		t.Errorf("fn's error: Walk err = %v after %d calls, want it after 1", err, calls)
	}
}

func TestOpenReader(t *testing.T) {
	f := sealed([]byte{5})
	r, err := OpenReader(f, 16, "test frame")
	if err != nil || r.Num() != 5 || r.End() != nil {
		t.Fatalf("OpenReader = %+v, %v", r, err)
	}
	if _, err := OpenReader(append(f, 0), 16, "test frame"); err == nil || !strings.Contains(err.Error(), "1 bytes after the frame") {
		t.Errorf("trailing byte: err = %v", err)
	}
	if _, err := OpenReader(flip(f, Header, 1), 16, "test frame"); !errors.Is(err, ErrChecksum) || !strings.HasPrefix(err.Error(), "test frame: ") {
		t.Errorf("corrupt frame: err = %v", err)
	}
}

func TestReaderRoundTrip(t *testing.T) {
	nums := []uint64{0, 1, 127, 128, 1 << 32, math.MaxInt64, math.MaxUint64}
	floats := []float64{0, math.Copysign(0, -1), 1.5, math.Inf(-1), math.NaN(), math.SmallestNonzeroFloat64}
	doc := corpus.Document{ID: math.MaxInt32, Title: "a title", Text: "ünïcode text\x00with a zero"}
	var p []byte
	for _, v := range nums {
		p = binary.AppendUvarint(p, v)
	}
	for _, v := range floats {
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(v))
	}
	p = binary.AppendUvarint(p, 3)
	p = append(p, "str"...)
	p = binary.AppendUvarint(p, 2)
	p = append(p, 9, 9)
	p = AppendDoc(p, &doc)
	p = AppendDoc(p, &corpus.Document{})

	r := Reader{B: p, What: "test"}
	for _, want := range nums {
		if got := r.U64(); got != want {
			t.Fatalf("U64 = %d, want %d", got, want)
		}
	}
	for _, want := range floats {
		if got := r.Float(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Float = %v, want %v bit for bit", got, want)
		}
	}
	if s := r.Str(); s != "str" {
		t.Fatalf("Str = %q", s)
	}
	if n := r.Count(1); n != 2 {
		t.Fatalf("Count = %d", n)
	}
	r.B = r.B[2:]
	if got := r.Doc(); got.ID != doc.ID || got.Title != doc.Title || got.Text != doc.Text {
		t.Fatalf("Doc = %+v, want %+v", got, doc)
	}
	if got := r.Doc(); got.ID != 0 || got.Title != "" || got.Text != "" {
		t.Fatalf("empty Doc = %+v", got)
	}
	if err := r.End(); err != nil {
		t.Fatalf("End = %v", err)
	}
	if len(AppendDoc(nil, &corpus.Document{})) != DocMin {
		t.Fatalf("the empty document's record is not DocMin = %d bytes", DocMin)
	}
}

// TestReaderRefusals reads one malformed field of each kind: the
// error names the payload and the field, sticks, and every later read
// returns zero.
func TestReaderRefusals(t *testing.T) {
	cases := []struct {
		name string
		b    []byte
		read func(r *Reader) any
		want string
	}{
		{"padded uvarint", []byte{0x80, 0x00}, func(r *Reader) any { return r.U64() }, "padded"},
		{"padded uvarint, longer", []byte{0x81, 0x80, 0x00}, func(r *Reader) any { return r.U64() }, "padded"},
		{"truncated uvarint", []byte{0x80}, func(r *Reader) any { return r.U64() }, "truncated"},
		{"empty uvarint", nil, func(r *Reader) any { return r.U64() }, "truncated"},
		{"oversized uvarint", bytes.Repeat([]byte{0xff}, 11), func(r *Reader) any { return r.U64() }, "oversized"},
		{"int past MaxInt", binary.AppendUvarint(nil, math.MaxUint64), func(r *Reader) any { return r.Num() }, "oversized"},
		{"gid past int32", binary.AppendUvarint(nil, math.MaxInt32+1), func(r *Reader) any { return r.Gid() }, "beyond int32"},
		{"truncated float", make([]byte, 7), func(r *Reader) any { return r.Float() }, "truncated score"},
		// Count guards an allocation: a count the bytes left cannot
		// hold is refused before anything is sized by it.
		{"count past the bytes", append(binary.AppendUvarint(nil, 3), 0, 0, 0, 0, 0), func(r *Reader) any { return r.Count(2) }, "count 3 exceeds the 5 bytes left"},
		{"string past the bytes", append(binary.AppendUvarint(nil, 4), "abc"...), func(r *Reader) any { return r.Str() }, "count 4"},
		{"document cut in its text", AppendDoc(nil, &corpus.Document{ID: 1, Title: "t", Text: "text"})[:6], func(r *Reader) any { return r.Doc() }, "count 4"},
	}
	for _, tc := range cases {
		r := Reader{B: tc.b, What: "test frame"}
		got := tc.read(&r)
		if r.Err == nil || !strings.HasPrefix(r.Err.Error(), "test frame: ") || !strings.Contains(r.Err.Error(), tc.want) {
			t.Errorf("%s: read %v, Err = %v, want one naming %q", tc.name, got, r.Err, tc.want)
			continue
		}
		first := r.Err
		// Sticky: later reads return zero and keep the first error.
		r.B = binary.AppendUvarint(nil, 7)
		if v := r.U64(); v != 0 || r.Err != first || r.End() != first {
			t.Errorf("%s: after the error U64 = %d, Err = %v", tc.name, v, r.Err)
		}
		r.Failf("a second error")
		if r.Err != first {
			t.Errorf("%s: Failf replaced the first error", tc.name)
		}
	}
	// The largest gid and int parse.
	r := Reader{B: binary.AppendUvarint(binary.AppendUvarint(nil, math.MaxInt32), math.MaxInt64)}
	if g, n := r.Gid(), r.Num(); g != math.MaxInt32 || n != math.MaxInt64 || r.End() != nil {
		t.Errorf("Gid, Num = %d, %d, err %v", g, n, r.Err)
	}
	r = Reader{B: []byte{1, 2}, What: "test frame"}
	r.U64()
	if err := r.End(); err == nil || !strings.Contains(err.Error(), "1 unread payload bytes") {
		t.Errorf("End with a byte left: %v", err)
	}
}

// FuzzWalk feeds Walk whatever a file might hold after its magic: it
// must never panic, and what it accepts must be exactly the whole,
// sealed frames at the head of the file — every payload it hands over
// re-seals to the bytes it was read from, the frames tile the file
// from the magic to the offset returned, and nothing past that offset
// opens as a frame within the bound.
func FuzzWalk(f *testing.F) {
	const magic = "FUZZ1\n"
	const bound = 64
	valid := file(magic, []byte("a"), []byte{}, bytes.Repeat([]byte{7}, bound))
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(flip(valid, len(magic)+Header, 0x01))
	f.Add(flip(valid, len(magic), 0x02))
	f.Add(append(file(magic, []byte("b")), sealed(make([]byte, bound+1))...))
	f.Add([]byte("FUZZ2\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := int64(len(magic))
		end, err := Walk(data, magic, bound, func(off int64, p []byte) error {
			if off != next {
				t.Fatalf("frame at %d, want %d", off, next)
			}
			size := int64(Header + len(p))
			if len(p) > bound || !bytes.Equal(sealed(p), data[off:off+size]) {
				t.Fatalf("frame at %d does not re-seal to its bytes", off)
			}
			next += size
			return nil
		})
		if err != nil {
			if !bytes.HasPrefix(data, []byte(magic)) || errors.Is(err, ErrChecksum) {
				return
			}
			t.Fatalf("Walk err = %v, neither a bad magic nor a checksum", err)
		}
		if end != next || end > int64(len(data)) {
			t.Fatalf("Walk ended at %d, frames reached %d of %d bytes", end, next, len(data))
		}
		if _, _, err := Open(data[end:], bound); !errors.Is(err, ErrTorn) {
			t.Fatalf("bytes past the walk's end at %d open: err = %v", end, err)
		}
	})
}

package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"toppriv/internal/corpus"
	"toppriv/internal/textproc"
)

// postingsFromBytes derives a deterministic, valid postings list from
// arbitrary fuzz input: each byte pair becomes one posting's doc gap
// and tf. Gap magnitudes are stretched non-linearly so the fuzzer
// exercises every frame width from 0 to 32 bits.
func postingsFromBytes(data []byte) []Posting {
	var pl []Posting
	doc := corpus.DocID(-1)
	for i := 0; i+1 < len(data) && len(pl) < 4*BlockSize; i += 2 {
		gap := corpus.DocID(data[i]) + 1
		if data[i]&3 == 3 {
			gap <<= uint(data[i+1] % 20) // up to ~2^27 gaps
		}
		if int64(doc)+int64(gap) > math.MaxInt32/2 {
			break
		}
		doc += gap
		pl = append(pl, Posting{Doc: doc, TF: int32(data[i+1]%31) + 1})
	}
	return pl
}

// wrappedBlock is one block whose stored minimum gap (gap) or minimum
// tf (tf) is 2⁶⁴ − 1, a field whose +1 wraps to 0: with the gap, a
// block of docs [0 0]; with the tf, doc 0 at tf 0. Both break what an
// accepted list promises — strictly ascending documents, positive
// frequencies — so the header parser must refuse them.
func wrappedBlock(field string) (block []byte, postings int) {
	b := binary.AppendUvarint(nil, 1) // base delta: doc 0
	switch field {
	case "gap":
		b = binary.AppendUvarint(b, 2) // two postings
		b = append(b, 0, 0)            // no residual bits
		b = binary.AppendUvarint(b, math.MaxUint64)
		b = binary.AppendUvarint(b, 0)
		return b, 2
	case "tf":
		b = binary.AppendUvarint(b, 1)
		b = append(b, 0, 0)
		b = binary.AppendUvarint(b, math.MaxUint64)
		return b, 1
	}
	panic("wrappedBlock: " + field)
}

// tpixOfBlock is a whole TPIX image of two documents of length 1 and
// one term, "a", whose list is block, of the given posting count,
// ending at doc 0.
func tpixOfBlock(block []byte, postings int) []byte {
	img := []byte(codecMagic)
	img = binary.LittleEndian.AppendUint32(img, codecVersion)
	img = binary.AppendUvarint(img, 2) // documents
	img = binary.AppendUvarint(img, 1) // terms
	img = binary.AppendUvarint(img, 1)
	img = append(img, 'a')
	img = binary.AppendUvarint(img, uint64(postings))
	img = binary.AppendUvarint(img, uint64(len(block)))
	img = append(img, block...)
	img = binary.AppendUvarint(img, 0) // last doc
	return append(img, 1, 1)           // document lengths
}

// TestWrappedBlockHeadersRefused holds the block-header parser to the
// bound of its minimum-gap and minimum-tf fields: a block whose field
// wraps its +1 to 0 is refused on its own (with and without the payload
// decode), inside a TPIX stream (Read) and in a mapped file
// (OpenMapped), and so is the smallest field that would carry past an
// int32. A well-formed block of the same shape loads, so the refusals
// are the fields'.
func TestWrappedBlockHeadersRefused(t *testing.T) {
	for _, field := range []string{"gap", "tf"} {
		block, n := wrappedBlock(field)
		want := "minimum " + field
		for _, verify := range []bool{true, false} {
			if err := checkListWire(n, block, 0, 2, verify); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s block, verifyPayload=%v: err = %v, want %q", field, verify, err, want)
			}
		}
		img := tpixOfBlock(block, n)
		if _, err := Read(bytes.NewReader(img)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s block: Read err = %v, want %q", field, err, want)
		}
		path := filepath.Join(t.TempDir(), field+".tpix")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenMapped(path); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s block: OpenMapped err = %v, want %q", field, err, want)
		}
	}
	// The largest fields the encoder can write, MaxInt32 − 1, parse; one
	// more is refused.
	for _, mg := range []uint64{math.MaxInt32 - 1, math.MaxInt32} {
		b := binary.AppendUvarint(nil, 1)
		b = binary.AppendUvarint(b, 2)
		b = append(b, 0, 0)
		b = binary.AppendUvarint(b, mg)
		b = binary.AppendUvarint(b, math.MaxInt32-1)
		_, err := parseBlockHeader(b, 0)
		if (err == nil) != (mg < math.MaxInt32) {
			t.Errorf("minimum gap field %d: err = %v", mg, err)
		}
	}
	valid := binary.AppendUvarint(nil, 1)
	valid = binary.AppendUvarint(valid, 1)
	valid = append(valid, 0, 0)
	valid = binary.AppendUvarint(valid, 0)
	x, err := Read(bytes.NewReader(tpixOfBlock(valid, 1)))
	if err != nil {
		t.Fatalf("well-formed one-block image refused: %v", err)
	}
	assertTraversable(t, x, "well-formed one-block image")
}

// TestPayloadWalkRefusesRepeatsAndZeroTF holds checkListWire's payload
// decode (verifyBlock) to the list contract on its own, behind the
// header parser: a doc that does not ascend and a tf of 0 are each
// refused. parseBlockHeader no longer lets such a block through, so the
// walk is handed the wrapped headers as the unchecked reader reads
// them.
func TestPayloadWalkRefusesRepeatsAndZeroTF(t *testing.T) {
	block, _ := wrappedBlock("gap")
	last := int64(-1)
	h := readBlockHeader(block, 0) // minGap wrapped to 0
	if err := verifyBlock(block, h, &last, 2); err == nil || !strings.Contains(err.Error(), "after doc") {
		t.Errorf("repeated doc: err = %v", err)
	}
	block, _ = wrappedBlock("tf")
	last = -1
	h = readBlockHeader(block, 0) // minTF wrapped to 0
	if err := verifyBlock(block, h, &last, 2); err == nil || !strings.Contains(err.Error(), "tf 0") {
		t.Errorf("tf 0: err = %v", err)
	}
}

// FuzzDecodePostings fuzzes the block codec from both ends: the input
// bytes are (a) interpreted as a postings list, encoded, and decoded
// back — the encoding must be as long as blocksLen says, and the round
// trip must reproduce the list exactly through both the
// wire-validation path and the iterator — and (b) fed raw to the
// wire reader and to the full TPIX codec, which must reject corrupt
// or truncated input with an error, never a panic.
func FuzzDecodePostings(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 2, 3, 255, 30, 7, 0})
	// A well-formed encoding as a seed so mutations explore near-valid
	// block structures.
	_, seed, _ := encodePostings([]Posting{{Doc: 0, TF: 1}, {Doc: 5, TF: 3}, {Doc: 1000, TF: 9}}, nil)
	f.Add(seed)
	for _, field := range []string{"gap", "tf"} {
		block, _ := wrappedBlock(field)
		f.Add(block)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// (a) Round trip: encode(postings) then decode must be exact.
		pl := postingsFromBytes(data)
		cl, slab, err := encodePostings(pl, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := blocksLen(pl); n != len(slab) {
			t.Fatalf("blocksLen %d, encoded %d bytes", n, len(slab))
		}
		numDocs := 0
		if n := len(pl); n > 0 {
			numDocs = int(pl[n-1].Doc) + 1
		}
		if err := checkListWire(len(pl), slab, cl.lastDoc, numDocs, true); err != nil {
			t.Fatalf("valid encoding rejected: %v", err)
		}
		var it Iterator
		it.reset(slab, cl)
		for i, want := range pl {
			if !it.Valid() {
				t.Fatalf("iterator exhausted at %d/%d", i, len(pl))
			}
			if it.Doc() != want.Doc || it.TF() != want.TF {
				t.Fatalf("posting %d: got (%d,%d), want (%d,%d)", i, it.Doc(), it.TF(), want.Doc, want.TF)
			}
			it.Next()
		}
		if it.Valid() {
			t.Fatal("iterator valid past the end")
		}

		// (b) Arbitrary bytes as wire data: must error or succeed, never
		// panic. Plausible list lengths are tried so truncation at every
		// boundary is exercised; the last doc is checked only after every
		// block has been.
		for _, n := range []int{1, 7, BlockSize, BlockSize + 1} {
			_ = checkListWire(n, data, 0, 1<<20, true)
		}
		// And as a whole TPIX stream.
		_, _ = Read(bytes.NewReader(data))
	})
}

// assertTraversable walks every list of an index the reader accepted:
// documents strictly ascending and in range, term frequencies
// positive, document lengths non-negative. It is what "structurally
// valid" means for corrupted-but-accepted input (some flips only touch
// a term frequency or a document length, whose values carry no
// invariant beyond those).
func assertTraversable(t *testing.T, y *Index, what string) {
	t.Helper()
	for d := 0; d < y.NumDocs(); d++ {
		if dl := y.DocLen(corpus.DocID(d)); dl < 0 {
			t.Fatalf("%s: doc %d has length %d", what, d, dl)
		}
	}
	var it Iterator
	for tid := 0; tid < y.NumTerms(); tid++ {
		y.IterInto(textproc.TermID(tid), &it)
		prev := corpus.DocID(-1)
		for it.Valid() {
			if it.Doc() <= prev || int(it.Doc()) >= y.NumDocs() || it.TF() < 1 {
				t.Fatalf("%s: term %d: invalid posting (%d,%d) after prev %d", what, tid, it.Doc(), it.TF(), prev)
			}
			prev = it.Doc()
			it.Next()
		}
	}
}

// FuzzReadTPIX mutates real current-format files — one small, one
// whose lists span blocks, plus variants clipped and flipped in the
// trailing lists' last docs and the document lengths — and requires
// every Read outcome to be an error or a structurally valid index,
// never a panic. testdata/fuzz/FuzzReadTPIX holds four shapes (valid,
// truncated, corrupt block, corrupt last doc) as checked-in seeds;
// TPIX_WRITE_FUZZ_SEEDS=1 go test -run TestFuzzSeedsCurrent rewrites
// them after a format change.
func FuzzReadTPIX(f *testing.F) {
	x := buildTestIndex(f,
		"apache helicopter army weapons apache helicopter apache",
		"stock market investors trading volume stock",
		"apache webserver software configuration",
	)
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2])
	var mb bytes.Buffer
	if _, err := multiBlockIndex(f).WriteTo(&mb); err != nil {
		f.Fatal(err)
	}
	f.Add(mb.Bytes())
	// Mutations around the trailing quarter land in the last lists'
	// payloads and last docs and in the document lengths.
	f.Add(mb.Bytes()[:mb.Len()-mb.Len()/4])
	flipped := append([]byte(nil), mb.Bytes()...)
	for pos := len(flipped) - len(flipped)/4; pos < len(flipped); pos += 11 {
		flipped[pos] ^= 0x41
	}
	f.Add(flipped)
	for _, field := range []string{"gap", "tf"} {
		f.Add(tpixOfBlock(wrappedBlock(field)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		y, err := Read(bytes.NewReader(data))
		if err != nil || y == nil {
			return
		}
		assertTraversable(t, y, "accepted input")
	})
}

// fuzzSeeds are the checked-in FuzzReadTPIX corpus files, each derived
// from the four-document fixture image: as written, cut mid-dictionary,
// with the first list's block header zeroed, and with the first list's
// stored last doc moved to another document in range — a file only the
// payload decode can catch.
func fuzzSeeds(t *testing.T) map[string][]byte {
	t.Helper()
	x := fixtureIndex(t)
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	// The first list's packed data starts after magic+version (8),
	// numDocs, numTerms, the first term and its list and data lengths —
	// all single-byte varints at this size — and its last doc follows it.
	blockAt := 8 + 2 + 1 + len(x.Vocab().Term(0)) + 2
	block := append([]byte(nil), valid...)
	block[blockAt], block[blockAt+1] = 0, 0
	lastAt := blockAt + int(valid[blockAt-1])
	last := append([]byte(nil), valid...)
	last[lastAt] = byte((int(last[lastAt]) + 1) % x.NumDocs())
	return map[string][]byte{
		"valid":            valid,
		"truncated":        valid[:len(valid)/3],
		"corrupt-block":    block,
		"corrupt-last-doc": last,
	}
}

// TestFuzzSeedsCurrent holds the checked-in fuzz corpus to the current
// format: every seed file must equal what fuzzSeeds derives, the valid
// one must load and the damaged ones must be rejected past the version
// check — a corpus of old-version images would only ever exercise the
// version error.
func TestFuzzSeedsCurrent(t *testing.T) {
	for name, img := range fuzzSeeds(t) {
		path := filepath.Join("testdata", "fuzz", "FuzzReadTPIX", name)
		want := []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", img))
		if os.Getenv("TPIX_WRITE_FUZZ_SEEDS") != "" {
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with TPIX_WRITE_FUZZ_SEEDS=1 to generate)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s drifted from the current format (regenerate with TPIX_WRITE_FUZZ_SEEDS=1)", path)
		}
		_, err = Read(bytes.NewReader(img))
		if (err == nil) != (name == "valid") || (err != nil && strings.Contains(err.Error(), "TPIX version")) {
			t.Errorf("%s seed: Read err = %v; the valid seed must load, the others fail past the version check", name, err)
		}
	}
}

// TestV4CorruptBlocksRejected hand-corrupts a current-format stream of
// single-block lists — block widths, counts, payload truncation,
// last docs, document lengths — byte by byte and requires Read to return
// an error or a structurally valid index for each, not panic. (Named
// for the format version that introduced block compression.)
func TestV4CorruptBlocksRejected(t *testing.T) {
	sweepCorruptStream(t, fixtureIndex(t), 7, 1)
}

// TestV5CorruptStreamRejected is the same sweep over a stream whose
// longest list spans several blocks, so truncations and flips also land
// in interior block headers.
func TestV5CorruptStreamRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("byte-flip sweep is slow")
	}
	sweepCorruptStream(t, multiBlockIndex(t), 13, 3)
}

// sweepCorruptStream truncates x's image at every cutStep-th length
// (each must be rejected) and inverts every flipStep-th byte past the
// header (each must be rejected or load as a traversable index).
func sweepCorruptStream(t *testing.T, x *Index, cutStep, flipStep int) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	if _, err := Read(bytes.NewReader(orig)); err != nil {
		t.Fatalf("pristine image must load: %v", err)
	}
	for cut := 0; cut < len(orig); cut += cutStep {
		if _, err := Read(bytes.NewReader(orig[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes accepted", cut)
		}
	}
	for pos := 8; pos < len(orig); pos += flipStep {
		mut := append([]byte(nil), orig...)
		mut[pos] ^= 0xFF
		y, err := Read(bytes.NewReader(mut))
		if err != nil || y == nil {
			continue
		}
		assertTraversable(t, y, fmt.Sprintf("byte %d flipped", pos))
	}
}

package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"toppriv/internal/corpus"
	"toppriv/internal/textproc"
)

// fixtureIndex is a four-document index whose lists all fit one block
// (stemming off, matching buildTestIndex).
func fixtureIndex(t *testing.T) *Index {
	t.Helper()
	return buildTestIndex(t,
		"apache helicopter army weapons apache helicopter apache",
		"stock market investors trading volume stock",
		"apache webserver software configuration",
		"cooking recipes kitchen dinner helicopter",
	)
}

// multiBlockIndex builds an index whose "common" postings list spans
// several compressed blocks of differing tf widths — including a tf
// spike far from block 0. Single-block terms ("sparse", the
// unique fillers) ride along in the same stream.
func multiBlockIndex(t testing.TB) *Index {
	t.Helper()
	texts := make([]string, 300)
	for i := range texts {
		var sb strings.Builder
		// tf cycles 1..5 with a spike late in the list, so the widest
		// block is not the first one.
		tf := i%5 + 1
		if i == 290 {
			tf = 40
		}
		for j := 0; j < tf; j++ {
			sb.WriteString("common ")
		}
		fmt.Fprintf(&sb, "unique%d", i)
		if i%3 == 0 {
			sb.WriteString(" sparse")
		}
		texts[i] = sb.String()
	}
	return buildTestIndex(t, texts...)
}

// assertPostingsMatchFresh compares got's postings against a freshly
// built reference.
func assertPostingsMatchFresh(t *testing.T, got, want *Index) {
	t.Helper()
	if got.NumDocs() != want.NumDocs() || got.NumTerms() != want.NumTerms() {
		t.Fatalf("shape: %d/%d docs, %d/%d terms",
			got.NumDocs(), want.NumDocs(), got.NumTerms(), want.NumTerms())
	}
	for tid := 0; tid < want.NumTerms(); tid++ {
		term := want.Vocab().Term(textproc.TermID(tid))
		gid := got.Vocab().ID(term)
		wpl, gpl := want.Postings(textproc.TermID(tid)), got.Postings(gid)
		if len(wpl) != len(gpl) {
			t.Fatalf("term %q: %d vs %d postings", term, len(gpl), len(wpl))
		}
		for i := range wpl {
			if wpl[i] != gpl[i] {
				t.Fatalf("term %q posting %d: %v vs %v", term, i, gpl[i], wpl[i])
			}
		}
	}
}

// TestOtherVersionsRejected feeds header-only images of every TPIX
// version this build does not read through both open paths: each must
// come back as an error naming the version found and the one
// supported, never a panic and never a partial index. Index files are
// input from outside the program — a data directory written by an
// older or newer build is the expected way to meet one.
func TestOtherVersionsRejected(t *testing.T) {
	for _, version := range []uint32{0, 1, 2, 3, 4, 5, 6, 7, 8, 10} {
		img := binary.LittleEndian.AppendUint32([]byte(codecMagic), version)
		want := fmt.Sprintf("TPIX version %d: this build reads version %d only", version, codecVersion)
		_, err := Read(bytes.NewReader(img))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Read v%d: err = %v, want mention of %q", version, err, want)
		}
		path := filepath.Join(t.TempDir(), "old.tpix")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = OpenMapped(path)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("OpenMapped v%d: err = %v, want mention of %q", version, err, want)
		}
	}
}

// irregularBlocks re-encodes every list of x in runs of varying length,
// interior blocks shorter than BlockSize among them — the layout of v9
// files written while Merge still copied a clean part's blocks verbatim,
// one partial block at every part seam. The result holds x's postings.
func irregularBlocks(x *Index) *Index {
	runs := []int{BlockSize, 37, 1, 90, BlockSize - 1}
	y := &Index{vocab: x.vocab, lists: make([]compList, len(x.lists)), docLen: x.docLen, numDocs: x.numDocs, totalLen: x.totalLen}
	for tid := range x.lists {
		pl := x.Postings(textproc.TermID(tid))
		if len(pl) == 0 {
			continue
		}
		off := len(y.data)
		prev := corpus.DocID(-1)
		for start, r := 0, 0; start < len(pl); r++ {
			end := min(start+runs[r%len(runs)], len(pl))
			y.data = appendBlock(y.data, prev, pl[start:end])
			prev, start = pl[end-1].Doc, end
		}
		y.lists[tid] = compList{off: uint32(off), end: uint32(len(y.data)), n: int32(len(pl)), lastDoc: prev}
	}
	return y
}

// TestPartialInteriorBlocksLoad holds both open paths to the v9 files
// that predate Merge's re-encoding: an image whose lists carry partial
// interior blocks must load through Read and OpenMapped and yield the
// postings it was written from.
func TestPartialInteriorBlocksLoad(t *testing.T) {
	want := multiBlockIndex(t)
	var buf bytes.Buffer
	if _, err := irregularBlocks(want).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	assertPostingsMatchFresh(t, back, want)
	path := filepath.Join(t.TempDir(), "seams.tpix")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenMapped(path)
	if err != nil {
		t.Fatalf("OpenMapped: %v", err)
	}
	defer mapped.Close()
	assertPostingsMatchFresh(t, mapped, want)
}

// TestReadBlockHeaderMatchesParser pins the traversal-time header read
// to the validating parser: on every block of every list the package
// accepts or produces — the four-document fixture through a TPIX v9
// round trip, each checked-in fuzz seed that loads, a multi-block build,
// the same lists with partial interior blocks, and merges of random
// part sizes under random tombstones — readBlockHeader returns exactly
// what parseBlockHeader does, walking the header chain as the iterator
// does: each block starts where its predecessor's header says it ends.
func TestReadBlockHeaderMatchesParser(t *testing.T) {
	check := func(label string, x *Index) {
		t.Helper()
		blocks := 0
		for tid := range x.lists {
			cl := x.lists[tid]
			data := x.data[cl.off:cl.end]
			for off, b := 0, 0; off < len(data); b++ {
				want, err := parseBlockHeader(data, off)
				if err != nil {
					t.Fatalf("%s: term %d block %d: validating parser: %v", label, tid, b, err)
				}
				if got := readBlockHeader(data, off); got != want {
					t.Fatalf("%s: term %d block %d: unchecked read %+v, parser %+v", label, tid, b, got, want)
				}
				off = want.end
				blocks++
			}
		}
		if blocks == 0 {
			t.Fatalf("%s: no blocks compared", label)
		}
	}

	var buf bytes.Buffer
	if _, err := fixtureIndex(t).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	check("v9 fixture", back)
	for name, img := range fuzzSeeds(t) {
		if x, err := Read(bytes.NewReader(img)); err == nil {
			check("fuzz seed "+name, x)
		}
	}
	check("multi-block build", multiBlockIndex(t))
	check("partial interior blocks", irregularBlocks(multiBlockIndex(t)))

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		sizes := make([]int, 2+rng.Intn(3))
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(2*BlockSize+40)
		}
		parts, _ := sharedVocabParts(t, sizes)
		keep := make([]func(corpus.DocID) bool, len(parts))
		for i := range keep {
			if mod := corpus.DocID(2 + rng.Intn(5)); rng.Intn(2) == 0 {
				keep[i] = func(d corpus.DocID) bool { return d%mod != 1 }
			}
		}
		merged, _, err := Merge(parts, keep)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("merge of %v", sizes), merged)
	}
}

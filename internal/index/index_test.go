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
	"testing/quick"
	"unsafe"

	"toppriv/internal/corpus"
	"toppriv/internal/textproc"
)

func buildTestCorpus(t *testing.T) *corpus.Corpus {
	t.Helper()
	docs := []corpus.Document{
		{Text: "apache helicopter army helicopter"},
		{Text: "stock market stock stock"},
		{Text: "apache stock"},
		{Text: "empty-doc-filler filler"},
	}
	an := textproc.NewAnalyzer(textproc.WithStemming(false))
	c, err := corpus.Build(docs, an, textproc.PruneSpec{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuildPostings(t *testing.T) {
	c := buildTestCorpus(t)
	x, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	if x.NumDocs() != 4 {
		t.Errorf("NumDocs = %d", x.NumDocs())
	}
	pl := x.PostingsByTerm("apache")
	if len(pl) != 2 {
		t.Fatalf("apache postings = %v", pl)
	}
	if pl[0].Doc != 0 || pl[0].TF != 1 {
		t.Errorf("apache doc0 posting = %+v", pl[0])
	}
	if pl[1].Doc != 2 || pl[1].TF != 1 {
		t.Errorf("apache doc2 posting = %+v", pl[1])
	}
	plStock := x.PostingsByTerm("stock")
	if len(plStock) != 2 || plStock[0].TF != 3 {
		t.Errorf("stock postings = %v", plStock)
	}
	plHeli := x.PostingsByTerm("helicopter")
	if len(plHeli) != 1 || plHeli[0].TF != 2 {
		t.Errorf("helicopter postings = %v", plHeli)
	}
}

func TestPostingsSorted(t *testing.T) {
	c := buildTestCorpus(t)
	x, _ := Build(c)
	for id := 0; id < x.NumTerms(); id++ {
		pl := x.Postings(textproc.TermID(id))
		for i := 1; i < len(pl); i++ {
			if pl[i-1].Doc >= pl[i].Doc {
				t.Fatalf("term %d postings not strictly sorted: %v", id, pl)
			}
		}
	}
}

func TestIDF(t *testing.T) {
	c := buildTestCorpus(t)
	x, _ := Build(c)
	apache := x.Vocab().ID("apache")
	heli := x.Vocab().ID("helicopter")
	if x.IDF(apache) >= x.IDF(heli) {
		t.Error("rarer term must have higher IDF")
	}
	want := math.Log(1 + 4.0/2.0)
	if got := x.IDF(apache); math.Abs(got-want) > 1e-12 {
		t.Errorf("IDF = %v, want %v", got, want)
	}
	if x.IDF(textproc.InvalidTerm) != 0 {
		t.Error("unknown term must have IDF 0")
	}
}

func TestDocLen(t *testing.T) {
	c := buildTestCorpus(t)
	x, _ := Build(c)
	if x.DocLen(0) != 4 {
		t.Errorf("DocLen(0) = %d, want 4", x.DocLen(0))
	}
	if x.DocLen(-1) != 0 || x.DocLen(1000) != 0 {
		t.Error("out-of-range DocLen should be 0")
	}
	if avg := x.AvgDocLen(); avg <= 0 {
		t.Errorf("AvgDocLen = %v", avg)
	}
}

func TestBuildNil(t *testing.T) {
	if _, err := Build(nil); err == nil {
		t.Error("Build(nil) should error")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	spec := corpus.GenSpec{Seed: 11, NumDocs: 120, NumTopics: 6, DocLenMin: 30, DocLenMax: 60}
	c, _, err := corpus.Synthesize(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	x, err := Build(c)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := x.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	y, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if y.NumDocs() != x.NumDocs() || y.NumTerms() != x.NumTerms() {
		t.Fatalf("shape mismatch after round trip")
	}
	// SizeBytes is measured once and remembered; both the first and the
	// remembered answer must be the length of a real serialization.
	for pass := 0; pass < 2; pass++ {
		if x.SizeBytes() != n || y.SizeBytes() != n {
			t.Fatalf("pass %d: SizeBytes %d (built) / %d (read), WriteTo wrote %d", pass, x.SizeBytes(), y.SizeBytes(), n)
		}
	}
	for id := 0; id < x.NumTerms(); id++ {
		tid := textproc.TermID(id)
		if x.Vocab().Term(tid) != y.Vocab().Term(tid) {
			t.Fatalf("term %d mismatch", id)
		}
		a, b := x.Postings(tid), y.Postings(tid)
		if len(a) != len(b) {
			t.Fatalf("term %d list length mismatch", id)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("term %d posting %d mismatch: %+v vs %+v", id, i, a[i], b[i])
			}
		}
	}
	for d := 0; d < x.NumDocs(); d++ {
		if x.DocLen(corpus.DocID(d)) != y.DocLen(corpus.DocID(d)) {
			t.Fatalf("doc %d length mismatch", d)
		}
	}
}

// TestSizeBytesIsWriteTo holds the arithmetic SizeBytes to the bytes
// WriteTo emits, for built, merged, stream-read and mapped indexes.
func TestSizeBytesIsWriteTo(t *testing.T) {
	parts, _ := sharedVocabParts(t, []int{300, 2, 140})
	merged, _, err := Merge(parts, []func(corpus.DocID) bool{nil, nil, func(d corpus.DocID) bool { return d%3 != 0 }})
	if err != nil {
		t.Fatal(err)
	}
	built, err := Build(buildTestCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	empty, err := Build(&corpus.Corpus{Vocab: textproc.NewVocab()})
	if err != nil {
		t.Fatal(err)
	}
	for name, x := range map[string]*Index{"built": built, "multi-block": multiBlockIndex(t), "merged": merged, "empty": empty} {
		var buf bytes.Buffer
		n, err := x.WriteTo(&buf)
		if err != nil {
			t.Fatal(err)
		}
		read, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		mapped, err := OpenMapped(writeTempTPIX(t, x))
		if err != nil {
			t.Fatal(err)
		}
		for form, y := range map[string]*Index{"as is": x, "read": read, "mapped": mapped} {
			if got := y.SizeBytes(); got != n {
				t.Errorf("%s, %s: SizeBytes %d, WriteTo wrote %d", name, form, got, n)
			}
		}
		mapped.Close()
	}
}

// TestBuilderStartsOverAfterIndex: a builder that has handed one index
// over builds the next from nothing but what it is given next — the
// same bytes as Build over those documents — and lends out its count
// array all zero.
func TestBuilderStartsOverAfterIndex(t *testing.T) {
	c := buildTestCorpus(t)
	var b Builder
	for _, bag := range c.Bags[:2] {
		b.Add(bag)
	}
	if _, err := b.Index(c.Vocab); err != nil {
		t.Fatal(err)
	}
	for _, bag := range c.Bags[2:] {
		b.Add(bag)
	}
	got, err := b.Index(c.Vocab)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Build(&corpus.Corpus{Docs: c.Docs[2:], Vocab: c.Vocab, Bags: c.Bags[2:]})
	if err != nil {
		t.Fatal(err)
	}
	var gotBuf, wantBuf bytes.Buffer
	got.WriteTo(&gotBuf)
	want.WriteTo(&wantBuf)
	if !bytes.Equal(gotBuf.Bytes(), wantBuf.Bytes()) {
		t.Fatal("second index differs from Build over its documents")
	}
	for id, n := range b.Scratch(c.Vocab.Size() + 5) {
		if n != 0 {
			t.Fatalf("scratch[%d] = %d, want all zero", id, n)
		}
	}
	if _, err := Build(&corpus.Corpus{Docs: c.Docs, Vocab: c.Vocab, Bags: c.Bags[1:]}); err == nil {
		t.Fatal("Build over fewer bags than documents must fail")
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOPE1234"))); err == nil {
		t.Error("bad magic must be rejected")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("empty input must be rejected")
	}
	// Valid magic, wrong version.
	bad := append([]byte(codecMagic), 0xFF, 0xFF, 0xFF, 0xFF)
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Error("bad version must be rejected")
	}
	// Truncated stream after header.
	var buf bytes.Buffer
	c := buildCorpusForCodec(t)
	x, _ := Build(c)
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Read(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated stream must be rejected")
	}
}

// TestCodecRejectsRepeatedTerm: a dictionary naming one term twice
// would leave the index with more lists than terms; both readers refuse
// it at open.
func TestCodecRejectsRepeatedTerm(t *testing.T) {
	vocab := textproc.NewVocab()
	alpha, bravo := vocab.Add("alpha"), vocab.Add("bravo")
	x, err := Build(&corpus.Corpus{Docs: make([]corpus.Document, 2), Vocab: vocab, Bags: [][]textproc.TermID{{alpha}, {bravo}}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	image := bytes.Replace(buf.Bytes(), []byte("bravo"), []byte("alpha"), 1)
	if _, err := Read(bytes.NewReader(image)); err == nil || !strings.Contains(err.Error(), "repeats") {
		t.Fatalf("Read: err = %v, want a repeated-term error", err)
	}
	path := filepath.Join(t.TempDir(), "repeat.tpix")
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMapped(path); err == nil || !strings.Contains(err.Error(), "repeats") {
		t.Fatalf("OpenMapped: err = %v, want a repeated-term error", err)
	}
}

// TestShareVocab: an index takes a view of a dictionary that holds its
// terms at the same IDs, and writes the same image after; a dictionary
// that disagrees or is too short is refused and the index keeps its own.
func TestShareVocab(t *testing.T) {
	x, err := Build(buildCorpusForCodec(t))
	if err != nil {
		t.Fatal(err)
	}
	var before bytes.Buffer
	if _, err := x.WriteTo(&before); err != nil {
		t.Fatal(err)
	}
	own := x.Vocab()

	short := textproc.NewVocab()
	short.Add(own.Term(0))
	foreign := textproc.NewVocab()
	for id := x.NumTerms() - 1; id >= 0; id-- {
		foreign.Add(own.Term(textproc.TermID(id)))
	}
	for name, dict := range map[string]*textproc.Vocab{"short": short, "foreign": foreign} {
		if err := x.ShareVocab(dict); err == nil {
			t.Fatalf("%s dictionary accepted", name)
		}
		if x.Vocab() != own {
			t.Fatalf("%s dictionary: index lost its own after a refusal", name)
		}
	}

	store := textproc.NewVocab()
	for id := 0; id < x.NumTerms(); id++ {
		store.Add(own.Term(textproc.TermID(id)))
	}
	store.Add("grown") // the store's dictionary runs past the index's
	if err := x.ShareVocab(store); err != nil {
		t.Fatal(err)
	}
	if v := x.Vocab(); !v.Frozen() || v.Size() != x.NumTerms() {
		t.Fatalf("shared dictionary: frozen %v, %d terms, index has %d", v.Frozen(), v.Size(), x.NumTerms())
	}
	var after bytes.Buffer
	if _, err := x.WriteTo(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("image changed when the index took the shared dictionary")
	}
}

func buildCorpusForCodec(t *testing.T) *corpus.Corpus {
	t.Helper()
	docs := []corpus.Document{
		{Text: "alpha beta gamma delta"},
		{Text: "alpha alpha beta"},
	}
	an := textproc.NewAnalyzer(textproc.WithStemming(false))
	c, err := corpus.Build(docs, an, textproc.PruneSpec{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestStats(t *testing.T) {
	c := buildTestCorpus(t)
	x, _ := Build(c)
	s := x.ComputeStats()
	if s.NumDocs != 4 || s.NumTerms != x.NumTerms() {
		t.Errorf("stats shape: %+v", s)
	}
	if s.MaxListLen < 1 || s.MeanListLen <= 0 {
		t.Errorf("degenerate list stats: %+v", s)
	}
	if s.SizeBytes <= 0 {
		t.Errorf("SizeBytes = %d", s.SizeBytes)
	}
	if s.PaddedPIRBytes < s.SizeBytes {
		t.Errorf("PIR padding should not shrink the index: %+v", s)
	}
	if s.BlowupFactor() < 1 {
		t.Errorf("BlowupFactor = %v, want >= 1", s.BlowupFactor())
	}
}

func TestStatsPIRBlowupGrowsWithSkew(t *testing.T) {
	// A skewed corpus (one ubiquitous term) must show a much larger PIR
	// blowup than a uniform one — this is the paper's §II argument.
	uniformDocs := make([]corpus.Document, 50)
	skewDocs := make([]corpus.Document, 50)
	for i := range uniformDocs {
		uniformDocs[i] = corpus.Document{Text: wordFor(i)}
		skewDocs[i] = corpus.Document{Text: "common " + wordFor(i)}
	}
	an := textproc.NewAnalyzer(textproc.WithStemming(false))
	uc, _ := corpus.Build(uniformDocs, an, textproc.PruneSpec{})
	sc, _ := corpus.Build(skewDocs, an, textproc.PruneSpec{})
	ux, _ := Build(uc)
	sx, _ := Build(sc)
	if sx.ComputeStats().BlowupFactor() <= ux.ComputeStats().BlowupFactor() {
		t.Error("skewed corpus should have larger PIR blowup")
	}
}

func wordFor(i int) string {
	letters := "abcdefghijklmnopqrstuvwxyz"
	return "w" + string(letters[i%26]) + string(letters[(i/26)%26])
}

// Property: postings TF sums equal document lengths.
func TestPostingsMassConservation(t *testing.T) {
	f := func(seed int64) bool {
		spec := corpus.GenSpec{Seed: seed, NumDocs: 30, NumTopics: 4, DocLenMin: 10, DocLenMax: 30}
		c, _, err := corpus.Synthesize(spec, nil)
		if err != nil {
			return false
		}
		x, err := Build(c)
		if err != nil {
			return false
		}
		perDoc := make([]int32, x.NumDocs())
		for id := 0; id < x.NumTerms(); id++ {
			for _, p := range x.Postings(textproc.TermID(id)) {
				perDoc[p.Doc] += p.TF
			}
		}
		for d, sum := range perDoc {
			if int(sum) != x.DocLen(corpus.DocID(d)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestPostingsByTermMissing(t *testing.T) {
	c := buildTestCorpus(t)
	x, _ := Build(c)
	if pl := x.PostingsByTerm("not-in-vocab"); pl != nil {
		t.Errorf("missing term should yield nil postings, got %v", pl)
	}
	if pl := x.Postings(textproc.TermID(1 << 20)); pl != nil {
		t.Error("out-of-range id should yield nil postings")
	}
}

// Property: the codec round-trips arbitrary synthesized corpora.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		spec := corpus.GenSpec{Seed: seed, NumDocs: 25, NumTopics: 3, DocLenMin: 10, DocLenMax: 25}
		c, _, err := corpus.Synthesize(spec, nil)
		if err != nil {
			return false
		}
		x, err := Build(c)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if _, err := x.WriteTo(&buf); err != nil {
			return false
		}
		y, err := Read(&buf)
		if err != nil {
			return false
		}
		if y.NumDocs() != x.NumDocs() || y.NumTerms() != x.NumTerms() {
			return false
		}
		for id := 0; id < x.NumTerms(); id++ {
			a, b := x.Postings(textproc.TermID(id)), y.Postings(textproc.TermID(id))
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func TestReadTruncatedDocLens(t *testing.T) {
	// Truncate specifically inside the trailing doc-length section.
	c := buildTestCorpus(t)
	x, _ := Build(c)
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-2]
	if _, err := Read(bytes.NewReader(cut)); err == nil {
		t.Error("truncated doc lengths must be rejected")
	}
}

// TestReadRejectsHugeDocLens: a stored document length past
// math.MaxInt32 — numDocs's own bound — is refused by both open paths
// with an error naming the document. Accepted, 1<<63 would load as a
// negative length and drive AvgDocLen, and with it the BM25 length
// factor, below zero.
func TestReadRejectsHugeDocLens(t *testing.T) {
	for _, dl := range []uint64{1 << 40, 1 << 63} {
		// An image ends with its documents' lengths: rewrite document 1's.
		x := fixtureIndex(t)
		var buf bytes.Buffer
		if _, err := x.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		tail := 0
		for _, n := range x.docLen {
			tail += uvarintLen(uint64(n))
		}
		img := buf.Bytes()[:buf.Len()-tail]
		for d, n := range x.docLen {
			v := uint64(n)
			if d == 1 {
				v = dl
			}
			img = binary.AppendUvarint(img, v)
		}
		path := filepath.Join(t.TempDir(), "huge.tpix")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("doc 1 length %d out of range", dl)
		if _, err := Read(bytes.NewReader(img)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Read: length %d: err = %v, want %q", dl, err, want)
		}
		if _, err := OpenMapped(path); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("OpenMapped: length %d: err = %v, want %q", dl, err, want)
		}
	}
}

// TestListEntryIs16Bytes holds the entry an index keeps for every
// dictionary term to 16 bytes: the span of its payload, its count and
// its last document.
func TestListEntryIs16Bytes(t *testing.T) {
	if size := unsafe.Sizeof(compList{}); size > 16 {
		t.Fatalf("a list entry is %d bytes, want at most 16", size)
	}
}

// TestPayloadsShareOneSlab: a built, a merged and a stream-read index
// each hold every payload in one exact-size allocation, and a mapped
// index addresses the lists where they lie in its file image.
func TestPayloadsShareOneSlab(t *testing.T) {
	x := multiBlockIndex(t)
	assertOneSlab(t, "build", x)
	merged, _, err := Merge([]*Index{x, x}, []func(corpus.DocID) bool{nil, func(d corpus.DocID) bool { return d%3 == 0 }})
	if err != nil {
		t.Fatal(err)
	}
	assertOneSlab(t, "merge", merged)
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	assertOneSlab(t, "read", back)
	if !bytes.Equal(back.data, x.data) {
		t.Fatal("read: the slab differs from the built one")
	}
	mapped, err := OpenMapped(writeTempTPIX(t, x))
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if !bytes.Equal(mapped.data, buf.Bytes()) {
		t.Fatalf("mapped: the slab is %d bytes, not the %d-byte file image", len(mapped.data), buf.Len())
	}
	for tid, cl := range mapped.lists {
		want := x.lists[tid]
		if cl.n != want.n || cl.lastDoc != want.lastDoc || !bytes.Equal(mapped.data[cl.off:cl.end], x.data[want.off:want.end]) {
			t.Fatalf("mapped: list %d is %+v, built %+v", tid, cl, want)
		}
	}
}

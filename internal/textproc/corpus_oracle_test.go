package textproc_test

import (
	"reflect"
	"slices"
	"testing"
	"unicode/utf8"

	"toppriv/internal/corpus"
	"toppriv/internal/textproc"
)

// TestAnalyzeCorpusMatchesReference analyzes every document of the
// benchmark's synthetic corpus and a query workload over it with the
// production pipeline and the reference, and requires equal results. It
// lives here rather than in internal/corpus because the reference is
// test code of this package.
func TestAnalyzeCorpusMatchesReference(t *testing.T) {
	spec := corpus.GenSpec{Seed: 1, NumDocs: 9000, NumTopics: 32, WordsPerTopic: 150, SharedWords: 200}
	if testing.Short() {
		spec.NumDocs = 1000
	}
	c, gt, err := corpus.Synthesize(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	queries, err := corpus.Workload(gt, corpus.WorkloadSpec{Seed: 1, NumQueries: 2000})
	if err != nil {
		t.Fatal(err)
	}
	texts := make([]string, 0, len(c.Docs)+len(queries))
	for _, d := range c.Docs {
		texts = append(texts, d.Text)
	}
	for _, q := range queries {
		texts = append(texts, q.Text())
	}
	an := textproc.NewAnalyzer()
	nonASCII := 0
	for _, text := range texts {
		if got, want := an.Analyze(text), textproc.RefAnalyze(text, true); !reflect.DeepEqual(got, want) {
			t.Fatalf("Analyze(%q) = %q, reference %q", text, got, want)
		}
		for i := 0; i < len(text); i++ {
			if text[i] >= utf8.RuneSelf {
				nonASCII++
				break
			}
		}
	}
	t.Logf("%d documents and %d queries analyze identically; %d texts are not ASCII", len(c.Docs), len(queries), nonASCII)
}

// TestDocAnalyzerMatchesAnalyze analyzes every document of the
// benchmark's synthetic corpus into IDs through one memoized
// DocAnalyzer, and requires the ID sequence Analyze + Vocab.Add gives
// over a dictionary of its own, document for document, and the same
// dictionary at the end.
func TestDocAnalyzerMatchesAnalyze(t *testing.T) {
	spec := corpus.GenSpec{Seed: 1, NumDocs: 9000, NumTopics: 32, WordsPerTopic: 150, SharedWords: 200}
	if testing.Short() {
		spec.NumDocs = 1000
	}
	c, _, err := corpus.Synthesize(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	an := textproc.NewAnalyzer()
	memoVocab, refVocab := textproc.NewVocab(), textproc.NewVocab()
	da := textproc.NewDocAnalyzer(an, memoVocab)
	var got, want []textproc.TermID
	for d, doc := range c.Docs {
		got = da.AppendIDs(got[:0], doc.Text)
		want = want[:0]
		for _, term := range an.Analyze(doc.Text) {
			want = append(want, refVocab.Add(term))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("document %d: AppendIDs = %v, Analyze + Vocab.Add = %v", d, got, want)
		}
	}
	if !slices.Equal(memoVocab.Terms(), refVocab.Terms()) {
		t.Fatal("the two dictionaries differ")
	}
	t.Logf("%d documents, %d terms", len(c.Docs), memoVocab.Size())
}

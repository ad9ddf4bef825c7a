package textproc

import (
	"reflect"
	"strings"
	"testing"
)

func TestAnalyzerPipeline(t *testing.T) {
	a := NewAnalyzer()
	got := a.Analyze("The helicopters were flying over the compound")
	// "the", "were", "over" are stopwords; remaining words are stemmed.
	want := []string{"helicopt", "fly", "compound"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Analyze = %v, want %v", got, want)
	}
}

func TestAnalyzerNoStem(t *testing.T) {
	a := NewAnalyzer(WithStemming(false))
	got := a.Analyze("running quickly")
	want := []string{"running", "quickly"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Analyze = %v, want %v", got, want)
	}
}

func TestAnalyzerQueryDocConsistency(t *testing.T) {
	// The core invariant the search engine depends on: a query term and
	// a document term with the same surface family normalize to the same
	// index term.
	a := NewAnalyzer()
	doc := a.Analyze("compression standards for imaging")
	query := a.Analyze("image compression standard")
	docSet := map[string]bool{}
	for _, term := range doc {
		docSet[term] = true
	}
	matches := 0
	for _, term := range query {
		if docSet[term] {
			matches++
		}
	}
	if matches < 2 {
		t.Errorf("query/doc normalization mismatch: doc=%v query=%v", doc, query)
	}
}

func TestAnalyzeTerm(t *testing.T) {
	a := NewAnalyzer()
	if _, ok := a.AnalyzeTerm("the"); ok {
		t.Error("stopword must not survive AnalyzeTerm")
	}
	if term, ok := a.AnalyzeTerm("Helicopters"); !ok || term != "helicopt" {
		t.Errorf("AnalyzeTerm = %q, %v", term, ok)
	}
	if _, ok := a.AnalyzeTerm("two words"); ok {
		t.Error("multi-token input must be rejected")
	}
	if _, ok := a.AnalyzeTerm("!"); ok {
		t.Error("punctuation must be rejected")
	}
}

// TestDocAnalyzerAllocatesOnlyTheScanBuffer: once the memo holds every
// token of a document, analyzing it again into a sized ID slice costs the
// scan's one lowercasing buffer (the document has capitals) and nothing
// else: no result slice, no stem, no dictionary entry, no memo entry.
func TestDocAnalyzerAllocatesOnlyTheScanBuffer(t *testing.T) {
	text := "Submarine reactors need cooling; the reactor cooling loop runs pumps, valves and heat exchangers aboard every submarine in the fleet."
	vocab := NewVocab()
	da := NewDocAnalyzer(NewAnalyzer(), vocab)
	ids := da.AppendIDs(nil, text)
	if len(ids) < 10 || vocab.Size() >= len(ids) {
		t.Fatalf("fixture: %d terms, %d distinct; want a long document with repeats", len(ids), vocab.Size())
	}
	if allocs := testing.AllocsPerRun(50, func() { da.AppendIDs(ids[:0], text) }); allocs > 1 {
		t.Errorf("a memoized document allocates %.0f times, want the scan buffer alone", allocs)
	}
}

// isStopword's shape pre-check must pass every stopword to the map.
func TestIsStopword(t *testing.T) {
	for w := range DefaultStopSet() {
		if !isStopword(w) {
			t.Errorf("isStopword(%q) = false", w)
		}
	}
	for _, w := range []string{"", "t", "thee", "shares", "ah-64", "théir", strings.Repeat("a", 20)} {
		if isStopword(w) {
			t.Errorf("isStopword(%q) = true", w)
		}
	}
}

func TestStopSetOps(t *testing.T) {
	s := DefaultStopSet()
	n := s.Len()
	if !s.Contains("the") {
		t.Error("default set must contain 'the'")
	}
	s.Add("zzz")
	if !s.Contains("zzz") || s.Len() != n+1 {
		t.Error("Add failed")
	}
	delete(s, "the")
	// The package-level default must be unaffected.
	if !DefaultStopSet().Contains("the") {
		t.Error("DefaultStopSet must return an independent copy")
	}
}

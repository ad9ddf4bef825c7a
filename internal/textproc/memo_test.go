package textproc

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// memoVocab is a small dictionary for text: a fixed handful of terms,
// and every other term of text itself, so the text has terms the
// dictionary holds and terms it lacks.
func memoVocab(an *Analyzer, text string) *Vocab {
	vocab := NewVocab()
	for _, term := range an.Analyze("helicopters compound house running relational") {
		vocab.Add(term)
	}
	for i, term := range an.Analyze(text) {
		if i%2 == 0 {
			vocab.Add(term)
		}
	}
	return vocab
}

// wantIDs is what a TermMemo must give: Vocab.ID over Analyze(text).
func wantIDs(an *Analyzer, vocab *Vocab, text string) []TermID {
	var ids []TermID
	for _, term := range an.Analyze(text) {
		ids = append(ids, vocab.ID(term))
	}
	return ids
}

// checkMemoEntries holds every entry of m to what the pipeline says of
// its token: a dropped token maps to InvalidTerm, any other to the ID
// of its term, which the dictionary holds. It also holds m to its bound.
func checkMemoEntries(t *testing.T, m *TermMemo) {
	t.Helper()
	for tok, id := range m.ids {
		s := tokenScanner{text: tok}
		term, kept := m.an.normalize(&s, tok)
		switch {
		case !kept && id != InvalidTerm:
			t.Fatalf("dropped token %q memoized as %d", tok, id)
		case kept && (id == InvalidTerm || m.vocab.ID(term) != id):
			t.Fatalf("token %q memoized as %d, dictionary has %q at %d", tok, id, term, m.vocab.ID(term))
		}
	}
	if n, limit := len(m.ids), 2*m.vocab.Size(); n > limit {
		t.Fatalf("memo holds %d tokens, bound %d", n, limit)
	}
}

// checkTermMemo holds a cold and a warm TermMemo to Vocab.ID over
// Analyze on one input.
func checkTermMemo(t *testing.T, text string) {
	t.Helper()
	for _, stem := range []bool{true, false} {
		an := NewAnalyzer(WithStemming(stem))
		vocab := memoVocab(an, text)
		want := wantIDs(an, vocab, text)
		m := NewTermMemo(an, vocab)
		for _, pass := range []string{"cold", "warm"} {
			if got := m.AppendIDs(nil, text); !slices.Equal(got, want) {
				t.Fatalf("stem=%v %s: AppendIDs(%q) = %v, Vocab.ID over Analyze %v", stem, pass, text, got, want)
			}
		}
		checkMemoEntries(t, m)
	}
}

func FuzzTermMemo(f *testing.F) {
	for _, s := range analyzeSeeds {
		f.Add(s)
	}
	f.Add("hous house houses housing televis television")
	f.Fuzz(checkTermMemo)
}

// TestTermMemoMatchesAnalyze runs the fuzz check over seeded random
// strings; FuzzTermMemo explores further when fuzzing.
func TestTermMemoMatchesAnalyze(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		checkTermMemo(t, randomText(rng, 1+rng.Intn(60)))
	}
}

// TestTermMemoDoubleAnalysis pins today's behaviour on a stem that
// Porter does not map to itself: the query token "hous" (what a client
// that sends stems as text sends for "house") stems again, to "hou",
// which the dictionary lacks. The memo gives Vocab.ID over Analyze —
// InvalidTerm — and does not keep the token, while "house" resolves.
func TestTermMemoDoubleAnalysis(t *testing.T) {
	an := NewAnalyzer()
	vocab := NewVocab()
	hous := vocab.Add("hous")
	m := NewTermMemo(an, vocab)
	for pass := 0; pass < 2; pass++ {
		if got := m.AppendIDs(nil, "hous"); !slices.Equal(got, []TermID{InvalidTerm}) {
			t.Fatalf("pass %d: hous resolves to %v, want [InvalidTerm]", pass, got)
		}
		if got := m.AppendIDs(nil, "house"); !slices.Equal(got, []TermID{hous}) {
			t.Fatalf("pass %d: house resolves to %v, want [%d]", pass, got, hous)
		}
	}
	if _, kept := m.ids["hous"]; kept || len(m.ids) != 1 {
		t.Errorf("memo holds %v; want house alone", m.ids)
	}
}

// TestTermMemoIsBounded feeds a memo over a three-term dictionary
// thousands of distinct tokens: none whose term the dictionary lacks is
// kept, the stopwords it may keep stop at twice the dictionary's size,
// and every answer past the bound is still Vocab.ID over Analyze.
func TestTermMemoIsBounded(t *testing.T) {
	an := NewAnalyzer()
	vocab := NewVocab()
	for _, term := range an.Analyze("submarine reactor cooling") {
		vocab.Add(term)
	}
	m := NewTermMemo(an, vocab)
	var b strings.Builder
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&b, "junk%dx ", i)
	}
	junk := b.String()
	if got := m.AppendIDs(nil, junk); len(got) != 5000 || slices.ContainsFunc(got, func(id TermID) bool { return id != InvalidTerm }) {
		t.Fatalf("junk resolved to %d IDs, some valid; want 5000 InvalidTerm", len(got))
	}
	if n := len(m.ids); n != 0 {
		t.Fatalf("memo kept %d junk tokens", n)
	}
	words := make([]string, 0, len(stopwords)+3)
	for w := range stopwords {
		words = append(words, w)
	}
	slices.Sort(words)
	words = append(words, "submarines", "reactors", "cooling")
	text := strings.Join(words, " ")
	for pass := 0; pass < 2; pass++ {
		if got, want := m.AppendIDs(nil, text), wantIDs(an, vocab, text); !slices.Equal(got, want) {
			t.Fatalf("pass %d: AppendIDs = %v, want %v", pass, got, want)
		}
	}
	if n, limit := len(m.ids), 2*vocab.Size(); n != limit {
		t.Errorf("memo holds %d tokens after %d distinct stopwords, want its bound %d", n, len(stopwords), limit)
	}
	checkMemoEntries(t, m)
}

// TestTermMemoHitAllocatesNothing: once the memo holds every token of a
// lowercase text, resolving it into a sized slice allocates nothing.
func TestTermMemoHitAllocatesNothing(t *testing.T) {
	text := "submarine reactors need cooling the reactor cooling loop runs pumps valves and heat exchangers"
	an := NewAnalyzer()
	vocab := NewVocab()
	NewDocAnalyzer(an, vocab).AppendIDs(nil, text)
	m := NewTermMemo(an, vocab)
	ids := m.AppendIDs(nil, text)
	if allocs := testing.AllocsPerRun(50, func() { m.AppendIDs(ids[:0], text) }); allocs != 0 {
		t.Errorf("a memoized text allocates %.0f times, want none", allocs)
	}
}

// TestTermMemoConcurrent resolves overlapping texts from several
// goroutines through one memo, cold, so admissions race with hits; run
// under -race.
func TestTermMemoConcurrent(t *testing.T) {
	an := NewAnalyzer()
	rng := rand.New(rand.NewSource(3))
	texts := make([]string, 64)
	for i := range texts {
		texts[i] = randomText(rng, 40)
	}
	vocab := memoVocab(an, strings.Join(texts, " "))
	want := make([][]TermID, len(texts))
	for i, text := range texts {
		want[i] = wantIDs(an, vocab, text)
	}
	m := NewTermMemo(an, vocab)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var ids []TermID
			for r := 0; r < 20; r++ {
				for i := range texts {
					i := (i + g*17) % len(texts)
					if ids = m.AppendIDs(ids[:0], texts[i]); !slices.Equal(ids, want[i]) {
						t.Errorf("goroutine %d: AppendIDs(%q) = %v, want %v", g, texts[i], ids, want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	checkMemoEntries(t, m)
}

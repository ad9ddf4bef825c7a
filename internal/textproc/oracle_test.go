package textproc

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// analyzeSeeds cover what the byte scan treats specially: case, digits
// and joined designators; non-ASCII letters, including one whose
// lowercase is shorter in bytes (İ) and a titlecase letter (ǅ); invalid
// UTF-8, combining marks and Arabic-Indic digits; and tokens at and
// beside the 2..40-rune bounds, in ASCII and in two-byte runes.
var analyzeSeeds = []string{
	"",
	"The helicopters were flying over the compound",
	"AH-64 Apache, M-1 Abrams; made in the U.S. today u.s.",
	"ah-64 u.s. m-1 x.25 -ah- ah--64 .u.s 3.14159 1990s F-16s",
	"café RÉSUMÉ 日本語",
	"İstanbul İİİ Straße ΣΊΣΥΦΟΣ",
	"ǅungla ǅ ǆ Ǆ",
	"bad \xff\xfe utf8 \xc3 ab\x80cd \xe2\x82",
	"café ño é́",
	"٠١٢٣ ٤٥٦ digits-٧٨",
	"a ab " + strings.Repeat("x", 40) + " " + strings.Repeat("y", 41),
	"é éé " + strings.Repeat("é", 40) + " " + strings.Repeat("É", 41),
	strings.Repeat("Q", 39) + "-" + "Z",
	"Running RUNNING runs RAN happily Happiness filing relational",
}

// stemSeeds are words whose stems are and are not prefixes of them.
var stemSeeds = []string{
	"", "a", "is", "ies", "sses", "happy", "filing", "relational",
	"hopping", "agreed", "controll", "generalizations", "ah-64", "Caps",
	"café", strings.Repeat("ational", 10),
}

// checkAnalyze holds Analyze, AnalyzeTerm and the token scan to the
// reference pipeline on one input.
func checkAnalyze(t *testing.T, text string) {
	t.Helper()
	if got, want := tokens(text), refNewTokenizer().Terms(text); !slices.Equal(got, want) {
		t.Fatalf("tokens(%q) = %q, reference %q", text, got, want)
	}
	for _, stem := range []bool{true, false} {
		a := NewAnalyzer(WithStemming(stem))
		if got, want := a.Analyze(text), refAnalyze(text, stem); !reflect.DeepEqual(got, want) {
			t.Fatalf("stem=%v: Analyze(%q) = %#v, reference %#v", stem, text, got, want)
		}
		got, gotOK := a.AnalyzeTerm(text)
		want, wantOK := refAnalyzeTerm(text, stem)
		if got != want || gotOK != wantOK {
			t.Fatalf("stem=%v: AnalyzeTerm(%q) = %q, %v; reference %q, %v", stem, text, got, gotOK, want, wantOK)
		}
		// The memoized document path, twice: the second pass is served
		// by the memo the first one filled.
		vocab := NewVocab()
		da := NewDocAnalyzer(a, vocab)
		for pass := 0; pass < 2; pass++ {
			var terms []string
			for _, id := range da.AppendIDs(nil, text) {
				terms = append(terms, vocab.Term(id))
			}
			if want := refAnalyze(text, stem); !slices.Equal(terms, want) {
				t.Fatalf("stem=%v pass %d: AppendIDs(%q) names %q, reference %q", stem, pass, text, terms, want)
			}
		}
	}
}

func FuzzAnalyze(f *testing.F) {
	for _, s := range analyzeSeeds {
		f.Add(s)
	}
	f.Fuzz(checkAnalyze)
}

func FuzzStem(f *testing.F) {
	for _, s := range stemSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, word string) {
		got, want := Stem(word), refStem(word)
		if got != want {
			t.Fatalf("Stem(%q) = %q, reference %q", word, got, want)
		}
		// A stem that is a prefix of the word is returned as that prefix.
		if strings.HasPrefix(word, got) && got != "" && unsafe.StringData(got) != unsafe.StringData(word) {
			t.Fatalf("Stem(%q) = %q copied a prefix of its input", word, got)
		}
	})
}

// randomText draws n runes from an alphabet weighted toward what the
// scan branches on, so short random strings reach every case.
func randomText(rng *rand.Rand, n int) string {
	pieces := []string{
		"a", "e", "i", "o", "s", "t", "y", "ing", "ed", "ation", "ness",
		"A", "Z", "Q", "0", "7", "-", ".", " ", " ", ",", "'", "!",
		"é", "É", "İ", "ǅ", "ß", "Σ", "日", "٣", "́", " ",
		"\xff", "\xc3", "\xe2\x82",
	}
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return b.String()
}

// TestAnalyzeMatchesReference runs the fuzz check over seeded random
// strings; FuzzAnalyze explores further when fuzzing.
func TestAnalyzeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		checkAnalyze(t, randomText(rng, 1+rng.Intn(60)))
	}
}

// TestStemMatchesReference compares Stem with the reference on seeded
// random lowercase words: letters followed by one to three of Porter's
// suffixes, so every rule of every step is reached.
func TestStemMatchesReference(t *testing.T) {
	suffixes := strings.Fields(`ational tional enci anci izer abli alli
		entli eli ousli ization ation ator alism iveness fulness ousness
		aliti iviti biliti icate ative alize iciti ical ful ness al ance
		ence er ic able ible ant ement ment ent ou ism ate iti ous ive ize
		ion sion tion sses ies ss s eed ed ing at bl iz y e l ll`)
	rng := rand.New(rand.NewSource(1))
	var b strings.Builder
	for i := 0; i < 200000; i++ {
		b.Reset()
		for j := rng.Intn(6); j >= 0; j-- {
			b.WriteByte("bcdfhlmnprstvwxyzaeiou"[rng.Intn(22)])
		}
		for j := rng.Intn(3); j >= 0; j-- {
			b.WriteString(suffixes[rng.Intn(len(suffixes))])
		}
		w := b.String()
		if got, want := Stem(w), refStem(w); got != want {
			t.Fatalf("Stem(%q) = %q, reference %q", w, got, want)
		}
	}
}

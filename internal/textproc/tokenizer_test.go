package textproc

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

// tokens drains a tokenScanner over text.
func tokens(text string) []string {
	var out []string
	s := tokenScanner{text: text}
	for {
		tok, ok := s.next()
		if !ok {
			return out
		}
		out = append(out, tok)
	}
}

func TestTokenizeBasic(t *testing.T) {
	got := tokens("The Quick, brown FOX!")
	want := []string{"the", "quick", "brown", "fox"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tokens = %v, want %v", got, want)
	}
}

func TestTokenizeKeepsDesignators(t *testing.T) {
	cases := map[string][]string{
		"AH-64 Apache helicopter": {"ah-64", "apache", "helicopter"},
		"abrams tank m-1":         {"abrams", "tank", "m-1"},
		"u.s. army":               {"u.s", "army"},
		"SQ-333 Changi airport":   {"sq-333", "changi", "airport"},
	}
	for in, want := range cases {
		if got := tokens(in); !reflect.DeepEqual(got, want) {
			t.Errorf("tokens(%q) = %v, want %v", in, got, want)
		}
	}
}

// Tokens of 2..40 runes survive; 1 and 41 do not, counted in runes.
func TestTokenizeMinMaxLen(t *testing.T) {
	r40, r41 := strings.Repeat("é", 40), strings.Repeat("é", 41)
	a40 := strings.Repeat("a", 40)
	got := tokens("a ab " + a40 + " " + a40 + "b " + r40 + " " + r41 + " x-y é")
	want := []string{"ab", a40, r40, "x-y"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tokens = %v, want %v", got, want)
	}
}

// A joiner joins only between word runes: doubled, leading and trailing
// joiners split or end a token.
func TestTokenizeNoJoin(t *testing.T) {
	cases := map[string][]string{
		"ah--64":   {"ah", "64"},
		"ah-.64":   {"ah", "64"},
		"-ah -64-": {"ah", "64"},
		"ah- 64":   {"ah", "64"},
		"ah-é64":   {"ah-é64"},
		"ah-!64":   {"ah", "64"},
	}
	for in, want := range cases {
		if got := tokens(in); !reflect.DeepEqual(got, want) {
			t.Errorf("tokens(%q) = %v, want %v", in, got, want)
		}
	}
}

// Tokens come out in the order they stand in the text.
func TestTokenizePositions(t *testing.T) {
	words := []string{"alpha", "beta", "gamma", "delta"}
	got := tokens(strings.Join(words, " "))
	if !reflect.DeepEqual(got, words) {
		t.Errorf("tokens = %v, want %v", got, words)
	}
}

func TestTokenizeEmptyAndPunct(t *testing.T) {
	for _, in := range []string{"", "   ", "!!! --- ...", "-", "."} {
		if got := tokens(in); len(got) != 0 {
			t.Errorf("tokens(%q) = %v, want empty", in, got)
		}
	}
}

func TestTokenizeTrailingJoiner(t *testing.T) {
	// "u.s." at end of sentence: trailing period must not survive.
	got := tokens("made in the u.s. today")
	for _, term := range got {
		if strings.HasSuffix(term, ".") || strings.HasSuffix(term, "-") {
			t.Errorf("term %q has trailing joiner", term)
		}
	}
}

func TestTokenizeUnicode(t *testing.T) {
	got := tokens("café RÉSUMÉ 日本語")
	want := []string{"café", "résumé", "日本語"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tokens = %v, want %v", got, want)
	}
}

// Property: every emitted term is lowercase and within length bounds.
func TestTokenizeProperty(t *testing.T) {
	f := func(s string) bool {
		for _, term := range tokens(s) {
			if term != strings.ToLower(term) {
				return false
			}
			n := utf8.RuneCountInString(term)
			if n < minTokenRunes || n > maxTokenRunes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: tokenization is idempotent — re-tokenizing the emitted terms
// yields the same terms.
func TestTokenizeIdempotent(t *testing.T) {
	f := func(s string) bool {
		first := tokens(s)
		again := tokens(strings.Join(first, " "))
		return reflect.DeepEqual(first, again)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

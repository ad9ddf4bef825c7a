// Package textproc provides the text-processing substrate used by the
// search engine and the topic model: tokenization, stopword removal,
// Porter stemming, and vocabulary management.
//
// The pipeline mirrors the standard document-retrieval preprocessing the
// paper applies to the WSJ corpus (§V-A): lowercase, strip stopwords,
// and drop hapax terms before indexing or topic modeling.
package textproc

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Tokens shorter or longer than this many runes are dropped.
const (
	minTokenRunes = 2
	maxTokenRunes = 40
)

// Byte classes for the scan. Every byte below utf8.RuneSelf is its own
// rune and is classified and lowercased here; at a byte of classRune
// the scan decodes a rune.
const (
	classSep    = iota // ends a token
	classLower         // a-z, 0-9: a word byte that is already lowercase
	classUpper         // A-Z
	classJoiner        // '-', '.'
	classRune          // first byte of a non-ASCII rune (or an invalid byte)
)

var byteClass = func() (t [256]uint8) {
	for c := 'a'; c <= 'z'; c++ {
		t[c], t[c-'a'+'A'] = classLower, classUpper
	}
	for c := '0'; c <= '9'; c++ {
		t[c] = classLower
	}
	t['-'], t['.'] = classJoiner, classJoiner
	for c := utf8.RuneSelf; c < len(t); c++ {
		t[c] = classRune
	}
	return t
}()

func isWordRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

// wordAt reports whether a word rune (letter or digit) starts at text[i].
func wordAt(text string, i int) bool {
	if i >= len(text) {
		return false
	}
	switch byteClass[text[i]] {
	case classLower, classUpper:
		return true
	case classRune:
		r, _ := utf8.DecodeRuneInString(text[i:])
		return isWordRune(r)
	}
	return false
}

// tokenScanner splits text into lowercase word tokens in one pass over
// its bytes. A token is a maximal run of letters and digits; a single
// '-' or '.' is kept where a word rune follows it, so designators such as
// "ah-64", "m-1" and "u.s." survive as one token each (the paper's TREC
// queries depend on such high-specificity terms). A joiner is never a
// token's last rune: "u.s." at the end of a sentence yields "u.s".
// Tokens of fewer than minTokenRunes or more than maxTokenRunes runes are
// dropped.
//
// A token that is already lowercase ASCII is returned as a substring of
// text. Any other token is lowercased into arena, which also takes the
// stems Porter rewrote (stem). The arena is append-only, so a string cut
// from it stays valid; it is sized to the text on first use, so one text
// rarely costs more than one allocation for it.
type tokenScanner struct {
	text  string
	pos   int
	arena strings.Builder
}

// next returns the next token, or false at the end of the text.
func (s *tokenScanner) next() (string, bool) {
	text := s.text
	i := s.pos
	// The open token is text[start:end], or arena[lowAt:] once it needed
	// lowering; runes counts its runes.
	start, runes, lowAt := i, 0, -1
	for i < len(text) {
		end := i
		switch c := text[i]; byteClass[c] {
		case classLower:
			if lowAt >= 0 {
				s.arena.WriteByte(c)
			}
			i++
			runes++
			continue
		case classUpper:
			if lowAt < 0 {
				lowAt = s.lowCopy(start, end)
			}
			s.arena.WriteByte(c + 'a' - 'A')
			i++
			runes++
			continue
		case classJoiner:
			i++
			if runes > 0 && wordAt(text, i) {
				if lowAt >= 0 {
					s.arena.WriteByte(c)
				}
				runes++
				continue
			}
		case classRune:
			r, size := utf8.DecodeRuneInString(text[i:])
			i += size
			if isWordRune(r) {
				if lowAt < 0 {
					lowAt = s.lowCopy(start, end)
				}
				s.arena.WriteRune(unicode.ToLower(r))
				runes++
				continue
			}
		default:
			i++
		}
		// text[end:i] is a separator: it closes the open token, if any.
		if tok, ok := s.token(start, end, runes, lowAt); ok {
			s.pos = i
			return tok, true
		}
		start, runes, lowAt = i, 0, -1
	}
	s.pos = i
	return s.token(start, i, runes, lowAt)
}

// lowCopy starts the lowered copy of the open token with text[start:end],
// the part scanned so far (lowercase ASCII as it stands), and returns the
// copy's offset in the arena.
func (s *tokenScanner) lowCopy(start, end int) int {
	s.reserve()
	at := s.arena.Len()
	s.arena.WriteString(s.text[start:end])
	return at
}

// reserve sizes the arena for the text on its first use.
func (s *tokenScanner) reserve() {
	if s.arena.Cap() == 0 {
		s.arena.Grow(len(s.text))
	}
}

// stem returns the Porter stem of tok: a prefix of tok, or a rewritten
// stem copied into the arena.
func (s *tokenScanner) stem(tok string) string {
	var buf [stemBufLen]byte
	n, rewritten := porter(tok, buf[:0])
	if rewritten == nil {
		return tok[:n]
	}
	s.reserve()
	at := s.arena.Len()
	s.arena.Write(rewritten)
	return s.arena.String()[at:]
}

// token returns the closed token when its length is in bounds.
func (s *tokenScanner) token(start, end, runes, lowAt int) (string, bool) {
	if runes < minTokenRunes || runes > maxTokenRunes {
		return "", false
	}
	if lowAt < 0 {
		return s.text[start:end], true
	}
	return s.arena.String()[lowAt:], true
}

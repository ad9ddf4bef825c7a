package textproc

// Porter stemmer — a faithful implementation of M.F. Porter's 1980
// suffix-stripping algorithm ("An algorithm for suffix stripping",
// Program 14(3)). It operates on lowercase ASCII words; tokens that
// contain non-letters (digits, hyphens, periods — e.g. "ah-64") are
// returned unchanged, which is the behaviour the paper's
// high-specificity query terms require.

// Stem returns the Porter stem of word. Words of length <= 2 and words
// containing non-letter bytes are returned unchanged. A stem that is a
// prefix of word is returned as that prefix, so for a word of up to
// stemBufLen letters Stem allocates only when Porter rewrote the word's
// tail (happy → happi, filing → file).
func Stem(word string) string {
	var buf [stemBufLen]byte
	n, rewritten := porter(word, buf[:0])
	if rewritten == nil {
		return word[:n]
	}
	return string(rewritten)
}

// stemBufLen is the stack buffer the algorithm runs in; every token the
// analyzer stems (at most maxTokenRunes letters) fits.
const stemBufLen = 64

// porter runs the algorithm on word, in buf's memory when word fits its
// capacity. When the stem is word[:n] it returns n and a nil slice;
// otherwise it returns the rewritten stem, which aliases buf.
func porter(word string, buf []byte) (n int, rewritten []byte) {
	if len(word) <= 2 {
		return len(word), nil
	}
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c < 'a' || c > 'z' {
			return len(word), nil
		}
	}
	s := stemmer{b: append(buf, word...), k: len(word)}
	s.step1a()
	s.step1b()
	s.step1c()
	s.step2()
	s.step3()
	s.step4()
	s.step5a()
	s.step5b()
	if stem := s.b[:s.k]; string(stem) != word[:s.k] {
		return s.k, stem
	}
	return s.k, nil
}

// stemmer holds the word being stemmed in b[:k]. No step lengthens the
// word, so b is never reallocated.
type stemmer struct {
	b []byte
	k int
}

// isCons reports whether the byte at index i acts as a consonant.
func (s *stemmer) isCons(i int) bool {
	switch s.b[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !s.isCons(i - 1)
	default:
		return true
	}
}

// measure computes m, the number of VC sequences in b[:end].
func (s *stemmer) measure(end int) int {
	m := 0
	i := 0
	// Skip initial consonants.
	for i < end && s.isCons(i) {
		i++
	}
	for i < end {
		// In a vowel run.
		for i < end && !s.isCons(i) {
			i++
		}
		if i >= end {
			break
		}
		m++
		for i < end && s.isCons(i) {
			i++
		}
	}
	return m
}

// hasVowel reports whether b[:end] contains a vowel.
func (s *stemmer) hasVowel(end int) bool {
	for i := 0; i < end; i++ {
		if !s.isCons(i) {
			return true
		}
	}
	return false
}

// doubleCons reports whether b[:end] ends with a double consonant.
func (s *stemmer) doubleCons(end int) bool {
	if end < 2 {
		return false
	}
	return s.b[end-1] == s.b[end-2] && s.isCons(end-1)
}

// cvc reports whether b[:end] ends consonant-vowel-consonant where the
// final consonant is not w, x or y.
func (s *stemmer) cvc(end int) bool {
	if end < 3 {
		return false
	}
	if !s.isCons(end-1) || s.isCons(end-2) || !s.isCons(end-3) {
		return false
	}
	switch s.b[end-1] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

// hasSuffix reports whether the current word ends with suf.
func (s *stemmer) hasSuffix(suf string) bool {
	if len(suf) > s.k {
		return false
	}
	// Compared from the last byte, where most candidates already differ.
	b := s.b[s.k-len(suf) : s.k]
	for i := len(suf) - 1; i >= 0; i-- {
		if b[i] != suf[i] {
			return false
		}
	}
	return true
}

// replaceSuffix replaces suf (assumed present) with rep if the measure
// of the stem preceding suf is > m. Returns true when a replacement
// happened.
func (s *stemmer) replaceSuffix(suf, rep string, m int) bool {
	stemLen := s.k - len(suf)
	if s.measure(stemLen) > m {
		s.k = stemLen + copy(s.b[stemLen:], rep)
		return true
	}
	return false
}

func (s *stemmer) step1a() {
	switch {
	case s.hasSuffix("sses"):
		s.k -= 2
	case s.hasSuffix("ies"):
		s.k -= 2
	case s.hasSuffix("ss"):
		// no change
	case s.hasSuffix("s"):
		s.k--
	}
}

func (s *stemmer) step1b() {
	if s.hasSuffix("eed") {
		if s.measure(s.k-3) > 0 {
			s.k--
		}
		return
	}
	cleanup := false
	if s.hasSuffix("ed") && s.hasVowel(s.k-2) {
		s.k -= 2
		cleanup = true
	} else if s.hasSuffix("ing") && s.hasVowel(s.k-3) {
		s.k -= 3
		cleanup = true
	}
	if !cleanup {
		return
	}
	switch {
	case s.hasSuffix("at"), s.hasSuffix("bl"), s.hasSuffix("iz"):
		s.appendE()
	case s.doubleCons(s.k):
		last := s.b[s.k-1]
		if last != 'l' && last != 's' && last != 'z' {
			s.k--
		}
	case s.measure(s.k) == 1 && s.cvc(s.k):
		s.appendE()
	}
}

// appendE adds the 'e' step 1b restores after removing "ed" or "ing",
// into the room that removal left.
func (s *stemmer) appendE() {
	s.b[s.k] = 'e'
	s.k++
}

func (s *stemmer) step1c() {
	if s.hasSuffix("y") && s.hasVowel(s.k-1) {
		s.b[s.k-1] = 'i'
	}
}

// suffixRule replaces suf with rep.
type suffixRule struct{ suf, rep string }

// suffixTable holds one step's rules grouped by the last byte of their
// suffix, in Porter's order within each group. Only rules ending in the
// word's last byte can match it, so the first match among them is the
// first match in Porter's list.
type suffixTable [26][]suffixRule

func newSuffixTable(rules []suffixRule) *suffixTable {
	var t suffixTable
	for _, r := range rules {
		c := r.suf[len(r.suf)-1] - 'a'
		t[c] = append(t[c], r)
	}
	return &t
}

// step2 maps double suffixes to single ones when m(stem) > 0.
var step2Rules = newSuffixTable([]suffixRule{
	{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"},
	{"anci", "ance"}, {"izer", "ize"}, {"abli", "able"},
	{"alli", "al"}, {"entli", "ent"}, {"eli", "e"}, {"ousli", "ous"},
	{"ization", "ize"}, {"ation", "ate"}, {"ator", "ate"},
	{"alism", "al"}, {"iveness", "ive"}, {"fulness", "ful"},
	{"ousness", "ous"}, {"aliti", "al"}, {"iviti", "ive"},
	{"biliti", "ble"},
})

var step3Rules = newSuffixTable([]suffixRule{
	{"icate", "ic"}, {"ative", ""}, {"alize", "al"}, {"iciti", "ic"},
	{"ical", "ic"}, {"ful", ""}, {"ness", ""},
})

// step4 strips a suffix when m(stem) > 1.
var step4Rules = newSuffixTable([]suffixRule{
	{"al", ""}, {"ance", ""}, {"ence", ""}, {"er", ""}, {"ic", ""},
	{"able", ""}, {"ible", ""}, {"ant", ""}, {"ement", ""},
	{"ment", ""}, {"ent", ""}, {"ou", ""}, {"ism", ""}, {"ate", ""},
	{"iti", ""}, {"ous", ""}, {"ive", ""}, {"ize", ""},
})

// applyFirst applies the first rule of t whose suffix ends the word,
// replacing the suffix when the stem before it has measure > m, and
// reports whether a rule matched.
func (s *stemmer) applyFirst(t *suffixTable, m int) bool {
	for _, r := range t[s.b[s.k-1]-'a'] {
		if s.hasSuffix(r.suf) {
			s.replaceSuffix(r.suf, r.rep, m)
			return true
		}
	}
	return false
}

func (s *stemmer) step2() { s.applyFirst(step2Rules, 0) }

func (s *stemmer) step3() { s.applyFirst(step3Rules, 0) }

func (s *stemmer) step4() {
	if s.applyFirst(step4Rules, 1) {
		return
	}
	// "ion" requires the stem to end in s or t.
	if s.hasSuffix("ion") {
		stemLen := s.k - 3
		if stemLen > 0 && (s.b[stemLen-1] == 's' || s.b[stemLen-1] == 't') &&
			s.measure(stemLen) > 1 {
			s.k = stemLen
		}
	}
}

func (s *stemmer) step5a() {
	if !s.hasSuffix("e") {
		return
	}
	stemLen := s.k - 1
	m := s.measure(stemLen)
	if m > 1 || (m == 1 && !s.cvc(stemLen)) {
		s.k = stemLen
	}
}

func (s *stemmer) step5b() {
	n := s.k
	if n > 1 && s.b[n-1] == 'l' && s.doubleCons(n) && s.measure(n) > 1 {
		s.k--
	}
}

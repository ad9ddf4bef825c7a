package textproc

// The rune-by-rune analysis pipeline that the byte scan in analyzer.go
// replaced, kept verbatim (identifiers prefixed ref) as the oracle that
// FuzzAnalyze, FuzzStem and the corpus-scale test hold the production
// pipeline to, and as the baseline BenchmarkAnalyze reports against.

import (
	"strings"
	"unicode"
)

// refStops is the stop set the old NewAnalyzer built once per analyzer.
var refStops = DefaultStopSet()

// refAnalyze is the old Analyzer.Analyze over the old defaults: the
// 2..40-rune tokenizer with joiners kept and the default stop set.
func refAnalyze(text string, stem bool) []string {
	stops := refStops
	toks := refNewTokenizer().Tokenize(text)
	out := make([]string, 0, len(toks))
	for _, tok := range toks {
		if stops.Contains(tok.Term) {
			continue
		}
		term := tok.Term
		if stem {
			term = refStem(term)
		}
		if term == "" || stops.Contains(term) {
			continue
		}
		out = append(out, term)
	}
	return out
}

// refAnalyzeTerm is the old Analyzer.AnalyzeTerm.
func refAnalyzeTerm(term string, stem bool) (string, bool) {
	stops := refStops
	toks := refNewTokenizer().Tokenize(term)
	if len(toks) != 1 {
		return "", false
	}
	t := toks[0].Term
	if stops.Contains(t) {
		return "", false
	}
	if stem {
		t = refStem(t)
	}
	if t == "" || stops.Contains(t) {
		return "", false
	}
	return t, true
}

type refToken struct {
	Term     string
	Position int
}

type refTokenizer struct {
	MinLen     int
	MaxLen     int
	KeepJoined bool
}

func refNewTokenizer() *refTokenizer {
	return &refTokenizer{MinLen: 2, MaxLen: 40, KeepJoined: true}
}

func refIsWordRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

func (t *refTokenizer) Tokenize(text string) []refToken {
	var out []refToken
	var b strings.Builder
	pos := 0
	runes := []rune(text)
	flush := func() {
		if b.Len() == 0 {
			return
		}
		term := b.String()
		b.Reset()
		// Trim trailing joiners left by inputs like "u.s." at
		// end-of-sentence.
		term = strings.TrimRight(term, "-.")
		n := len([]rune(term))
		if n == 0 || (t.MinLen > 0 && n < t.MinLen) || (t.MaxLen > 0 && n > t.MaxLen) {
			return
		}
		out = append(out, refToken{Term: term, Position: pos})
		pos++
	}
	for i := 0; i < len(runes); i++ {
		r := runes[i]
		switch {
		case refIsWordRune(r):
			b.WriteRune(unicode.ToLower(r))
		case t.KeepJoined && (r == '-' || r == '.') && b.Len() > 0 &&
			i+1 < len(runes) && refIsWordRune(runes[i+1]):
			b.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	return out
}

func (t *refTokenizer) Terms(text string) []string {
	toks := t.Tokenize(text)
	terms := make([]string, len(toks))
	for i, tok := range toks {
		terms[i] = tok.Term
	}
	return terms
}

func refStem(word string) string {
	if len(word) <= 2 {
		return word
	}
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c < 'a' || c > 'z' {
			return word
		}
	}
	s := refStemmer{b: []byte(word)}
	s.step1a()
	s.step1b()
	s.step1c()
	s.step2()
	s.step3()
	s.step4()
	s.step5a()
	s.step5b()
	return string(s.b)
}

type refStemmer struct {
	b []byte
}

func (s *refStemmer) isCons(i int) bool {
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

func (s *refStemmer) measure(end int) int {
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

func (s *refStemmer) hasVowel(end int) bool {
	for i := 0; i < end; i++ {
		if !s.isCons(i) {
			return true
		}
	}
	return false
}

func (s *refStemmer) doubleCons(end int) bool {
	if end < 2 {
		return false
	}
	return s.b[end-1] == s.b[end-2] && s.isCons(end-1)
}

func (s *refStemmer) cvc(end int) bool {
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

func (s *refStemmer) hasSuffix(suf string) bool {
	n := len(s.b)
	if len(suf) > n {
		return false
	}
	return string(s.b[n-len(suf):]) == suf
}

func (s *refStemmer) replaceSuffix(suf, rep string, m int) bool {
	stemLen := len(s.b) - len(suf)
	if s.measure(stemLen) > m {
		s.b = append(s.b[:stemLen], rep...)
		return true
	}
	return false
}

func (s *refStemmer) step1a() {
	switch {
	case s.hasSuffix("sses"):
		s.b = s.b[:len(s.b)-2]
	case s.hasSuffix("ies"):
		s.b = s.b[:len(s.b)-2]
	case s.hasSuffix("ss"):
		// no change
	case s.hasSuffix("s"):
		s.b = s.b[:len(s.b)-1]
	}
}

func (s *refStemmer) step1b() {
	if s.hasSuffix("eed") {
		if s.measure(len(s.b)-3) > 0 {
			s.b = s.b[:len(s.b)-1]
		}
		return
	}
	cleanup := false
	if s.hasSuffix("ed") && s.hasVowel(len(s.b)-2) {
		s.b = s.b[:len(s.b)-2]
		cleanup = true
	} else if s.hasSuffix("ing") && s.hasVowel(len(s.b)-3) {
		s.b = s.b[:len(s.b)-3]
		cleanup = true
	}
	if !cleanup {
		return
	}
	switch {
	case s.hasSuffix("at"), s.hasSuffix("bl"), s.hasSuffix("iz"):
		s.b = append(s.b, 'e')
	case s.doubleCons(len(s.b)):
		last := s.b[len(s.b)-1]
		if last != 'l' && last != 's' && last != 'z' {
			s.b = s.b[:len(s.b)-1]
		}
	case s.measure(len(s.b)) == 1 && s.cvc(len(s.b)):
		s.b = append(s.b, 'e')
	}
}

func (s *refStemmer) step1c() {
	if s.hasSuffix("y") && s.hasVowel(len(s.b)-1) {
		s.b[len(s.b)-1] = 'i'
	}
}

func (s *refStemmer) step2() {
	pairs := []struct{ suf, rep string }{
		{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"},
		{"anci", "ance"}, {"izer", "ize"}, {"abli", "able"},
		{"alli", "al"}, {"entli", "ent"}, {"eli", "e"}, {"ousli", "ous"},
		{"ization", "ize"}, {"ation", "ate"}, {"ator", "ate"},
		{"alism", "al"}, {"iveness", "ive"}, {"fulness", "ful"},
		{"ousness", "ous"}, {"aliti", "al"}, {"iviti", "ive"},
		{"biliti", "ble"},
	}
	for _, p := range pairs {
		if s.hasSuffix(p.suf) {
			s.replaceSuffix(p.suf, p.rep, 0)
			return
		}
	}
}

func (s *refStemmer) step3() {
	pairs := []struct{ suf, rep string }{
		{"icate", "ic"}, {"ative", ""}, {"alize", "al"}, {"iciti", "ic"},
		{"ical", "ic"}, {"ful", ""}, {"ness", ""},
	}
	for _, p := range pairs {
		if s.hasSuffix(p.suf) {
			s.replaceSuffix(p.suf, p.rep, 0)
			return
		}
	}
}

func (s *refStemmer) step4() {
	sufs := []string{
		"al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
		"ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
	}
	for _, suf := range sufs {
		if !s.hasSuffix(suf) {
			continue
		}
		stemLen := len(s.b) - len(suf)
		if s.measure(stemLen) > 1 {
			s.b = s.b[:stemLen]
		}
		return
	}
	// "ion" requires the stem to end in s or t.
	if s.hasSuffix("ion") {
		stemLen := len(s.b) - 3
		if stemLen > 0 && (s.b[stemLen-1] == 's' || s.b[stemLen-1] == 't') &&
			s.measure(stemLen) > 1 {
			s.b = s.b[:stemLen]
		}
	}
}

func (s *refStemmer) step5a() {
	if !s.hasSuffix("e") {
		return
	}
	stemLen := len(s.b) - 1
	m := s.measure(stemLen)
	if m > 1 || (m == 1 && !s.cvc(stemLen)) {
		s.b = s.b[:stemLen]
	}
}

func (s *refStemmer) step5b() {
	n := len(s.b)
	if n > 1 && s.b[n-1] == 'l' && s.doubleCons(n) && s.measure(n) > 1 {
		s.b = s.b[:n-1]
	}
}

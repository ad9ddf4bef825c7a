package textproc

// Analyzer is the full preprocessing pipeline: tokenize, drop stopwords,
// and optionally stem. It is the single entry point the index, the topic
// model and the query path all share, so that a query term and a
// document term always normalize identically.
type Analyzer struct {
	stem bool
}

// AnalyzerOption configures an Analyzer.
type AnalyzerOption func(*Analyzer)

// WithStemming enables or disables Porter stemming (default: enabled).
func WithStemming(on bool) AnalyzerOption {
	return func(a *Analyzer) { a.stem = on }
}

// NewAnalyzer returns an analyzer with the repository defaults: tokens
// of 2..40 runes with joined designators kept, the built-in English stop
// set, and stemming enabled.
func NewAnalyzer(opts ...AnalyzerOption) *Analyzer {
	a := &Analyzer{stem: true}
	for _, opt := range opts {
		opt(a)
	}
	return a
}

// stopwords is the default stop set, shared read-only by every Analyzer.
var stopwords = DefaultStopSet()

// stopShape[f][l] has bit n set when a stopword of n bytes starts with
// letter f and ends with letter l. Every stopword starts and ends with a
// letter and is shorter than 16 bytes, so a token whose shape has no bit
// is not a stopword, and most tokens are told so without a map lookup.
var stopShape = func() (t [26][26]uint16) {
	for w := range stopwords {
		t[w[0]-'a'][w[len(w)-1]-'a'] |= 1 << len(w)
	}
	return t
}()

func isStopword(w string) bool {
	n := len(w)
	if n == 0 || n >= 16 {
		return false
	}
	f, l := w[0]-'a', w[n-1]-'a'
	return f < 26 && l < 26 && stopShape[f][l]&(1<<n) != 0 && stopwords.Contains(w)
}

// Analyze normalizes text into index terms in one pass over its bytes.
// The result is never nil.
//
// The returned terms share memory with text: each is a substring of
// text or of one buffer made for this call, which holds the lowercased
// copies of tokens with uppercase or non-ASCII letters and the stems
// whose tail Porter rewrote. A term kept beyond the text's lifetime (a
// dictionary entry) must be copied; Vocab.Add does.
func (a *Analyzer) Analyze(text string) []string {
	// Terms collect on the stack; the result is one exact-size copy.
	var buf [32]string
	out := buf[:0]
	s := tokenScanner{text: text}
	for {
		tok, ok := s.next()
		if !ok {
			break
		}
		if term, ok := a.normalize(&s, tok); ok {
			out = append(out, term)
		}
	}
	return append(make([]string, 0, len(out)), out...)
}

// AnalyzeTerm normalizes a single already-tokenized term (used when the
// synthetic corpus emits vocabulary words directly). It returns the
// normalized term and whether it survived the pipeline.
func (a *Analyzer) AnalyzeTerm(term string) (string, bool) {
	s := tokenScanner{text: term}
	tok, ok := s.next()
	if !ok {
		return "", false
	}
	if _, more := s.next(); more {
		return "", false
	}
	return a.normalize(&s, tok)
}

// normalize drops a stopword token and stems the rest, dropping a stem
// that is itself a stopword.
func (a *Analyzer) normalize(s *tokenScanner, tok string) (string, bool) {
	if isStopword(tok) {
		return "", false
	}
	if a.stem {
		tok = s.stem(tok)
		if isStopword(tok) {
			return "", false
		}
	}
	return tok, true
}

// Stemming reports whether the analyzer stems terms.
func (a *Analyzer) Stemming() bool { return a.stem }

package textproc

import (
	"strings"
	"sync"
)

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

// DocAnalyzer analyzes documents into the term IDs of a growing
// dictionary: the ingest side of the pipeline, where TermMemo is the
// query side. It runs Analyze's scan, stop filter and stemmer, and
// memoizes each surface token it meets (lowercased, before stop
// filtering and stemming) to the ID its term got, or to InvalidTerm for a
// token the pipeline drops. A token seen before then costs one map
// lookup instead of a stop check, a Porter stem and a dictionary lookup.
//
// The memo has no size setting: it holds the distinct tokens of the text
// analyzed so far, so an owner bounds it by dropping the DocAnalyzer
// along with that text (a live store's memtable at seal, corpus.Build
// when it returns). It is allocated on first use.
//
// A DocAnalyzer is not safe for concurrent use, and its dictionary's
// writers, this one included, must be serialized.
type DocAnalyzer struct {
	an    *Analyzer
	vocab *Vocab
	memo  map[string]TermID
}

// NewDocAnalyzer returns a DocAnalyzer that analyzes with an and interns
// into vocab.
func NewDocAnalyzer(an *Analyzer, vocab *Vocab) *DocAnalyzer {
	return &DocAnalyzer{an: an, vocab: vocab}
}

// AppendIDs analyzes text, adds its new terms to the dictionary and
// appends the ID of each of its terms to dst, in text order: the IDs
// Vocab.Add returns for the terms of Analyze(text).
func (d *DocAnalyzer) AppendIDs(dst []TermID, text string) []TermID {
	if d.memo == nil {
		d.memo = make(map[string]TermID)
	}
	s := tokenScanner{text: text}
	for {
		tok, ok := s.next()
		if !ok {
			return dst
		}
		id, seen := d.memo[tok]
		if !seen {
			id = InvalidTerm
			if term, ok := d.an.normalize(&s, tok); ok {
				id = d.vocab.Add(term)
			}
			// tok shares memory with the text or the scan's buffer.
			d.memo[strings.Clone(tok)] = id
		}
		if id != InvalidTerm {
			dst = append(dst, id)
		}
	}
}

// TermMemo resolves query text to the IDs of a dictionary's terms: the
// query side of DocAnalyzer. It runs the same scan and memo, so a token
// seen before costs one map lookup instead of a stop check, a Porter
// stem and a dictionary lookup, but it never interns: a term the
// dictionary lacks resolves to InvalidTerm, as Vocab.ID gives it.
//
// What it remembers is bounded by the dictionary, not by the text it
// meets. A token is kept only when the dictionary holds its term, whose
// ID never changes (a dictionary only grows), or when the pipeline drops
// it, which does not depend on the dictionary. A token whose term is
// absent is analyzed again at its next use, so it resolves once a
// document adds the term. Admission stops at twice the dictionary's
// size.
//
// A TermMemo is safe for concurrent use. A miss reads the dictionary,
// so while AppendIDs runs the dictionary's writers must be kept out (a
// live store holds its read lock).
type TermMemo struct {
	an    *Analyzer
	vocab *Vocab
	mu    sync.RWMutex
	// ids maps a lowercased surface token to its term's ID, or to
	// InvalidTerm for a token the pipeline drops.
	ids map[string]TermID
}

// NewTermMemo returns a TermMemo that analyzes with an and resolves
// against vocab.
func NewTermMemo(an *Analyzer, vocab *Vocab) *TermMemo {
	return &TermMemo{an: an, vocab: vocab, ids: make(map[string]TermID)}
}

// memoEntry is a token a lookup missed, kept for admission.
type memoEntry struct {
	tok string
	id  TermID
}

// AppendIDs appends to dst the Vocab.ID of each term of Analyze(text),
// in text order, with InvalidTerm for a term the dictionary lacks. It
// takes the memo's read lock once, and its write lock only when a token
// it missed may be kept; it allocates nothing when every token of a
// lowercase text is a hit.
func (m *TermMemo) AppendIDs(dst []TermID, text string) []TermID {
	var buf [8]memoEntry
	missed := buf[:0]
	s := tokenScanner{text: text}
	m.mu.RLock()
	full := len(m.ids) >= m.limit()
	for {
		tok, ok := s.next()
		if !ok {
			break
		}
		id, seen := m.ids[tok]
		if !seen {
			term, kept := m.an.normalize(&s, tok)
			id = InvalidTerm
			if kept {
				id = m.vocab.ID(term)
			}
			if !full && (!kept || id != InvalidTerm) {
				missed = append(missed, memoEntry{tok, id})
			}
			if kept {
				dst = append(dst, id)
			}
			continue
		}
		if id != InvalidTerm {
			dst = append(dst, id)
		}
	}
	m.mu.RUnlock()
	if len(missed) > 0 {
		m.admit(missed)
	}
	return dst
}

// limit is the memo's bound: twice the dictionary's size.
func (m *TermMemo) limit() int { return 2 * m.vocab.Size() }

// admit keeps the missed tokens while the memo is under its bound.
func (m *TermMemo) admit(missed []memoEntry) {
	limit := m.limit()
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range missed {
		if len(m.ids) >= limit {
			return
		}
		if _, ok := m.ids[e.tok]; !ok {
			// tok shares memory with the text or the scan's buffer.
			m.ids[strings.Clone(e.tok)] = e.id
		}
	}
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

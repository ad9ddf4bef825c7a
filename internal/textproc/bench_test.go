package textproc

import (
	"strings"
	"testing"
)

// analyzeInputs are the three shapes of text the system analyzes:
//   - query: a 13-term query as the workload generator writes one
//     (lowercase ASCII, one space between terms);
//   - document: a 20-sentence article, with capitals, punctuation,
//     stopwords and designators;
//   - non-ascii: accented, CJK, Greek and Turkish text, every word of
//     which takes the rune-decoding branch.
var analyzeInputs = []struct{ name, text string }{
	{"query", "stock market investors trading composite nasdaq exchange securities dividend portfolio equity bullish futures"},
	{"document", strings.Repeat("The Dow Jones industrial average rose 12 points as investors bought shares of IBM, Apple and Intel. "+
		"Traders said the U.S. market was rallying on reports that the AH-64 contract would be signed. ", 10)},
	{"non-ascii", strings.Repeat("Café RÉSUMÉ naïve Zürich Straße İstanbul 日本語 Ελληνικά Ωμέγα ", 4)},
}

// BenchmarkAnalyze is gated on allocs/op (cmd/benchjson's default gate):
// the query row allocates the result slice and the one buffer its
// rewritten stems (trade, equiti) are written to.
func BenchmarkAnalyze(b *testing.B) {
	a := NewAnalyzer()
	for _, in := range analyzeInputs {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				a.Analyze(in.text)
			}
		})
	}
}

// BenchmarkAnalyzeReference runs the rune-by-rune reference pipeline
// over the same inputs, for comparison with BenchmarkAnalyze.
func BenchmarkAnalyzeReference(b *testing.B) {
	for _, in := range analyzeInputs {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				refAnalyze(in.text, true)
			}
		})
	}
}

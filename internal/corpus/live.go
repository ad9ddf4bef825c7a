package corpus

import (
	"encoding/json"
	"fmt"
	"io"

	"toppriv/internal/textproc"
)

// DecodeDocs reads raw documents from JSON in either accepted shape: a
// bare array (`[{"title":...,"text":...}, ...]`) or a corpusgen file
// (`{"docs":[...]}`). No analysis happens — this is the ingestion
// format shared by searchd's live seeding and topprivctl's -add-docs.
func DecodeDocs(r io.Reader) ([]Document, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("corpus: decode docs: %w", err)
	}
	var docs []Document
	if err := json.Unmarshal(raw, &docs); err == nil {
		return docs, nil
	}
	var wrapped struct {
		Docs []Document `json:"docs"`
	}
	if err := json.Unmarshal(raw, &wrapped); err != nil || wrapped.Docs == nil {
		return nil, fmt.Errorf("corpus: decode docs: neither a document array nor a {\"docs\": [...]} file")
	}
	return wrapped.Docs, nil
}

// AnalyzeInto analyzes one document's text against a shared, growing
// vocabulary: every term is interned into vocab (never pruned — a live
// index cannot retract IDs) and the analyzed bag is returned. It is the
// single-document ingestion path of the live segment store. Unlike
// Build it observes no frequencies: the store keeps its own live
// document frequencies, which deletes must also move, so the
// vocabulary's would go unread.
//
// The vocabulary is append-only and not safe for concurrent mutation;
// callers serialize AnalyzeInto under their own lock.
func AnalyzeInto(doc Document, an *textproc.Analyzer, vocab *textproc.Vocab) []textproc.TermID {
	terms := an.Analyze(doc.Text)
	bag := make([]textproc.TermID, len(terms))
	for i, term := range terms {
		bag[i] = vocab.Add(term)
	}
	return bag
}

package corpus

import (
	"encoding/json"
	"fmt"
	"io"
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

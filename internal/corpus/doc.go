// Package corpus provides the document-collection substrate: a document
// model, a deterministic generative corpus that substitutes for the
// paper's Wall Street Journal collection, and a query workload that
// substitutes for the TREC-1/2 ad-hoc queries (see PAPER.md, "What this
// repository reproduces").
package corpus

import (
	"encoding/json"
	"fmt"
	"io"

	"toppriv/internal/textproc"
)

// DocID identifies a document within a corpus. IDs are dense from 0.
type DocID int32

// Document is one text document. Text holds the raw article body;
// TrueTopics records the generative ground-truth mixture (empty for
// documents ingested from external sources), which experiments use for
// diagnostics only — the search engine and TopPriv never see it.
type Document struct {
	ID         DocID     `json:"id"`
	Title      string    `json:"title"`
	Text       string    `json:"text"`
	TrueTopics []float64 `json:"true_topics,omitempty"`
}

// Corpus is a collection of documents together with the analyzed
// bag-of-words form of each and the shared vocabulary. It corresponds to
// D (δ documents over ω terms) in the paper.
type Corpus struct {
	Docs  []Document
	Vocab *textproc.Vocab
	// Bags[d] is the analyzed term-ID sequence of document d, aligned
	// with Docs.
	Bags [][]textproc.TermID
	// GroundTruthTopics is the number of generative topics (0 when
	// unknown, e.g. for ingested corpora).
	GroundTruthTopics int
}

// NumDocs returns δ, the number of documents.
func (c *Corpus) NumDocs() int { return len(c.Docs) }

// VocabSize returns ω, the number of distinct terms.
func (c *Corpus) VocabSize() int { return c.Vocab.Size() }

// TotalTokens returns the number of term occurrences across all bags.
func (c *Corpus) TotalTokens() int {
	n := 0
	for _, bag := range c.Bags {
		n += len(bag)
	}
	return n
}

// AvgDocLen returns the mean analyzed document length.
func (c *Corpus) AvgDocLen() float64 {
	if len(c.Bags) == 0 {
		return 0
	}
	return float64(c.TotalTokens()) / float64(len(c.Bags))
}

// Build analyzes raw documents into a Corpus using the given analyzer,
// then prunes the vocabulary per spec and remaps the bags. It is the
// ingestion path for external document sets; Synthesize uses it too so
// synthetic and ingested corpora share one code path. The documents go
// through one memoized textproc.DocAnalyzer, dropped on return.
func Build(docs []Document, an *textproc.Analyzer, spec textproc.PruneSpec) (*Corpus, error) {
	if an == nil {
		return nil, fmt.Errorf("corpus: nil analyzer")
	}
	vocab := textproc.NewVocab()
	da := textproc.NewDocAnalyzer(an, vocab)
	bags := make([][]textproc.TermID, len(docs))
	var ids []textproc.TermID
	for i := range docs {
		docs[i].ID = DocID(i)
		ids = da.AppendIDs(ids[:0], docs[i].Text)
		bag := append(make([]textproc.TermID, 0, len(ids)), ids...)
		vocab.ObserveDoc(bag)
		bags[i] = bag
	}
	if spec != (textproc.PruneSpec{}) {
		pruned, remap := vocab.Prune(spec)
		newBags := make([][]textproc.TermID, len(bags))
		for i, bag := range bags {
			nb := make([]textproc.TermID, 0, len(bag))
			for _, id := range bag {
				if nid := remap[id]; nid != textproc.InvalidTerm {
					nb = append(nb, nid)
				}
			}
			newBags[i] = nb
		}
		vocab = pruned
		bags = newBags
	}
	return &Corpus{Docs: docs, Vocab: vocab, Bags: bags}, nil
}

// corpusJSON is the on-disk representation written by WriteJSON.
type corpusJSON struct {
	GroundTruthTopics int        `json:"ground_truth_topics"`
	Docs              []Document `json:"docs"`
}

// WriteJSON serializes the raw documents (not the analyzed bags; those
// are cheap to recompute and depend on the analyzer configuration).
func (c *Corpus) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(corpusJSON{GroundTruthTopics: c.GroundTruthTopics, Docs: c.Docs})
}

// ReadJSON loads documents written by WriteJSON and re-analyzes them
// with the given analyzer and prune spec.
func ReadJSON(r io.Reader, an *textproc.Analyzer, spec textproc.PruneSpec) (*Corpus, error) {
	var cj corpusJSON
	if err := json.NewDecoder(r).Decode(&cj); err != nil {
		return nil, fmt.Errorf("corpus: decode: %w", err)
	}
	c, err := Build(cj.Docs, an, spec)
	if err != nil {
		return nil, err
	}
	c.GroundTruthTopics = cj.GroundTruthTopics
	return c, nil
}

// Package trec parses the SGML-style TREC document markup that the
// paper's evaluation collection, the Wall Street Journal (TREC disks
// 1–2), is distributed in.
//
// The repository's experiments run on a synthetic substitute corpus,
// but a user holding the licensed WSJ data can ingest it with this
// package and index the original collection:
//
//	docs, err := trec.ParseDocuments(f) // WSJ SGML
//	svc, err := toppriv.NewService(toppriv.ServiceSpec{Documents: docs})
package trec

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"toppriv/internal/corpus"
)

// ParseDocuments reads a TREC SGML document stream:
//
//	<DOC>
//	<DOCNO> WSJ870324-0001 </DOCNO>
//	<HL> headline </HL>
//	<TEXT>
//	body...
//	</TEXT>
//	</DOC>
//
// Only DOCNO, HL (headline) and TEXT are interpreted; all other tags
// inside a document are ignored. Multiple TEXT sections concatenate.
func ParseDocuments(r io.Reader) ([]corpus.Document, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	var docs []corpus.Document
	var cur *corpus.Document
	var inText, inHL bool
	var text, hl strings.Builder
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Text()
		trimmed := strings.TrimSpace(raw)
		switch {
		case trimmed == "<DOC>":
			if cur != nil {
				return nil, fmt.Errorf("trec: line %d: nested <DOC>", line)
			}
			cur = &corpus.Document{}
			text.Reset()
			hl.Reset()
		case trimmed == "</DOC>":
			if cur == nil {
				return nil, fmt.Errorf("trec: line %d: </DOC> without <DOC>", line)
			}
			cur.Text = strings.TrimSpace(text.String())
			if cur.Title == "" {
				cur.Title = strings.TrimSpace(hl.String())
			}
			cur.ID = corpus.DocID(len(docs))
			docs = append(docs, *cur)
			cur = nil
			inText, inHL = false, false
		case cur == nil:
			continue // junk between documents
		case strings.HasPrefix(trimmed, "<DOCNO>"):
			val := strings.TrimPrefix(trimmed, "<DOCNO>")
			val = strings.TrimSuffix(val, "</DOCNO>")
			if cur.Title == "" {
				cur.Title = strings.TrimSpace(val)
			}
		case trimmed == "<TEXT>":
			inText = true
		case trimmed == "</TEXT>":
			inText = false
		case trimmed == "<HL>":
			inHL = true
		case trimmed == "</HL>":
			inHL = false
		case strings.HasPrefix(trimmed, "<HL>"):
			// single-line <HL> headline </HL>
			val := strings.TrimPrefix(trimmed, "<HL>")
			val = strings.TrimSuffix(val, "</HL>")
			hl.WriteString(val)
			hl.WriteByte(' ')
		case inHL:
			hl.WriteString(trimmed)
			hl.WriteByte(' ')
		case inText:
			text.WriteString(raw)
			text.WriteByte('\n')
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trec: scan: %w", err)
	}
	if cur != nil {
		return nil, fmt.Errorf("trec: unterminated <DOC>")
	}
	return docs, nil
}

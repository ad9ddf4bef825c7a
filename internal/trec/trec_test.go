package trec

import (
	"strings"
	"testing"
)

const sampleDocs = `
<DOC>
<DOCNO> WSJ870324-0001 </DOCNO>
<HL> Stocks Rally as Dow Gains 30 Points </HL>
<DD> 03/24/87 </DD>
<TEXT>
The Dow Jones industrial average rose 30 points in heavy trading.
Investors cheered the composite index.
</TEXT>
</DOC>
<DOC>
<DOCNO> WSJ870325-0002 </DOCNO>
<HL>
Army Orders More
Apache Helicopters
</HL>
<TEXT>
The Army said it will buy more AH-64 Apache helicopters.
</TEXT>
<TEXT>
Deliveries begin next year.
</TEXT>
</DOC>
`

func TestParseDocuments(t *testing.T) {
	docs, err := ParseDocuments(strings.NewReader(sampleDocs))
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Fatalf("got %d docs", len(docs))
	}
	if docs[0].ID != 0 || docs[1].ID != 1 {
		t.Error("doc IDs not dense")
	}
	if docs[0].Title != "WSJ870324-0001" {
		t.Errorf("doc 0 title %q (DOCNO should win when set first)", docs[0].Title)
	}
	if !strings.Contains(docs[0].Text, "Dow Jones industrial average") {
		t.Errorf("doc 0 text lost: %q", docs[0].Text)
	}
	if strings.Contains(docs[0].Text, "03/24/87") {
		t.Error("non-TEXT content leaked into the body")
	}
	// Multiple TEXT sections concatenate.
	if !strings.Contains(docs[1].Text, "AH-64") || !strings.Contains(docs[1].Text, "Deliveries begin") {
		t.Errorf("doc 1 text sections not concatenated: %q", docs[1].Text)
	}
}

// parseErrorCases is a slice, not a map, so that FuzzParseDocuments
// numbers its seeds the same way on every run.
var parseErrorCases = []struct{ name, in string }{
	{"nested", "<DOC>\n<DOC>\n</DOC>\n</DOC>\n"},
	{"orphan close", "</DOC>\n<DOC>\n</DOC>\n"},
	{"unterminated", "<DOC>\n<TEXT>\nabc\n</TEXT>\n"},
}

func TestParseDocumentsErrors(t *testing.T) {
	for _, c := range parseErrorCases {
		if _, err := ParseDocuments(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	// "orphan close" first line actually errors; also verify empty input is fine.
	docs, err := ParseDocuments(strings.NewReader(""))
	if err != nil || len(docs) != 0 {
		t.Errorf("empty input: %v, %d docs", err, len(docs))
	}
}

// End-to-end: parsed documents flow into the standard corpus path.
func TestParsedDocsBuildCorpus(t *testing.T) {
	docs, err := ParseDocuments(strings.NewReader(sampleDocs))
	if err != nil {
		t.Fatal(err)
	}
	if docs[0].Text == "" || docs[1].Text == "" {
		t.Fatal("empty bodies")
	}
}

// FuzzParseDocuments holds the parser to its contract on arbitrary input
// (corpusgen -trec reads files from outside): an error, or documents
// whose IDs run densely 0…n−1 and whose title and text come back
// trimmed. It must never panic.
func FuzzParseDocuments(f *testing.F) {
	f.Add(sampleDocs)
	f.Add("")
	for _, c := range parseErrorCases {
		f.Add(c.in)
	}
	f.Add("<DOC>\n<HL> only a headline </HL>\n<TEXT>\n  padded body  \n</TEXT>\n</DOC>\n")
	f.Add("<DOC>\n<DOCNO></DOCNO>\n<HL>\n\n</HL>\n</DOC>\njunk\n<DOC>\n</DOC>\n")
	f.Fuzz(func(t *testing.T, in string) {
		docs, err := ParseDocuments(strings.NewReader(in))
		if err != nil {
			if docs != nil {
				t.Fatalf("error %v came with %d documents", err, len(docs))
			}
			return
		}
		for i, d := range docs {
			if int(d.ID) != i {
				t.Fatalf("doc %d has ID %d", i, d.ID)
			}
			if d.Title != strings.TrimSpace(d.Title) {
				t.Fatalf("doc %d title %q is not trimmed", i, d.Title)
			}
			if d.Text != strings.TrimSpace(d.Text) {
				t.Fatalf("doc %d text %q is not trimmed", i, d.Text)
			}
		}
	})
}

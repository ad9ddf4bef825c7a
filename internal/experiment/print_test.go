package experiment

import (
	"bytes"
	"strings"
	"testing"
)

func TestPrintPDXPoints(t *testing.T) {
	var buf bytes.Buffer
	PrintPDXPoints(&buf, []PDXPoint{
		{K: 8, Eps: 0.01, Expansion: 4, Exposure: 0.05, Queries: 40},
	})
	out := buf.String()
	if !strings.Contains(out, "LDA008") || !strings.Contains(out, "4x") {
		t.Errorf("missing fields:\n%s", out)
	}
}

func TestPrintRatioPoints(t *testing.T) {
	var buf bytes.Buffer
	PrintRatioPoints(&buf, []RatioPoint{
		{K: 16, Upsilon: 4, TopPriv: 0.02, PDX: 0.06, Ratio: 0.33, Queries: 50},
	})
	out := buf.String()
	if !strings.Contains(out, "LDA016") || !strings.Contains(out, "0.330") {
		t.Errorf("missing fields:\n%s", out)
	}
}

func TestPrintScalePoints(t *testing.T) {
	var buf bytes.Buffer
	PrintScalePoints(&buf, []ScalePoint{
		{NumDocs: 500, VocabSize: 1900, IndexBytes: 90 * 1024, ModelBytes: 500 * 1024, FileBytes: 321 * 1024, Saving: -4.5},
	})
	out := buf.String()
	if !strings.Contains(out, "500") || !strings.Contains(out, "1900") || !strings.Contains(out, "file_KB") || !strings.Contains(out, "321.0") {
		t.Errorf("missing fields:\n%s", out)
	}
}

func TestPrintAttacksBaselineDash(t *testing.T) {
	var buf bytes.Buffer
	PrintAttacks(&buf, []AttackRow{
		{Attack: "discount", Scheme: "toppriv", Metric: "recall", Value: 0.1},
		{Attack: "coherence", Scheme: "toppriv", Metric: "identify", Value: 0.1, Baseline: 0.11},
	})
	out := buf.String()
	if !strings.Contains(out, "-") {
		t.Error("recall rows should print a dash baseline")
	}
	if !strings.Contains(out, "0.110") {
		t.Error("baseline value missing")
	}
}

func TestPrintTopicColumnsRagged(t *testing.T) {
	var buf bytes.Buffer
	PrintTopicColumns(&buf, "ragged", []TopicColumn{
		{Header: "a", Words: []string{"x", "y", "z"}},
		{Header: "b", Words: []string{"p"}},
	})
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + header + 3 word rows
	if len(lines) != 5 {
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
	// Empty columns render without panicking.
	buf.Reset()
	PrintTopicColumns(&buf, "empty", nil)
	if !strings.Contains(buf.String(), "empty") {
		t.Error("empty table should still print its title")
	}
}
